import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from iamac_sim import metrics
from iamac_sim.config import Scenario, desk_preset
from iamac_sim.energy import RadioState
from iamac_sim.metrics import MetricsLedger, colliding_sets
from iamac_sim.packets import make_data_packet
from iamac_sim.simulation import Simulation


def colliding_sets_offline(data_log, sense_in):
    """Recompute per-frame colliding sets from the logged intervals alone:
    every data transmission's span, and each reception its addressee
    resolved, tested for overlap. Returns {frame_idx: {receiver: cs_count}}.
    """
    transmissions = [(sender, s0, s1) for sender, _, s0, s1, _, _ in data_log]
    frames = {}
    for wanted, receiver, t0, t1, frame, interferers in data_log:
        if interferers is None:
            continue
        bucket = frames.setdefault(frame, {}).setdefault(receiver, set())
        for sender, s0, s1 in transmissions:
            if sender == wanted or sender == receiver:
                continue
            if sender not in sense_in[receiver]:
                continue
            if s0 < t1 and t0 < s1:
                bucket.add(sender)
    return {
        frame: {r: len(s) for r, s in per_rx.items()}
        for frame, per_rx in frames.items()
    }


@pytest.fixture
def table():
    return Scenario().energy_table()


def test_sleep_second_energy(table):
    # 1 s at 0.03 mA and 3 V
    assert table.energy_mj(RadioState.SLEEP, 1.0) == pytest.approx(0.09)


def test_zero_duration_zero_energy(table):
    ledger = MetricsLedger(1, table, 0.0)
    # charging nothing leaves the whole battery as the residual it returns
    assert ledger.account(0, RadioState.LISTEN, 0.0) == table.battery_mj
    assert ledger.spent_mj(0) == 0.0 and ledger.state_time[0] == [0.0, 0.0, 0.0]


def test_listening_drains_more_than_sleeping(table):
    assert (table.energy_mj(RadioState.LISTEN, 1.0)
            > table.energy_mj(RadioState.SLEEP, 1.0))


def test_tx_current_non_decreasing_in_power(table):
    powers = [-10.0, -8.0, -4.0, 0.0, 4.0]
    currents = [table.tx_ma(p) for p in powers]
    assert currents == sorted(currents)
    assert table.tx_ma(0.0) == pytest.approx(25.4)


def test_idle_lifetime_closed_form(table):
    # a node asleep forever dies at capacity / sleep draw
    seconds = table.battery_mj / (table.sleep_ma * table.voltage)
    assert seconds == pytest.approx(2400.0 * 3600.0 / 0.03)
    doubled = Scenario(battery_mah=4800.0).energy_table()
    assert doubled.battery_mj / (doubled.sleep_ma * doubled.voltage) == pytest.approx(2 * seconds)


@pytest.mark.parametrize("power", [-10.0, 0.0, 8.0])
def test_each_radio_state_is_its_ledger_column(table, power):
    """A state's value is its column in the ledger's `rates`, `state_time`
    and `state_energy`, which the radio charges index directly."""
    ledger = MetricsLedger(1, table, power)
    for state in (RadioState.SLEEP, RadioState.LISTEN, RadioState.TX):
        for d in (1e-3, 0.25, 7.0, 3600.0):
            assert ledger.rates[state] * d == table.energy_mj(state, d, power)
            time0, energy0 = list(ledger.state_time[0]), list(ledger.state_energy[0])
            ledger.account(0, state, d)
            time0[state] += d
            energy0[state] += ledger.rates[state] * d
            assert ledger.state_time[0] == time0
            assert ledger.state_energy[0] == energy0


def test_always_asleep_duty_cycle_is_zero(table):
    ledger = MetricsLedger(1, table, 0.0)
    ledger.account(0, RadioState.SLEEP, 100.0)
    assert ledger.duty_cycle(0) == 0.0


def test_negative_duration_rejected(table):
    ledger = MetricsLedger(1, table, 0.0)
    with pytest.raises(ValueError):
        ledger.account(0, RadioState.SLEEP, -1.0)


def test_delivery_before_birth_rejected(table):
    ledger = MetricsLedger(1, table, 0.0)
    with pytest.raises(ValueError):
        ledger.record_delivery([make_data_packet(0, 0, 0, 10.0, 29, 16)], 9.0)


def test_a_batch_with_one_packet_born_after_delivery_records_none_of_it(table):
    ledger = MetricsLedger(3, table, 0.0)
    ledger.record_delivery([make_data_packet(0, 1, 0, 1.0, 29, 16)], 2.0)
    kept = (list(ledger.delivered_records), ledger.delivered_payload)
    batch = [make_data_packet(1, 2, 0, 2.5, 31, 16), make_data_packet(2, 1, 0, 3.0, 29, 16),
             make_data_packet(3, 2, 0, 4.5, 40, 16), make_data_packet(4, 1, 0, 3.5, 29, 16)]
    with pytest.raises(ValueError, match="delivery precedes generation"):
        ledger.record_delivery(batch, 4.0)
    assert (list(ledger.delivered_records), ledger.delivered_payload) == kept
    columns = (ledger._origins, ledger._born, ledger._delivered, ledger._payloads)
    assert [len(c) for c in columns] == [1, 1, 1, 1]
    ledger.record_delivery(batch[:2], 4.0)
    assert ledger.delivered_payload == 29 + 31 + 29 and len(ledger.delivered_records) == 3


@pytest.mark.parametrize("field, value, error", [("payload_len", 29.5, TypeError),
                                                 ("origin", 2**64, OverflowError)],
                         ids=["float-payload", "origin-beyond-long"])
def test_a_batch_with_a_value_its_column_cannot_hold_records_none_of_it(table, field, value,
                                                                          error):
    """Every column is built before any is appended: a packet whose payload
    is not an int, or whose origin is beyond the `"l"` range, leaves all four
    columns and the payload total as they were."""
    ledger = MetricsLedger(3, table, 0.0)
    ledger.record_delivery([make_data_packet(0, 1, 0, 1.0, 29, 16)], 2.0)
    columns = (ledger._origins, ledger._born, ledger._delivered, ledger._payloads)
    kept = [c.tolist() for c in columns], ledger.delivered_payload
    bad = make_data_packet(2, 1, 0, 3.0, 29, 16)
    setattr(bad, field, value)
    with pytest.raises(error):
        ledger.record_delivery([make_data_packet(1, 2, 0, 2.5, 31, 16), bad], 4.0)
    assert ([c.tolist() for c in columns], ledger.delivered_payload) == kept
    assert list(ledger.delivered_records) == [(1, 1.0, 2.0, 29)]


class TupleLedger:
    """The sink's deliveries as one tuple per packet, the ledger's layout
    before its columns: the oracle for the records and `latency_stats`."""

    def __init__(self):
        self.records = []

    def record_delivery(self, pkts, delivered_at):
        for p in pkts:
            self.records.append((p.origin, p.born_at, delivered_at, p.payload_len))

    def latency_stats(self):
        if not self.records:
            return None
        lats = sorted(d - b for _, b, d, _ in self.records)
        mean = sum(lats) / len(lats)
        p95 = lats[min(len(lats) - 1, int(math.ceil(0.95 * len(lats))) - 1)]
        return {"mean": mean, "p95": p95, "count": len(lats)}


def delivery_batches(case, rng):
    """`(pkts, delivered_at)` batches: latencies over nine decades, so that
    the float sum depends on its order; several batches share a
    `delivered_at`."""
    if case == "none":
        return []
    if case == "single":
        return [([make_data_packet(0, 3, 0, 0.25, 29, 16)], 1.0 / 3.0)]
    batches, t, uid = [], 1e3, 0
    for _ in range(400):
        if rng.random() < 0.6:
            t += float(rng.uniform(0.0, 5.0))
        pkts = []
        for _ in range(int(rng.integers(1, 8))):
            lat = 0.75 if case == "equal" else float(10.0 ** rng.uniform(-6.0, 3.0))
            pkts.append(make_data_packet(uid, int(rng.integers(1, 7)), 0, t - lat,
                                         int(rng.integers(1, 60)), 16))
            uid += 1
        batches.append((pkts, t))
    return batches


@pytest.mark.parametrize("numpy_sort_from", [0, 10**9])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", ["random", "equal", "single", "none"])
def test_latency_stats_equal_the_tuple_formula_bit_for_bit(table, case, seed,
                                                          numpy_sort_from, monkeypatch):
    # both sorts: numpy's in place, and a list of Python floats
    monkeypatch.setattr(metrics, "NUMPY_SORT_FROM", numpy_sort_from)
    rng = np.random.default_rng(seed)
    ledger, oracle = MetricsLedger(7, table, 0.0), TupleLedger()
    for pkts, t in delivery_batches(case, rng):
        ledger.record_delivery(pkts, t)
        oracle.record_delivery(pkts, t)
    got, want = ledger.latency_stats(), oracle.latency_stats()
    if case == "none":
        assert got is None and want is None
    else:
        assert got["count"] == want["count"] == len(oracle.records)
        assert [got["mean"].hex(), got["p95"].hex()] == [want["mean"].hex(), want["p95"].hex()]
        assert type(got["mean"]) is type(got["p95"]) is float
    records = ledger.delivered_records
    assert list(records) == oracle.records and records == oracle.records
    assert len(records) == len(oracle.records)
    if oracle.records:
        assert records[0] == oracle.records[0] and records[-1] == oracle.records[-1]
        assert records[3:-2] == oracle.records[3:-2]
    with pytest.raises(IndexError):
        records[len(oracle.records)]


def test_delivery_records_hold_at_most_40_bytes_per_delivery(table):
    """Each record outlives its packet; 100,000 of them, born at distinct
    instants, must hold at most 40 B each in the ledger."""
    n, batch = 100_000, 50
    ledger = MetricsLedger(7, table, 0.0)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, n, batch):
            pkts = [make_data_packet(uid, uid % 6 + 1, 0, uid * 1e-3 + 0.1, 29, 16)
                    for uid in range(start, start + batch)]
            ledger.record_delivery(pkts, start * 1e-3 + 1.0)
        del pkts
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(ledger.delivered_records) == n
    assert held <= 40 * n


def test_queue_time_weighted_mean(table):
    ledger = MetricsLedger(2, table, 0.0)
    ledger.measure_end = 10.0
    ledger.queue_changed(0, 4, 2.0)   # len 0 for [0,2)
    ledger.queue_changed(0, 0, 7.0)   # len 4 for [2,7)
    ledger.close_queues(10.0)         # len 0 for [7,10)
    # node 0 integral = 20 over 10 s, node 1 contributes zero
    assert ledger.mean_queue_len() == pytest.approx(20.0 / (10.0 * 2))


def test_a_sampled_packet_is_the_packet_inject_builds():
    """Sampling builds its packet in place and books it in one ledger call;
    injecting at each sample's instant on a twin run gives the same packets,
    field for field, and the same queue accounts. Node 3 is a root, so its
    packets are addressed to node 0."""
    sc = Scenario(node_count=4, seed=5, sampling_interval_s=0.05, horizon_s=12.0,
                  shadowing_sigma=0.0, stop_on_first_death=False).validate()
    positions = [(0.0, 0.0), (6.0, 0.0), (12.0, 0.0), (0.0, 6.0)]
    sampled, injected = (Simulation(sc, positions, parents={1: 0, 2: 1}) for _ in range(2))
    for sim in (sampled, injected):
        sim.bootstrap_routing()
    sampled.start_traffic()
    sampled.engine.run_until(2.0)
    packets = sorted((p for node in sampled.nodes for p in node.queue), key=lambda p: p.uid)
    assert {p.dst for p in packets} == {0, 1} and len(packets) > 100
    for p in packets:
        injected.engine.schedule(p.born_at, lambda ev, origin=p.origin:
                                 injected.inject(origin, sc.payload_bytes))
    injected.engine.run_until(2.0)
    for mine, theirs in zip(sampled.nodes, injected.nodes):
        assert [astuple(p) for p in mine.queue] == [astuple(p) for p in theirs.queue]
    for name in ("generated_packets", "_queue_len", "_queue_last_t", "_queue_integral"):
        assert getattr(sampled.ledger, name) == getattr(injected.ledger, name)
    # only the sample pays its energy
    assert sampled.ledger.sample_energy[1] > 0.0 == injected.ledger.sample_energy[1]


def remove_one_uid_at_a_time(sim, nid, uid):
    """Oracle: delete the earliest queued packet with `uid`, if any, and
    record the queue change."""
    queue = sim.nodes[nid].queue
    for i, p in enumerate(queue):
        if p.uid == uid:
            del queue[i]
            sim.ledger.queue_changed(nid, len(queue), sim.engine.now)
            break


def assert_same_queue(sim, oracle, nid):
    assert ([(p.uid, p.born_at) for p in sim.nodes[nid].queue]
            == [(p.uid, p.born_at) for p in oracle.nodes[nid].queue])
    for name in ("_queue_len", "_queue_last_t", "_queue_integral"):
        assert getattr(sim.ledger, name) == getattr(oracle.ledger, name)


@pytest.mark.parametrize("seed", range(12))
def test_queue_removal_matches_one_uid_at_a_time(seed):
    rng = np.random.default_rng(seed)
    sims = [Simulation(Scenario(node_count=2, seed=seed), [(0.0, 0.0), (5.0, 0.0)],
                       parents={1: 0}) for _ in range(2)]
    oracle, removed = sims
    calls = []
    queue_changed = removed.ledger.queue_changed
    removed.ledger.queue_changed = lambda *args: (calls.append(args),
                                                  queue_changed(*args))
    t, born = 0.0, 0
    for step in range(60):
        # some steps share an instant with the previous one
        t += float(rng.uniform(0.0, 2.0)) if rng.random() < 0.7 else 0.0
        for sim in sims:
            sim.engine.run_until(t)
        # uids 0-7 repeat within a queue; 8 and 9 are never queued
        for uid in rng.integers(0, 8, size=int(rng.integers(0, 3))).tolist():
            for sim in sims:
                sim.enqueue(1, make_data_packet(uid, 1, 0, float(born), 29, 16))
            born += 1
        uid = int(rng.integers(0, 10))
        before = len(oracle.nodes[1].queue)
        remove_one_uid_at_a_time(oracle, 1, uid)
        del calls[:]
        removed.remove_from_queue(1, uid)
        assert len(calls) == (len(oracle.nodes[1].queue) < before)
        assert_same_queue(removed, oracle, 1)
    assert oracle.ledger._queue_integral[1] > 0.0


QUEUED_UIDS = [3, 5, 3, 7, 5, 9, 1]


@pytest.mark.parametrize("uid, left", [
    (3, [5, 3, 7, 5, 9, 1]),      # the head
    (7, [3, 5, 3, 5, 9, 1]),      # the middle
    (5, [3, 3, 7, 5, 9, 1]),      # queued twice: only the earlier one goes
    (42, QUEUED_UIDS),            # absent: nothing shrinks
], ids=["head-1", "middle", "duplicates", "absent"])
def test_queue_head_removal_matches_one_uid_at_a_time(uid, left):
    """Removing one uid from the head, the middle or nowhere leaves the queue
    and the queue accounts of the oracle, with one queue change exactly when
    the queue shrinks."""
    sims = [Simulation(Scenario(node_count=2, seed=1), [(0.0, 0.0), (5.0, 0.0)],
                       parents={1: 0}) for _ in range(2)]
    oracle, removed = sims
    for born, queued in enumerate(QUEUED_UIDS):
        for sim in sims:
            sim.engine.run_until(0.5 * born)
            sim.enqueue(1, make_data_packet(queued, 1, 0, 0.5 * born, 29, 16))
    calls = []
    queue_changed = removed.ledger.queue_changed
    removed.ledger.queue_changed = lambda *args: (calls.append(args), queue_changed(*args))
    for sim in sims:
        sim.engine.run_until(7.25)
    remove_one_uid_at_a_time(oracle, 1, uid)
    removed.remove_from_queue(1, uid)
    assert [p.uid for p in removed.nodes[1].queue] == left
    assert calls == ([(1, len(left), 7.25)] if len(left) < len(QUEUED_UIDS) else [])
    assert_same_queue(removed, oracle, 1)


@pytest.mark.parametrize("seed", range(6))
def test_batched_delivery_matches_one_packet_at_a_time(seed):
    """`deliver_to(nid, pkts)` gives the sink the records and payload of one
    delivery per packet, and any other node the queue and time-weighted
    queue integral of one `enqueue` per packet."""
    rng = np.random.default_rng(seed)
    sims = [Simulation(Scenario(node_count=3, seed=seed),
                       [(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)], parents={1: 0, 2: 1})
            for _ in range(2)]
    oracle, batched = sims
    t, uid = 0.0, 0
    for step in range(30):
        t += float(rng.uniform(0.0, 2.0)) if rng.random() < 0.7 else 0.0
        for sim in sims:
            sim.engine.run_until(t)
        nid = int(rng.integers(0, 2))
        pkts = []
        for _ in range(int(rng.integers(0, 6))):
            born = float(rng.uniform(0.0, t))
            pkts.append(make_data_packet(uid, 2, 1, born, int(rng.integers(1, 60)), 16))
            uid += 1
        for p in pkts:
            if nid == 0:
                oracle.deliver_to(0, (p,))
            else:
                oracle.enqueue(nid, p)
        n_records = len(batched.ledger.delivered_records)
        batched.deliver_to(nid, pkts)
        if nid == 0:
            assert batched.ledger.delivered_records[n_records:] == [
                (2, p.born_at, t, p.payload_len) for p in pkts]
    for name in ("delivered_records", "delivered_payload",
                 "_queue_len", "_queue_last_t", "_queue_integral"):
        assert getattr(batched.ledger, name) == getattr(oracle.ledger, name)
    assert ([p.uid for p in batched.nodes[1].queue]
            == [p.uid for p in oracle.nodes[1].queue])
    assert batched.ledger.delivered_records and batched.ledger._queue_integral[1] > 0.0


@pytest.mark.parametrize("protocol", ["iamac", "smac", "adaptive-smac"])
@pytest.mark.parametrize("recovery", ["arq", "seda"])
def test_delivered_payload_counts_every_delivery_record(protocol, recovery):
    sc = desk_preset(seed=4, horizon_s=60.0, stop_on_first_death=False,
                     protocol=protocol, recovery=recovery)
    sim = Simulation(sc)
    res = sim.run()
    records = sim.ledger.delivered_records
    assert records
    assert sim.ledger.delivered_payload == sum(r[3] for r in records)
    assert res["delivered_payload"] == sim.ledger.delivered_payload


def test_energy_ledger_conservation_on_a_run():
    sc = desk_preset(horizon_s=25.0, sampling_interval_s=5.0, seed=4,
                     stop_on_first_death=False)
    sim = Simulation(sc)
    sim.run()
    table = sim.energy_table
    for node in range(sim.topo.n):
        spent = sim.ledger.spent_mj(node)
        drained = table.battery_mj - sim.ledger.residual_mj[node]
        assert spent == pytest.approx(drained, rel=1e-9)


def test_per_frame_state_times_sum_to_frame_duration():
    sc = desk_preset(horizon_s=20.0, sampling_interval_s=5.0, seed=4,
                     stop_on_first_death=False)
    sim = Simulation(sc)
    # every node's state times at the end of each frame, after its flush
    ends = []
    flush_frame_cs = sim.ledger.flush_frame_cs

    # called once per frame end, after the nodes' flush and before the next
    # frame's beacon is charged
    def snapshot_flush_frame_cs():
        flush_frame_cs()
        ends.append([list(st) for st in sim.ledger.state_time])

    sim.ledger.flush_frame_cs = snapshot_flush_frame_cs
    res = sim.run()
    assert ends[-1] == sim.ledger.state_time
    # frame 0 starts at zero; frame k starts where frame k - 1 ended
    marks = [[[0.0] * 3] * sim.topo.n] + ends
    assert len(marks) == res["frames"] + 1 == 21
    for start, end in zip(marks, marks[1:]):
        for node_start, node_end in zip(start, end):
            spent = sum(now - then for now, then in zip(node_end, node_start))
            assert spent == pytest.approx(sc.frame_s, abs=1e-9)


def node_accounts(ledger, nid):
    return (list(ledger.state_time[nid]), list(ledger.state_energy[nid]),
            ledger.switch_energy[nid], ledger.sample_energy[nid], ledger.residual_mj[nid])


@pytest.mark.parametrize("stop", [True, False], ids=["stop", "go-on"])
@pytest.mark.parametrize("charge", ["flush", "wake", "beacon"])
def test_a_battery_empties_at_each_frame_boundary_charge(charge, stop):
    """Empty node 2's battery at one charge of the boundary at 2.0 s: the
    frame's flush (a listening node), the wake switch of a sleeping node or
    its Synch beacon. The residual is set 1 ms before the boundary, on a
    3-node IAMAC line without traffic where nothing else touches node 2 then.
    The node dies at 2.0 s and is charged nothing afterwards; with the stop
    flag, a flush death stops the run before any node wakes or pays a
    beacon."""
    boundary, nid = 2.0, 2
    sc = Scenario(node_count=3, seed=1, horizon_s=5.0, sampling_interval_s=1000.0,
                  stop_on_first_death=stop)
    sim = Simulation(sc, [(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)], parents={1: 0, 2: 1})
    ledger, node = sim.ledger, sim.nodes[nid]
    before, after = {}, {}

    def empty(ev):
        if charge == "flush":
            sim.wake(nid)
            # well below the flush's 1 ms of listening
            ledger.residual_mj[nid] = 1e-9
        else:
            assert node.state is RadioState.SLEEP
            flush_mj = ledger.rates[RadioState.SLEEP] * (boundary - node._state_since)
            switch_mj = sim.energy_table.switch_mj
            beacon_mj = ledger.rates[RadioState.TX] * sc.control_air
            left = 0.5 * switch_mj if charge == "wake" else switch_mj + 0.5 * beacon_mj
            ledger.residual_mj[nid] = flush_mj + left
        before.update({i: node_accounts(ledger, i) for i in range(3)})
        before["states"] = [n.state for n in sim.nodes]
        # after the boundary's frame end, which was scheduled earlier
        sim.engine.schedule(boundary, lambda ev: after.update(
            {i: node_accounts(ledger, i) for i in range(3)}))

    sim.engine.schedule(boundary - 1e-3, empty)
    res = sim.run()
    assert not node.alive and ledger.first_death_time == boundary
    assert [n.alive for n in sim.nodes[:2]] == [True, True]
    assert node_accounts(ledger, nid) == after[nid]
    time0, energy0, switch0, _, _ = before[nid]
    time1, energy1, switch1, _, residual = after[nid]
    assert residual <= 0.0
    woken = switch1 > switch0
    beaconed = time1[2] > time0[2]
    assert (woken, beaconed) == {"flush": (False, False), "wake": (True, False),
                                 "beacon": (True, True)}[charge]
    if charge == "flush":
        assert time1[1] > time0[1]
    if stop and charge == "flush":
        assert sim.stopped and res["frames"] == 2
        for i in range(2):
            assert after[i][2] == before[i][2]                 # no wake switch
            assert after[i][0][2] == before[i][0][2]           # no beacon
            assert sim.nodes[i].state is before["states"][i]
    else:
        assert res["frames"] == (3 if stop else 5)


@pytest.mark.parametrize("protocol, frame_s, horizon_s, frames, share", [
    ("iamac", 1.0, 60.0, 60, 0.228),
    ("smac", 1.0, 60.0, 60, 0.228),
    ("adaptive-smac", 1.0, 60.0, 60, 0.228),
    ("iamac", 30.0, 90.0, 3, 0.328 / 30),
])
def test_idle_duty_cycle_is_the_frame_plans_awake_share(protocol, frame_s, horizon_s,
                                                        frames, share):
    """With no traffic, every node is awake for exactly the frame's common
    slots: IAMAC's Synch slot of each Time Frame plus its RTS and CTS slots,
    S-MAC's Synch slot plus its listen period."""
    sc = desk_preset(seed=4, protocol=protocol, frame_s=frame_s, horizon_s=horizon_s,
                     sampling_interval_s=1e9, stop_on_first_death=False)
    if protocol == "iamac":
        plan = sc.frame_plan()
        awake = (plan.n_time_frames * plan.synch_slot + plan.rts_slot
                 + plan.cts_slot) / plan.cycle
    else:
        awake = (sc.synch_slot_s + sc.w * sc.mini_slot_s + sc.cts_slot_s) / sc.frame_s
    assert awake == pytest.approx(share, abs=1e-12)
    sim = Simulation(sc)
    res = sim.run()
    assert res["status"] == "ok" and res["frames"] == frames
    for node in range(sim.topo.n):
        assert sim.ledger.duty_cycle(node) == pytest.approx(awake, abs=1e-12)


def idle_cycle_charges(sc):
    """The ledger's charges to every node over one wake cycle without
    traffic, as (seconds into the cycle, sleep, listen, transmit, switch mJ).
    Each Time Frame's Synch slot wakes the node (one switch, after the sleep
    since its last span) and charges one beacon burst in transmit; the node
    sleeps again (the listen time, then one switch) when its awake span
    closes, and the cycle's end flushes the last sleep. IAMAC's first span is
    its Synch, RTS and CTS slots, a later Time Frame's its Synch slot alone;
    S-MAC's span is its Synch slot plus its listen period."""
    table = sc.energy_table()
    volts = table.voltage
    if sc.protocol == "iamac":
        plan = sc.frame_plan()
        spans = ([plan.synch_slot + plan.rts_slot + plan.cts_slot]
                 + [plan.synch_slot] * (plan.n_time_frames - 1))
        time_frame = plan.time_frame
    else:
        spans = [sc.synch_slot_s + sc.w * sc.mini_slot_s + sc.cts_slot_s]
        time_frame = sc.frame_s
    sleep_mw = table.sleep_ma * volts
    listen_mw = table.listen_ma * volts
    tx_mw = table.tx_ma(sc.output_power_dbm) * volts
    burst = sc.control_air
    charges = []
    slept = 0.0
    for k, span in enumerate(spans):
        charges.append((k * time_frame, sleep_mw * slept, 0.0, tx_mw * burst, table.switch_mj))
        charges.append((k * time_frame + span, 0.0, listen_mw * (span - burst), 0.0,
                        table.switch_mj))
        slept = time_frame - span
    charges.append((len(spans) * time_frame, sleep_mw * slept, 0.0, 0.0, 0.0))
    return charges


IDLE_CYCLES = [("iamac", 1.0), ("smac", 1.0), ("adaptive-smac", 1.0), ("iamac", 30.0)]


@pytest.mark.parametrize("protocol, frame_s", IDLE_CYCLES)
def test_idle_energy_per_frame_is_the_closed_form(protocol, frame_s):
    frames = 5
    sc = desk_preset(seed=4, protocol=protocol, frame_s=frame_s, horizon_s=frames * frame_s,
                     sampling_interval_s=1e9, stop_on_first_death=False)
    charges = idle_cycle_charges(sc)
    # per frame: sleep, listen and transmit mJ, in the ledger's state order, then switches
    per_frame = [sum(charge[k] for charge in charges) for k in (1, 2, 3, 4)]
    sim = Simulation(sc)
    res = sim.run()
    assert res["status"] == "ok" and res["frames"] == frames
    ledger = sim.ledger
    for node in range(sim.topo.n):
        got = ledger.state_energy[node] + [ledger.switch_energy[node]]
        assert got == pytest.approx([frames * mj for mj in per_frame], rel=1e-12)
        assert ledger.spent_mj(node) == pytest.approx(frames * sum(per_frame), rel=1e-12)


@pytest.mark.parametrize("protocol, frame_s", IDLE_CYCLES)
def test_idle_first_death_is_the_closed_form_time(protocol, frame_s):
    """A battery of 3.5 frames' idle energy empties in frame 3, at the first
    charge that takes the running total past it."""
    base = desk_preset(seed=4, protocol=protocol, frame_s=frame_s, sampling_interval_s=1e9)
    charges = idle_cycle_charges(base)
    battery_mj = 3.5 * sum(sum(charge[1:]) for charge in charges)
    spent = 0.0
    death = None
    for frame in range(4):
        for t, *mj in charges:
            spent += sum(mj)
            if death is None and spent >= battery_mj:
                death = frame * frame_s + t
    assert 3 * frame_s < death < 4 * frame_s
    sc = desk_preset(seed=4, protocol=protocol, frame_s=frame_s, sampling_interval_s=1e9,
                     horizon_s=6 * frame_s,
                     battery_mah=battery_mj / (3600.0 * base.energy_table().voltage))
    res = Simulation(sc).run()
    assert res["status"] == "ok" and not res["lifetime_censored"]
    assert res["frames"] == 4
    assert res["lifetime_s"] == pytest.approx(death, abs=1e-9)


def test_colliding_set_online_matches_offline_oracle():
    # the IAMAC run's few colliding receptions have one interferer each; the
    # adaptive S-MAC run also has receptions with two
    runs = [dict(node_count=20, area=(40.0, 40.0), horizon_s=60.0,
                 sampling_interval_s=4.0, seed=6),
            dict(protocol="adaptive-smac", horizon_s=60.0, sampling_interval_s=2.0, seed=3)]
    for overrides in runs:
        sim = Simulation(desk_preset(stop_on_first_death=False, **overrides), trace=True)
        res = sim.run()
        assert res["status"] == "ok"
        offline = colliding_sets_offline(sim.data_log, sim.topo.sense_in)
        online = {f: {r: len(s) for r, s in d.items() if s}
                  for f, d in colliding_sets(sim.data_log).items()}
        online = {f: d for f, d in online.items() if d}
        offline = {f: {r: c for r, c in d.items() if c > 0}
                   for f, d in offline.items()}
        offline = {f: d for f, d in offline.items() if d}
        assert online
        assert online == offline
        # the ledger's per-frame sums, which `cs_mean_sum` and `cs_max_sum` read
        assert len(sim.ledger.cs_sum_per_frame) == res["frames"]
        assert sim.ledger.cs_sum_per_frame == [sum(offline.get(f, {}).values())
                                               for f in range(res["frames"])]


def test_lone_transmitter_has_empty_colliding_set():
    from iamac_sim.fixtures import build_fig6

    sim = build_fig6()
    sim.run()
    # sequential grants around one parent: nobody collides
    assert sim.ledger.cs_stats()["max_sum"] == 0


def test_payload_double_entry_bookkeeping():
    sc = desk_preset(horizon_s=30.0, sampling_interval_s=5.0, seed=3,
                     stop_on_first_death=False)
    sim = Simulation(sc)
    res = sim.run()
    assert res["conserved"]
    assert res["generated_packets"] == (res["delivered_packets"]
                                        + res["queued_packets"]
                                        + res["dropped_packets"])


def test_first_death_marks_lifetime():
    sc = desk_preset(horizon_s=400.0, seed=4, battery_mah=0.1)
    sim = Simulation(sc)
    res = sim.run()
    assert not res["lifetime_censored"]
    assert res["lifetime_s"] == sim.ledger.first_death_time
    assert res["lifetime_s"] < 400.0


def test_censored_lifetime_reports_horizon():
    sc = desk_preset(horizon_s=20.0, seed=4)
    res = Simulation(sc).run()
    assert res["lifetime_censored"]
    assert res["lifetime_s"] == 20.0


def test_accounting_freezes_when_the_run_stops_early():
    """After the lifetime event ends the run, later sample timers must not
    keep inflating generation counts or queue integrals."""
    sc = desk_preset(horizon_s=3000.0, seed=4, battery_mah=0.1,
                     sampling_interval_s=5.0)
    sim = Simulation(sc)
    res = sim.run()
    assert not res["lifetime_censored"]
    end = sim.ledger.measure_end
    expected_max = sim.topo.n * (end / sc.sampling_interval_s + 1)
    assert res["generated_packets"] <= expected_max
    assert res["conserved"]
    assert res["mean_queue_len"] >= 0.0


@pytest.mark.xfail(strict=True, reason="account_sample lowers residual_mj without a death "
                   "check, so a sample that empties a battery leaves its node alive")
def test_no_live_node_holds_an_empty_battery_after_a_sample():
    # node 33 at seed 1 is left alive at or below zero by its sample at t = 350.584 s
    sim = Simulation(desk_preset(seed=1, horizon_s=600, sampling_interval_s=0.5,
                                 stop_on_first_death=False))
    ledger = sim.ledger
    account_sample = ledger.account_sample
    emptied = []

    def checked(node, queue_len, times):
        account_sample(node, queue_len, times)
        if sim.nodes[node].alive and ledger.residual_mj[node] <= 0.0:
            emptied.append((node, times[-1]))

    ledger.account_sample = checked
    sim.run()
    assert emptied == []


def radio_time_error(**overrides):
    """The largest gap, over the live nodes of a `desk` seed-1 run, between a
    node's summed `state_time` and the measured span."""
    sim = Simulation(desk_preset(seed=1, stop_on_first_death=False, **overrides))
    sim.run()
    ledger = sim.ledger
    return max(abs(sum(ledger.state_time[node.id]) - ledger.measure_end)
               for node in sim.nodes if node.alive)


@pytest.mark.parametrize("protocol", ["iamac", "smac"])
@pytest.mark.parametrize("recovery", ["arq", "seda"])
def test_radio_time_sums_to_the_measured_span(protocol, recovery):
    # every live node is in exactly one radio state at every instant
    assert radio_time_error(protocol=protocol, recovery=recovery) <= 1e-9


@pytest.mark.xfail(strict=True, reason="a switch inside a beacon's airtime resets the clock "
                   "`charge_synch_slot` moved past now, so the overlap is charged twice")
def test_a_synch_slot_shorter_than_a_beacon_keeps_radio_time():
    # over-charged by up to 0.34 s (IAMAC) and 0.39 s (S-MAC) over 240 s
    assert max(radio_time_error(protocol=protocol, synch_slot_s=0.0)
               for protocol in ("iamac", "smac")) <= 1e-9


@pytest.mark.xfail(strict=True, reason="a stale adaptive S-MAC attempt transmits inside a "
                   "frame's first beacon airtime, so that overlap is charged twice")
def test_adaptive_smac_keeps_radio_time():
    # over-charged by up to 0.004 s over 240 s
    assert radio_time_error(protocol="adaptive-smac") <= 1e-9
