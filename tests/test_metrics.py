import numpy as np
import pytest

from iamac_sim.config import Scenario, desk_preset
from iamac_sim.energy import EnergyTable, RadioState
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
    return EnergyTable()


def test_sleep_second_energy(table):
    # 1 s at 0.03 mA and 3 V
    assert table.energy_mj(RadioState.SLEEP, 1.0) == pytest.approx(0.09)


def test_zero_duration_zero_energy(table):
    ledger = MetricsLedger(1, table)
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
    doubled = EnergyTable(battery_mah=4800.0)
    assert doubled.battery_mj / (doubled.sleep_ma * doubled.voltage) == pytest.approx(2 * seconds)


def test_always_asleep_duty_cycle_is_zero(table):
    ledger = MetricsLedger(1, table)
    ledger.account(0, RadioState.SLEEP, 100.0)
    assert ledger.duty_cycle(0) == 0.0


def test_negative_duration_rejected(table):
    ledger = MetricsLedger(1, table)
    with pytest.raises(ValueError):
        ledger.account(0, RadioState.SLEEP, -1.0)


def test_delivery_before_birth_rejected(table):
    ledger = MetricsLedger(1, table)
    with pytest.raises(ValueError):
        ledger.record_delivery([make_data_packet(0, 0, 0, 10.0, 29, 16)], 9.0)


def test_queue_time_weighted_mean(table):
    ledger = MetricsLedger(2, table)
    ledger.measure_end = 10.0
    ledger.queue_changed(0, 4, 2.0)   # len 0 for [0,2)
    ledger.queue_changed(0, 0, 7.0)   # len 4 for [2,7)
    ledger.close_queues(10.0)         # len 0 for [7,10)
    # node 0 integral = 20 over 10 s, node 1 contributes zero
    assert ledger.mean_queue_len() == pytest.approx(20.0 / (10.0 * 2))


def remove_one_uid_at_a_time(sim, nid, uids):
    """Oracle: the one-uid removal loop, called once per entry of `uids`."""
    queue = sim.nodes[nid].queue
    for uid in uids:
        for i, p in enumerate(queue):
            if p.uid == uid:
                del queue[i]
                sim.ledger.queue_changed(nid, len(queue), sim.engine.now)
                break


@pytest.mark.parametrize("seed", range(12))
def test_queue_removal_matches_one_uid_at_a_time(seed):
    rng = np.random.default_rng(seed)
    sims = [Simulation(Scenario(node_count=2, seed=seed), [(0.0, 0.0), (5.0, 0.0)],
                       parents={1: 0}) for _ in range(2)]
    oracle, batched = sims
    calls = []
    queue_changed = batched.ledger.queue_changed
    batched.ledger.queue_changed = lambda *args: (calls.append(args),
                                                  queue_changed(*args))
    t, born = 0.0, 0
    for step in range(40):
        # some steps share an instant with the previous one
        t += float(rng.uniform(0.0, 2.0)) if rng.random() < 0.7 else 0.0
        for sim in sims:
            sim.engine.run_until(t)
        # uids 0-7 repeat within a queue; 8 and 9 are never queued
        for uid in rng.integers(0, 8, size=int(rng.integers(0, 4))).tolist():
            for sim in sims:
                sim.enqueue(1, make_data_packet(uid, 1, 0, float(born), 29, 16))
            born += 1
        uids = [] if step == 0 else rng.integers(0, 10, size=int(rng.integers(0, 7))).tolist()
        before = len(oracle.nodes[1].queue)
        remove_one_uid_at_a_time(oracle, 1, uids)
        del calls[:]
        batched.remove_from_queue(1, tuple(uids))
        assert len(calls) == (len(oracle.nodes[1].queue) < before)
        assert ([(p.uid, p.born_at) for p in batched.nodes[1].queue]
                == [(p.uid, p.born_at) for p in oracle.nodes[1].queue])
        for name in ("_queue_len", "_queue_last_t", "_queue_integral"):
            assert getattr(batched.ledger, name) == getattr(oracle.ledger, name)
    assert oracle.ledger._queue_integral[1] > 0.0


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
    end = sim.measured_until
    expected_max = sim.topo.n * (end / sc.sampling_interval_s + 1)
    assert res["generated_packets"] <= expected_max
    assert res["conserved"]
    assert res["mean_queue_len"] >= 0.0
