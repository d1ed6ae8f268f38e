import itertools
import math
import types
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from iamac_sim import harness
from iamac_sim.config import Scenario, desk_preset
from iamac_sim.harness import transfer_benchmark
from iamac_sim.medium import Medium
from iamac_sim.packets import PacketKind, airtime, data_frame
from iamac_sim.recovery import (ArqSession, SedaSession, arq_capacity, rts_success_prob,
                                seda_capacity)
from iamac_sim.simulation import Simulation


# -- data frames ----------------------------------------------------------------

@pytest.mark.parametrize("entry", [(41, 2, 3.25, 27), (0, 0, 0.0, 1), (7, 5, 0.0, 1)],
                         ids=["mid-run", "first-uid-one-byte-at-0", "one-byte-at-0"])
def test_data_frame_carries_its_queue_entry(entry):
    """The frame built from a queue entry carries that entry itself, goes
    from `src` to `dst`, and puts the payload plus the header on the air;
    it fills no per-kind field."""
    for src, dst, header in [(5, 1, 16), (2, 0, 0), (3, 4, 40)]:
        got = data_frame(entry, src, dst, header)
        assert astuple(got) == (PacketKind.DATA, src, dst, entry[3] + header, entry, 0.0, ())
        assert got.payload is entry
        assert type(got.size) is int


# -- contention probability ----------------------------------------------------

def enumerate_all_distinct(n, w):
    """Exhaustive oracle: fraction of slot assignments with no repeats."""
    total = 0
    good = 0
    for combo in itertools.product(range(w), repeat=n):
        total += 1
        good += len(set(combo)) == n
    return good / total


def test_single_contender_always_succeeds():
    for w in range(1, 9):
        assert rts_success_prob(1, w, "paper") == 1.0
        assert rts_success_prob(1, w, "distinct-slot") == 1.0


def test_two_contenders_four_slots():
    assert rts_success_prob(2, 4, "paper") == pytest.approx(0.75)
    assert rts_success_prob(2, 4, "distinct-slot") == pytest.approx(0.75)


def test_three_contenders_modes_diverge():
    assert rts_success_prob(3, 4, "paper") == pytest.approx(0.1875)
    assert rts_success_prob(3, 4, "distinct-slot") == pytest.approx(0.375)


def test_distinct_mode_matches_enumeration_exactly():
    for w in range(1, 7):
        for n in range(1, w + 1):
            assert rts_success_prob(n, w, "distinct-slot") == pytest.approx(
                enumerate_all_distinct(n, w), abs=1e-12)


def test_paper_mode_matches_printed_formula():
    for w in range(1, 7):
        for n in range(1, w + 1):
            printed = math.comb(w, n) * n * (1.0 / w) ** n
            assert rts_success_prob(n, w, "paper") == pytest.approx(
                min(printed, 1.0), abs=1e-12)


def test_distinct_mode_monte_carlo_oracle():
    rng = np.random.default_rng(5)
    trials = 1_000_000
    for w in (4, 8):
        for n in (2, 3, w):
            draws = rng.integers(0, w, size=(trials, n))
            distinct = np.array([len(np.unique(row)) == n
                                 for row in draws[:200_000]])
            est = distinct.mean()
            p = rts_success_prob(n, w, "distinct-slot")
            se = math.sqrt(max(p * (1 - p), 1e-9) / len(distinct))
            assert abs(est - p) < 3 * se + 1e-3


def test_domain_errors():
    with pytest.raises(ValueError):
        rts_success_prob(0, 4)
    with pytest.raises(ValueError):
        rts_success_prob(2, 0)
    with pytest.raises(ValueError):
        rts_success_prob(2, 8, "bogus")
    assert rts_success_prob(5, 4, "distinct-slot") == 0.0


# -- capacity closed forms --------------------------------------------------------

REF = Scenario()  # the reference scenario

def test_arq_capacity_error_free():
    assert arq_capacity(1.0, 0.0, REF) == 35          # floor(19200 / (360 + 184))


def test_arq_capacity_at_1e3():
    assert arq_capacity(1.0, 1e-3, REF) == 27


def test_arq_capacity_saturation_limit():
    # every packet retransmitted once: floor(19200 / (2 * 544))
    assert arq_capacity(1.0, 1.0 - 1e-12, REF) == 17


def test_seda_capacity_error_free():
    assert seda_capacity(1.0, 0.0, REF) == 76         # floor((19200 - 128) / 248)


def test_capacities_monotone_grid():
    sc = Scenario()
    bers = [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2]
    budgets = [0.25, 0.5, 1.0, 2.0]
    for d in budgets:
        arqs = [arq_capacity(d, b, sc) for b in bers]
        sedas = [seda_capacity(d, b, sc) for b in bers]
        assert arqs == sorted(arqs, reverse=True)
        assert sedas == sorted(sedas, reverse=True)
    for b in bers:
        arqs = [arq_capacity(d, b, sc) for d in budgets]
        sedas = [seda_capacity(d, b, sc) for d in budgets]
        assert arqs == sorted(arqs)
        assert sedas == sorted(sedas)


def test_seda_payload_dominates_arq_on_grid():
    sc = Scenario()
    for ber in (0.0, 1e-5, 1e-4, 1e-3, 1e-2):
        assert (seda_capacity(1.0, ber, sc) * sc.payload_bytes
                >= arq_capacity(1.0, ber, sc) * sc.payload_bytes)


def test_both_capacities_tend_to_fixed_values_at_high_ber():
    assert arq_capacity(1.0, 0.99, REF) == arq_capacity(1.0, 0.999, REF)
    assert seda_capacity(1.0, 0.99, REF) == seda_capacity(1.0, 0.999, REF)


def test_gamma_reduces_budget():
    assert arq_capacity(1.0, 0.0, Scenario(gamma_s=0.5)) == arq_capacity(0.5, 0.0, REF)
    # a `gamma_s` above the budget leaves no packet, not a negative count
    assert arq_capacity(0.5, 0.0, Scenario(gamma_s=1.0)) == 0


def test_a_budget_of_gamma_fits_no_burst_where_one_block_rounds_away():
    """At `gamma_s = 2**60` s one float step is 256 s, so a one-block
    burst's 0.02 s vanishes in `t + gamma_s`: `fits(1)` alone would pass at a
    budget of exactly `gamma_s`, and only the `d_s <= gamma_s` test returns 0."""
    sc = Scenario(gamma_s=2.0 ** 60).validate()
    assert seda_capacity(2.0 ** 60, 0.0, sc) == 0 == arq_capacity(2.0 ** 60, 0.0, sc)


def test_domain_errors_capacity():
    with pytest.raises(ValueError):
        arq_capacity(1.0, 1.0, REF)
    with pytest.raises(ValueError):
        seda_capacity(1.0, -0.1, REF)
    with pytest.raises(ValueError):
        seda_capacity(1.0, 1.0, REF)
    assert arq_capacity(0.0, 0.0, REF) == 0
    # a budget above `gamma_s` that no one-block burst fits holds no block
    assert seda_capacity(1e-4, 0.0, REF) == 0


# -- event-level transfers ---------------------------------------------------------

def test_arq_perfect_channel_timeline():
    """Five packets over a clean link: elapsed = 5(t_pkt + t_ack) + 4 gaps."""
    sc = Scenario()
    r = transfer_benchmark("arq", 1.0, 0.0, frames=1, turnaround_s=0.002, supply=5)
    t_pkt = airtime(sc.payload_bytes + sc.header_bytes, sc.radio_speed)
    t_ack = airtime(sc.ack_len, sc.radio_speed)
    assert r["delivered_per_frame"] == 5
    assert r["elapsed_first"] == pytest.approx(5 * (t_pkt + t_ack) + 4 * 0.002,
                                               abs=1e-6)


def test_arq_zero_budget_sends_nothing():
    r = transfer_benchmark("arq", 1e-6, 0.0, frames=1)
    assert r["mean_packets_sent"] == 0


def test_arq_dead_channel_consumes_retries_delivers_nothing():
    r = transfer_benchmark("arq", 0.5, 0.495, frames=1)
    assert r["mean_delivered_payload"] == 0
    assert r["mean_packets_sent"] > 0


def test_seda_perfect_channel_no_recovery_frames():
    r = transfer_benchmark("seda", 1.0, 0.0, frames=2)
    assert r["recovery_frames"] == 0
    assert r["mean_delivered_payload"] == pytest.approx(
        seda_capacity(1.0, 0.0, REF) * 29)


def test_seda_single_corruption_one_recovery_one_retransmission(monkeypatch):
    """Force exactly one corrupted block: one recovery frame comes back and
    only that block is retransmitted."""
    calls = []

    def force_one(self, sinr, n_blocks, block_bytes):
        calls.append(n_blocks)
        if len(calls) == 1:
            flips = [False] * n_blocks
            flips[3] = True
            return flips
        return [False] * n_blocks

    monkeypatch.setattr(Medium, "block_corruption_draws", force_one)
    r = transfer_benchmark("seda", 1.0, 0.0, frames=1, supply=20)
    assert calls[0] == 20
    assert calls[1] == 1            # retransmission carries one block
    assert r["recovery_frames"] == 1
    assert r["mean_delivered_payload"] == pytest.approx(20 * 29)


def test_seda_cutoff_retransmission_keeps_block_queued(monkeypatch):
    """A recovery round with no budget left: the corrupted block stays queued
    rather than dropping (it never got its retransmission chance)."""
    calls = []

    def force_one(self, sinr, n_blocks, block_bytes):
        calls.append(n_blocks)
        if len(calls) == 1:
            flips = [False] * n_blocks
            flips[3] = True
            return flips
        return [False] * n_blocks

    monkeypatch.setattr(Medium, "block_corruption_draws", force_one)
    r = transfer_benchmark("seda", 1.0, 0.0, frames=1)
    assert len(calls) == 1
    assert r["recovery_frames"] == 1
    assert r["delivered_per_frame"] == calls[0] - 1


def test_transfer_consistency_with_capacity():
    for ber in (1e-4, 1e-3):
        cap = arq_capacity(1.0, ber, REF)
        r = transfer_benchmark("arq", 1.0, ber, frames=150)
        assert r["mean_sent_payload"] == pytest.approx(cap * 29, rel=0.10)
        cap_s = seda_capacity(1.0, ber, REF)
        rs = transfer_benchmark("seda", 1.0, ber, frames=150)
        assert rs["mean_delivered_payload"] == pytest.approx(cap_s * 29, rel=0.10)


@pytest.mark.parametrize("recovery", ["arq", "seda"])
def test_transfer_benchmark_conserves_packets(recovery, monkeypatch):
    """Each frame's fresh supply is counted as generated, and the previous
    frame's leftovers as dropped."""
    sims = []

    class Captured(harness.Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(harness, "Simulation", Captured)
    transfer_benchmark(recovery, 1.0, 1e-3, frames=5)
    result = sims[0]._result()
    assert result["generated_packets"] > result["delivered_packets"] > 0
    assert result["dropped_packets"] > 0
    assert result["conserved"]


def test_finished_session_leaves_a_newer_session_attached():
    sc = Scenario(node_count=3, seed=1, shadowing_sigma=0.0)
    sim = Simulation(sc, [(0.0, 0.0), (4.0, 0.0), (8.0, 0.0)], parents={1: 0, 2: 1})
    seen = []
    old = ArqSession(sim, 1, 0, [(0.0, 1.0)],
                     lambda s: seen.append((s, [n.active_session for n in sim.nodes])))
    assert [n.active_session for n in sim.nodes] == [old, old, None]
    new = ArqSession(sim, 2, 1, [(0.0, 1.0)], seen.append)
    old.start()   # node 1 has nothing queued: the session ends at once
    # only the old session finished, detached before its callback, and only
    # where it was still attached
    assert seen == [(old, [None, new, new])]


def test_arq_counts_no_started_packet_when_its_child_dies_before_the_window():
    """A packet counts as started at its first transmission. Here the only
    window opens at 1 s and the child dies at 0.5 s, so nothing is sent and
    nothing counts; the packet stays queued."""
    sc = Scenario(node_count=2, seed=1, shadowing_sigma=0.0, battery_mah=0.0005,
                  stop_on_first_death=False)
    sim = Simulation(sc, [(0.0, 0.0), (4.0, 0.0)], parents={1: 0})
    sim.inject(1, sc.payload_bytes)
    sim.wake(1)
    finished = []
    session = ArqSession(sim, 1, 0, [(1.0, 2.0)], finished.append)
    session.start()
    sim.engine.run_until(0.5)
    sim.nodes[1].flush_energy()   # 0.5 s of listening empties the battery
    assert not sim.nodes[1].alive
    sim.engine.run_until(3.0)
    assert finished == [session]
    assert session.result.started_packets == 0
    assert len(sim.nodes[1].queue) == 1


def test_an_arq_session_between_packets_ignores_an_overheard_frame(monkeypatch):
    """With a turnaround, a session holds no packet between an ACK and its
    next packet, and its nodes still decode their neighbours' frames. In this
    run child 3 hears ACKs of another pair in such gaps; each changes nothing
    in the session and sends nothing, since `on_packet` reads the current
    packet only for a DATA from the child or an ACK from the parent."""
    on_packet = ArqSession.on_packet
    transmit = Medium.transmit
    sent, idle = [], []

    def watched_transmit(medium, sender, packet, on_resolved=None):
        sent.append(sender)
        return transmit(medium, sender, packet, on_resolved)

    def watched(session, node, pkt, sinr):
        def state():
            r = session.result
            return (session.current, len(sent), session.attempts, session.got_through,
                    r.started_packets, r.delivered_packets)

        before = state()
        on_packet(session, node, pkt, sinr)
        if before[0] is None:
            idle.append((node, pkt.kind))
            assert state() == before

    monkeypatch.setattr(Medium, "transmit", watched_transmit)
    monkeypatch.setattr(ArqSession, "on_packet", watched)
    sc = desk_preset(seed=3, recovery="arq", turnaround_s=0.01, sampling_interval_s=0.5,
                     horizon_s=60.0)
    res = Simulation(sc).run()
    assert idle
    assert res["conserved"]


def test_arq_reconciles_when_a_node_dies_mid_session():
    """A child that dies at its data frame's last bit, after its parent
    decoded the frame, must not keep the delivered packet queued."""
    sc = desk_preset(node_count=8, area=(20.0, 20.0), recovery="arq",
                     sampling_interval_s=0.1, frame_s=100.0, horizon_s=200.5, seed=1)
    res = Simulation(sc).run()
    assert not res["lifetime_censored"]
    assert res["conserved"]


def test_seda_session_ends_when_a_node_dies(monkeypatch):
    """A Seda session whose child or parent is dead when its next burst is
    due finishes there: no timer pending, neither node still holding it, and
    the run still conserves packets."""
    sc = desk_preset(recovery="seda", seed=1, node_count=10, area=(20.0, 20.0),
                     sampling_interval_s=0.2, frame_s=10.0, battery_mah=0.02,
                     horizon_s=300.0)
    sim = Simulation(sc)
    next_burst = SedaSession._next_burst
    init = SedaSession.__init__
    ended, finished = [], []

    def recording(session, sim, child, parent, windows, on_done, **kwargs):
        def done(s):
            finished.append(s)
            on_done(s)
        init(session, sim, child, parent, windows, done, **kwargs)

    def watched(session):
        nodes = session.sim.nodes
        dead = not (nodes[session.child].alive and nodes[session.parent].alive)
        next_burst(session)
        if dead:
            ended.append(session)

    monkeypatch.setattr(SedaSession, "_next_burst", watched)
    monkeypatch.setattr(SedaSession, "__init__", recording)
    res = sim.run()
    # two sessions take this exit: children 6 and 4, at 11.669 s and 12.434 s
    assert ended
    for session in ended:
        assert finished.count(session) == 1
        assert session._timeout_ev is None or session._timeout_ev.cancelled
        assert all(sim.nodes[nid].active_session is not session
                   for nid in (session.child, session.parent))
    assert res["conserved"]


# -- Seda bursts by queue position ---------------------------------------------------

def test_a_seda_burst_is_its_childs_queue_head(monkeypatch):
    """What naming blocks by position rests on: at every resolution the
    child's queue head holds the burst's packets, the same objects in the
    same order, their uids are distinct, and the queue changes once exactly
    when something leaves it. The seeds reach every way a burst ends, with
    nodes dying along the way."""
    resolve = SedaSession._resolve_burst
    got_frame = SedaSession._parent_got_frame
    ends = Counter()

    def checked_frame(session, pkt, sinr):
        # a frame reaches its burst, never a later one
        assert session.phase in ("data", "retrans")
        assert max(pkt.blocks) < len(session.burst)
        got_frame(session, pkt, sinr)

    def checked(session):
        burst, queue, ledger = session.burst, session._queue(), session.sim.ledger
        n = len(burst)
        assert len(queue) >= n and all(a is b for a, b in zip(queue, burst))
        assert len({uid for uid, *_ in burst}) == n
        changes = []
        queue_changed = ledger.queue_changed
        ledger.queue_changed = lambda *args: (changes.append(args), queue_changed(*args))
        before, dropped = len(queue), ledger.dropped_packets
        try:
            resolve(session)
        finally:
            del ledger.queue_changed
        left = before - len(queue)
        assert len(changes) == (left > 0)
        ends["whole" if left == n else "kept" if left else "none"] += 1
        ends["dropped"] += ledger.dropped_packets - dropped
        ends["retried"] += any(session.retried)
        ends["every block retried"] += all(session.retried)

    monkeypatch.setattr(SedaSession, "_resolve_burst", checked)
    monkeypatch.setattr(SedaSession, "_parent_got_frame", checked_frame)
    for seed in (3, 10, 22, 23):
        sc = desk_preset(seed=seed, recovery="seda", battery_mah=0.05,
                         sampling_interval_s=0.5, stop_on_first_death=False)
        res = Simulation(sc).run()
        assert not res["lifetime_censored"]
        assert res["conserved"]
    assert all(ends[key] for key in ("whole", "kept", "none", "dropped", "retried",
                                     "every block retried"))


def _seda_link(supply):
    """A clean two-node link with `supply` packets queued at child 1 and a
    Seda session over one 1 s window, not yet started. Returns the run, the
    session, the queued packets and, per `deliver_to` call, the uids it
    hands the parent."""
    sc = Scenario(node_count=2, seed=1, shadowing_sigma=0.0, stop_on_first_death=False)
    sim = Simulation(sc, [(0.0, 0.0), (5.0, 0.0)], parents={1: 0})
    for _ in range(supply):
        sim.inject(1, sc.payload_bytes)
    packets = list(sim.nodes[1].queue)
    deliveries = []
    deliver_to = sim.deliver_to
    sim.deliver_to = lambda nid, pkts: (deliveries.append([uid for uid, *_ in pkts]),
                                        deliver_to(nid, pkts))
    sim.wake(0)
    sim.wake(1)
    session = SedaSession(sim, 1, 0, [(0.0, 1.0)], lambda s: None)
    return sim, session, packets, deliveries


def forced_draws(monkeypatch, *corrupt):
    """Per block frame in turn, the positions in its frame that arrive
    corrupt; later frames arrive clean. Returns the block count per frame."""
    sizes = []

    def draws(medium, sinr, n_blocks, block_bytes):
        bad = corrupt[len(sizes)] if len(sizes) < len(corrupt) else ()
        sizes.append(n_blocks)
        return [i in bad for i in range(n_blocks)]

    monkeypatch.setattr(Medium, "block_corruption_draws", draws)
    return sizes


def test_a_corrupt_recovery_frame_resends_the_whole_burst(monkeypatch):
    """The child hears the recovery report as garbage and resends all six
    blocks. Blocks the first frame delivered are not delivered again, the
    block corrupt in both frames drops, and the whole burst leaves."""
    sizes = forced_draws(monkeypatch, (1, 3), (0, 3))
    on_packet = SedaSession.on_packet

    def garbled_report(session, node, pkt, sinr):
        if node == session.child and pkt.kind is PacketKind.RECOVERY_FRAME:
            tx = types.SimpleNamespace(sender=session.parent, packet=pkt)
            session.on_corrupt(node, tx)
        else:
            on_packet(session, node, pkt, sinr)

    monkeypatch.setattr(SedaSession, "on_packet", garbled_report)
    sim, session, pk, deliveries = _seda_link(6)
    session.start()
    sim.engine.run_until(1.5)
    assert sizes == [6, 6]
    uids = [uid for uid, *_ in pk]
    assert deliveries == [[uids[0], uids[2], uids[4], uids[5]], [uids[1]]]
    assert session.result.recovery_frames == 1
    assert session.result.delivered_packets == 5
    assert sim.ledger.dropped_packets == 1
    assert sim.nodes[1].queue == []
    assert sim._result()["conserved"]


def test_blocks_without_room_for_their_retransmission_stay_at_the_queue_head(monkeypatch):
    """A burst that fills its window leaves no room to resend its two corrupt,
    non-adjacent blocks: they stay at the queue head in queue order, ahead of
    the packets the burst did not carry, with one queue-length change."""
    forced_draws(monkeypatch, (2, 5))
    sim, session, pk, deliveries = _seda_link(100)
    resolve = SedaSession._resolve_burst
    seen = []

    def watched(s):
        changes = []
        queue_changed = sim.ledger.queue_changed
        sim.ledger.queue_changed = lambda *args: (changes.append(args), queue_changed(*args))
        resolve(s)
        del sim.ledger.queue_changed
        seen.append((list(s._queue()), changes))

    plan = []
    next_burst = SedaSession._next_burst

    def planned(s):
        next_burst(s)
        if s.phase == "data":
            plan.append(len(s.burst))

    monkeypatch.setattr(SedaSession, "_resolve_burst", watched)
    monkeypatch.setattr(SedaSession, "_next_burst", planned)
    session.start()
    sim.engine.run_until(1.5)
    (n,) = plan
    assert 5 < n < len(pk)
    assert len(seen) == 1
    queue, changes = seen[0]
    assert all(a is b for a, b in zip(queue, [pk[2], pk[5]] + pk[n:]))
    assert len(queue) == len(pk) - n + 2
    assert [args[:2] for args in changes] == [(1, len(queue))]
    assert sum(deliveries, []) == [p[0] for i, p in enumerate(pk[:n]) if i not in (2, 5)]
    assert sim.ledger.dropped_packets == 0
