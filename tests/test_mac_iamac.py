import math
from collections import Counter

import numpy as np
import pytest

from iamac_sim.config import Scenario, desk_preset
from iamac_sim.fixtures import build_fig6, FIG6_B, FIG6_C, FIG6_E
from iamac_sim.mac_iamac import IamacDriver
from iamac_sim.medium import Medium
from iamac_sim.packets import PacketKind
from iamac_sim.recovery import rts_success_prob
from iamac_sim.simulation import Simulation


def transmissions(sim):
    """(sender, t_start, t_end) of every data frame of a traced run."""
    return [(sender, t0, t1) for sender, _, t0, t1, _, _ in sim.data_log]


def receptions(sim):
    """(addressee, sender, frame) of every data frame its addressee resolved."""
    return [(dst, sender, f) for sender, dst, _, _, f, cs in sim.data_log
            if cs is not None]


def _detail_run(**overrides):
    base = dict(horizon_s=40.0, sampling_interval_s=5.0,
                stop_on_first_death=False, seed=4)
    base.update(overrides)
    sc = desk_preset(**base)
    sim = Simulation(sc, trace=True)
    res = sim.run()
    return sim, res


def test_no_interference_when_control_packets_never_corrupt():
    sim, res = _detail_run(control_corruption_disabled=True, horizon_s=60.0)
    assert res["status"] == "ok"
    assert res["cs_max_sum"] == 0


def test_role_exclusivity_per_frame():
    sim, res = _detail_run()
    frame = sim.scenario.frame_s
    tx_frames = {}
    for sender, t0, t1 in transmissions(sim):
        tx_frames.setdefault(int(t0 // frame), set()).add(sender)
    rx_frames = {}
    for listener, wanted, f in receptions(sim):
        rx_frames.setdefault(f, set()).add(listener)
    for f, senders in tx_frames.items():
        assert not senders & rx_frames.get(f, set())


def test_data_moves_only_child_to_parent():
    sim, res = _detail_run()
    assert receptions(sim)
    for listener, wanted, f in receptions(sim):
        assert sim.parents[wanted] == listener


def test_deactivated_node_is_silent_for_the_frame():
    sim, res = _detail_run()
    frame = sim.scenario.frame_s
    deact = {}
    for t, node, label, _ in sim.trace_log:
        if label == "deactivated":
            deact.setdefault(int(t // frame), {})[node] = t
    for t, node, label, _ in sim.trace_log:
        if label in ("rts-tx", "cts-train"):
            f = int(t // frame)
            if node in deact.get(f, {}):
                assert t <= deact[f][node] + 1e-12
    for sender, t0, t1 in transmissions(sim):
        f = int(t0 // frame)
        if sender in deact.get(f, {}):
            assert t0 <= deact[f][sender] + 1e-12


def test_same_parent_transfers_never_overlap():
    sim, res = _detail_run(sampling_interval_s=2.0)
    by_parent = {}
    for sender, t0, t1 in transmissions(sim):
        parent = sim.parents[sender]
        by_parent.setdefault(parent, []).append((t0, t1))
    for spans in by_parent.values():
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert b0 >= a1 - 1e-9


def test_mac_state_resets_each_frame():
    """A deactivated or refused node participates again the next frame."""
    sim = build_fig6()
    # widen the horizon so the frame after the replay also runs
    sim.scenario.horizon_s = 2.5
    res = sim.run()
    # A was deactivated in frame 0 but must deliver in frame 1
    assert res["frames"] == 2
    assert res["delivered_packets"] >= 2
    assert res["conserved"]


def test_contention_slot_uniformity():
    sc = desk_preset(seed=9)
    sim = Simulation(sc)
    sim.bootstrap_routing()
    driver = IamacDriver(sim)
    w = driver.plan.w
    counts = np.zeros(w, dtype=int)
    st = driver.states[1]
    for _ in range(10_000):
        driver._pick_contention(1, min_slot=0)
        counts[round((st.window_start - driver.plan.rts_start(driver.cycle_start)) / driver.plan.mini_slot)] += 1
        if st.pending_ev is not None:
            driver.engine.cancel(st.pending_ev)
    expect = 10_000 / w
    sigma = (10_000 * (1 / w) * (1 - 1 / w)) ** 0.5
    assert all(abs(c - expect) < 4 * sigma for c in counts)


def test_repick_draws_only_from_later_slots():
    sc = desk_preset(seed=9)
    sim = Simulation(sc)
    sim.bootstrap_routing()
    driver = IamacDriver(sim)
    st = driver.states[2]
    for _ in range(300):
        driver._pick_contention(2, min_slot=4)
        assert round((st.window_start - driver.plan.rts_start(driver.cycle_start)) / driver.plan.mini_slot) >= 4
        if st.pending_ev is not None:
            driver.engine.cancel(st.pending_ev)


def test_repick_with_no_remaining_slots_defers_to_next_frame():
    sc = desk_preset(seed=9)
    sim = Simulation(sc)
    sim.bootstrap_routing()
    driver = IamacDriver(sim)
    st = driver.states[3]
    driver._pick_contention(3, min_slot=driver.plan.w)
    assert st.pending_ev is None and not st.awaiting


def test_singleton_remaining_slot_is_forced():
    sc = desk_preset(seed=9)
    sim = Simulation(sc)
    sim.bootstrap_routing()
    driver = IamacDriver(sim)
    st = driver.states[5]
    last = driver.plan.w - 1
    for _ in range(20):
        driver._pick_contention(5, min_slot=last)
        assert round((st.window_start - driver.plan.rts_start(driver.cycle_start)) / driver.plan.mini_slot) == last
        if st.pending_ev is not None:
            driver.engine.cancel(st.pending_ev)


def test_uncontended_single_hop_delivers_within_its_frame():
    from iamac_sim.config import Scenario

    sc = Scenario(node_count=2, area=(10.0, 5.0), frame_s=1.0,
                  sampling_interval_s=1000.0, horizon_s=1.5,
                  shadowing_sigma=0.0, stop_on_first_death=False,
                  seed=1).validate()
    sim = Simulation(sc, [(0.0, 0.0), (4.0, 0.0)], parents={1: 0})
    sim.inject(1, 29)
    res = sim.run()
    assert res["delivered_packets"] == 1
    assert res["mean_latency_s"] < sc.frame_s


def test_multi_cts_grants_are_consecutive_and_both_served():
    sim = build_fig6()
    res = sim.run()
    grants = [d for _, n, l, d in sim.trace_log if l == "cts-train" and n == FIG6_C]
    assert grants and f"{FIG6_E}" in grants[0] and f"{FIG6_B}" in grants[0]
    # both granted children delivered within the frame
    assert res["delivered_packets"] == 2
    # transfers run in grant order (E queued first) and never overlap
    spans = {}
    for sender, t0, t1 in transmissions(sim):
        spans.setdefault(sender, []).append((t0, t1))
    assert max(t1 for _, t1 in spans[FIG6_E]) <= min(t0 for t0, _ in spans[FIG6_B])


def test_block_recovery_in_network_conserves_and_delivers():
    sim, res = _detail_run(recovery="seda", horizon_s=60.0, sampling_interval_s=5.0)
    assert res["status"] == "ok"
    assert res["conserved"]
    assert res["delivered_packets"] > 0


def test_delivery_times_fall_inside_comm_windows():
    sim, res = _detail_run()
    frame = sim.scenario.frame_s
    active = (sim.scenario.synch_slot_s + sim.scenario.w * sim.scenario.mini_slot_s
              + sim.scenario.cts_slot_s)
    for origin, born, delivered, payload in sim.ledger.delivered_records:
        offset = delivered % frame
        assert offset >= active - 1e-9


def star_rts_per_frame(n, radius, seed, horizon_s):
    """Per frame, the RTSs the n children of a placed IAMAC star sent and the
    RTSs its parent decoded: saturated children at `radius` m on a circle
    around the parent, 8 dBm, no shadowing, w = 8."""
    sc = desk_preset(node_count=n + 1, seed=seed, shadowing_sigma=0.0,
                     sampling_interval_s=0.05, horizon_s=horizon_s, battery_mah=2400.0,
                     stop_on_first_death=False)
    assert (sc.protocol, sc.w, sc.output_power_dbm) == ("iamac", 8, 8.0)
    positions = [(0.0, 0.0)] + [(radius * math.cos(2.0 * math.pi * k / n),
                                 radius * math.sin(2.0 * math.pi * k / n))
                                for k in range(n)]
    sim = Simulation(sc, positions, parents={k: 0 for k in range(1, n + 1)})
    sent, decoded = Counter(), Counter()
    transmit, on_packet = sim.medium.transmit, sim.nodes[0].on_packet

    def counting_transmit(sender, packet, on_resolved=None):
        if packet.kind is PacketKind.RTS:
            sent[sim.frame_idx] += 1
        return transmit(sender, packet, on_resolved)

    def counting_on_packet(pkt, sinr):
        if pkt.kind is PacketKind.RTS:
            decoded[sim.frame_idx] += 1
        on_packet(pkt, sinr)

    sim.medium.transmit = counting_transmit
    sim.nodes[0].on_packet = counting_on_packet
    sim.run()
    return sim, sent, decoded


@pytest.mark.parametrize("n", [2, 3])
def test_hidden_contention_follows_the_distinct_slot_form(n):
    """Children hidden from each other collide only on the same mini slot:
    the frame plan's slots are longer than the largest backoff plus an RTS.
    So where all n sent, all n RTSs get through with the distinct-slot
    probability; at n = 3 the printed form is half of it."""
    full = all_decoded = 0
    for seed in (1, 2, 3):
        sim, sent, decoded = star_rts_per_frame(n, 14.5, seed, horizon_s=150.0)
        children = range(1, n + 1)
        assert all(set(sim.topo.sense_out[c]).isdisjoint(children) for c in children)
        full += sum(1 for k in sent.values() if k == n)
        all_decoded += sum(1 for f, k in sent.items() if k == n and decoded[f] == n)
    assert full > 300
    share = all_decoded / full
    p = rts_success_prob(n, 8, "distinct-slot")
    assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / full)
    if n == 3:
        p = rts_success_prob(n, 8, "paper")
        assert abs(share - p) > 4.0 * math.sqrt(p * (1.0 - p) / full)


def test_sensing_children_get_every_rts_through():
    """Children in each other's sense range defer to the first RTS they hear,
    so the parent decodes every RTS sent."""
    sim, sent, decoded = star_rts_per_frame(3, 9.0, seed=1, horizon_s=150.0)
    children = range(1, 4)
    assert all(set(children) - {c} <= set(sim.topo.sense_out[c]) for c in children)
    assert sum(sent.values()) > 150
    assert decoded == sent


def test_an_rts_attempt_of_a_node_that_died_after_its_pick_sends_nothing(monkeypatch):
    """`_rts_attempt`'s dead-node return: a death does not cancel a pending
    attempt. Node 1's injected backoff puts its attempt 5 s after its mini
    slot, and its 0.0005 mAh battery empties within the first frame; the
    attempt finds it dead and nothing is sent."""
    rts_attempt = IamacDriver._rts_attempt
    transmit = Medium.transmit
    attempts, senders = [], []

    def watched_attempt(driver, nid):
        attempts.append((nid, driver.sim.nodes[nid].alive))
        rts_attempt(driver, nid)

    def watched_transmit(medium, sender, packet, on_resolved=None):
        senders.append((sender, medium.nodes[sender].alive))
        return transmit(medium, sender, packet, on_resolved)

    monkeypatch.setattr(IamacDriver, "_rts_attempt", watched_attempt)
    monkeypatch.setattr(Medium, "transmit", watched_transmit)
    sc = Scenario(node_count=2, area=(10.0, 5.0), frame_s=1.0, sampling_interval_s=1000.0,
                  horizon_s=8.0, shadowing_sigma=0.0, stop_on_first_death=False,
                  battery_mah=0.0005, seed=2).validate()
    sim = Simulation(sc, [(0.0, 0.0), (6.0, 0.0)], parents={1: 0},
                     fixed_contention={1: [(0, 5.0)]})
    sim.inject(1, 29)
    res = sim.run()
    assert res["lifetime_s"] < 1.0
    assert attempts == [(1, False)]
    assert senders == []
    assert res["conserved"] and res["queued_packets"] == 1
