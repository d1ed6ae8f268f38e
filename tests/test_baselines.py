import pytest

from iamac_sim.config import Scenario, desk_preset
from iamac_sim.mac_smac import SmacDriver
from iamac_sim.packets import PacketKind, airtime
from iamac_sim.simulation import Simulation

def chain_sim(protocol, hops=3, frame_s=1.0, horizon_s=12.0, seed=2,
              sampling=1000.0):
    """A->B->C->D line, data flows toward node 0."""
    n = hops + 1
    positions = [(6.0 * k, 0.0) for k in range(n)]
    sc = Scenario(node_count=n, area=(40.0, 5.0), protocol=protocol,
                  frame_s=frame_s, sampling_interval_s=sampling,
                  horizon_s=horizon_s, shadowing_sigma=0.0,
                  stop_on_first_death=False, smac_adaptive_err=0.0,
                  seed=seed).validate()
    return Simulation(sc, positions, parents={k: k - 1 for k in range(1, n)})


def test_injected_packets_are_counted_and_conserved():
    sim = chain_sim("iamac", horizon_s=6.0)
    for origin in (1, 2, 3, 3):
        sim.inject(origin, 29)
    # each packet is addressed to its origin's parent
    assert [(p.origin, p.dst) for n in sim.nodes for p in n.queue] == [
        (1, 0), (2, 1), (3, 2), (3, 2)]
    res = sim.run()
    assert res["generated_packets"] == 4
    assert res["conserved"]


def test_plain_smac_one_hop_per_frame_bound():
    sim = chain_sim("smac")
    sim.inject(3, 29)
    res = sim.run()
    assert res["delivered_packets"] == 1
    _, born, delivered, _ = sim.ledger.delivered_records[0]
    # three hops cannot complete before the third frame
    assert delivered >= 2.0 * sim.scenario.frame_s


def test_adaptive_smac_forwards_across_hops_in_one_frame():
    plain = chain_sim("smac")
    plain.inject(3, 29)
    r_plain = plain.run()

    adaptive = chain_sim("adaptive-smac")
    adaptive.inject(3, 29)
    r_adaptive = adaptive.run()

    assert r_adaptive["delivered_packets"] == 1
    assert r_adaptive["mean_latency_s"] < r_plain["mean_latency_s"]
    # the adaptive packet crossed more than one hop within its first frame
    assert r_adaptive["mean_latency_s"] < 2.0 * adaptive.scenario.frame_s


def test_adaptive_chain_latency_below_plain_under_load():
    r = {}
    for proto in ("smac", "adaptive-smac"):
        sim = chain_sim(proto, horizon_s=40.0, sampling=8.0)
        res = sim.run()
        assert res["delivered_packets"] > 0
        r[proto] = res["mean_latency_s"]
    assert r["adaptive-smac"] < r["smac"]


def test_adaptive_wakeups_cost_energy():
    """Paired seeds: adaptive listening drains at least as much per node."""
    for seed in (3, 4):
        spent = {}
        for proto in ("smac", "adaptive-smac"):
            sc = desk_preset(protocol=proto, horizon_s=30.0, seed=seed,
                             stop_on_first_death=False)
            sim = Simulation(sc)
            sim.run()
            spent[proto] = sum(sim.ledger.spent_mj(i) for i in range(sim.topo.n))
        assert spent["adaptive-smac"] >= spent["smac"]


def test_overhearer_never_transmits_during_nav():
    # the driver asserts this inline; a loaded adaptive run exercises it
    sc = desk_preset(protocol="adaptive-smac", horizon_s=30.0,
                     sampling_interval_s=5.0, seed=5, stop_on_first_death=False)
    res = Simulation(sc).run()
    assert res["conserved"]


def test_smac_exchange_carries_one_packet_per_frame():
    sim = chain_sim("smac", hops=1, horizon_s=6.0)
    for k in range(4):
        sim.inject(1, 29)
    res = sim.run()
    # six frames, one data+ack exchange each: at most 6, exactly queue-limited
    assert res["delivered_packets"] == 4
    times = sorted(d for _, _, d, _ in sim.ledger.delivered_records)
    frames = [int(t // sim.scenario.frame_s) for t in times]
    assert len(set(frames)) == 4  # one per frame, never two


@pytest.mark.parametrize("protocol", ["smac", "adaptive-smac"])
def test_smac_sender_releases_a_delivered_packet_whose_ack_is_lost(protocol, monkeypatch):
    """The sender's packet leaves its queue iff the data arrived: with every
    ACK lost at node 1, its ACK timeout still removes the delivered packet,
    so it is neither sent again nor delivered twice."""
    on_packet = SmacDriver.on_packet

    def deaf_to_acks(self, node, pkt, sinr):
        if not (node.id == 1 and pkt.kind is PacketKind.ACK):
            on_packet(self, node, pkt, sinr)

    monkeypatch.setattr(SmacDriver, "on_packet", deaf_to_acks)
    sim = chain_sim(protocol, hops=1, horizon_s=6.0)
    sim.trace_enabled = True
    sim.inject(1, 29)
    res = sim.run()
    assert (res["delivered_packets"], res["queued_packets"]) == (1, 0)
    assert res["conserved"]
    assert [node for _, node, label, _ in sim.trace_log if label == "smac-rts"] == [1]


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("hops", [1, 2, 3, 4])
def test_one_packet_down_a_clean_line_arrives_when_each_rule_says(hops, seed):
    """Analytic anchor: one packet injected at the far end of a clean line.
    IAMAC moves it one hop per frame, and the last hop ends one data airtime
    into the Sleep/Communication slot; plain S-MAC moves it one hop per frame;
    adaptive S-MAC carries it up to three hops within the first frame."""
    arrival = {}
    for protocol in ("iamac", "smac", "adaptive-smac"):
        sim = chain_sim(protocol, hops=hops, seed=seed)
        sim.inject(hops, 29)
        res = sim.run()
        assert res["delivered_packets"] == 1 and res["conserved"]
        arrival[protocol] = sim.ledger.delivered_records[0][2]
    sc = sim.scenario
    comm_start = sc.synch_slot_s + sc.w * sc.mini_slot_s + sc.cts_slot_s
    expected = ((hops - 1) * sc.frame_s + comm_start
                + airtime(29 + sc.header_bytes, sc.radio_speed))
    # measured to 0 error; the bound is the trace's resolution
    assert arrival["iamac"] == pytest.approx(expected, rel=0, abs=1e-9)
    assert int(arrival["smac"] // sc.frame_s) == hops - 1
    if hops <= 3:
        assert arrival["adaptive-smac"] < sc.frame_s


@pytest.mark.xfail(strict=True, reason="a new frame resets S-MAC node state without "
                   "cancelling the previous frame's wake and backoff timers")
def test_adaptive_smac_sends_no_rts_in_a_synch_slot():
    # every node spends the Synch slot on its beacon; contention starts after it
    sc = desk_preset(protocol="adaptive-smac", seed=4, horizon_s=120.0,
                     stop_on_first_death=False)
    sim = Simulation(sc, trace=True)
    sim.run()
    in_synch = [(t, node) for t, node, label, _ in sim.trace_log
                if label == "smac-rts" and t % sc.frame_s < sc.synch_slot_s - 1e-9]
    assert in_synch == []
