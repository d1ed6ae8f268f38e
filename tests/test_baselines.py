import pytest

from iamac_sim.config import Scenario, desk_preset
from iamac_sim.packets import make_data_packet
from iamac_sim.routing import preset_tree
from iamac_sim.simulation import Simulation
from iamac_sim.topology import fixed_topology

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
    topo = fixed_topology(positions, sink=0, model=sc.link_model(),
                          tx_power_dbm=sc.output_power_dbm)
    states = preset_tree(topo, {k: k - 1 for k in range(1, n)})
    return Simulation(sc, topology=topo, route_states=states)


def test_plain_smac_one_hop_per_frame_bound():
    sim = chain_sim("smac")
    sim.enqueue(3, make_data_packet(3, 3, 2, 0.0, 29))
    sim.ledger.generated_packets += 1
    res = sim.run()
    assert res["delivered_packets"] == 1
    _, born, delivered, _ = sim.ledger.delivered_records[0]
    # three hops cannot complete before the third frame
    assert delivered >= 2.0 * sim.scenario.frame_s


def test_adaptive_smac_forwards_across_hops_in_one_frame():
    plain = chain_sim("smac")
    plain.enqueue(3, make_data_packet(3, 3, 2, 0.0, 29))
    plain.ledger.generated_packets += 1
    r_plain = plain.run()

    adaptive = chain_sim("adaptive-smac")
    adaptive.enqueue(3, make_data_packet(3, 3, 2, 0.0, 29))
    adaptive.ledger.generated_packets += 1
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
        sim.enqueue(1, make_data_packet(1, 1, 0, 0.0, 29))
    sim.ledger.generated_packets += 4
    res = sim.run()
    # six frames, one data+ack exchange each: at most 6, exactly queue-limited
    assert res["delivered_packets"] == 4
    times = sorted(d for _, _, d, _ in sim.ledger.delivered_records)
    frames = [int(t // sim.scenario.frame_s) for t in times]
    assert len(set(frames)) == 4  # one per frame, never two


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
