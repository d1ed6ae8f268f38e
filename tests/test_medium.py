"""On-air registry behavior: carrier sensing, reception lifecycle and the
worst-case-SINR bookkeeping."""

import math

import pytest

from iamac_sim.config import Scenario, desk_preset, paper_preset
from iamac_sim.energy import RadioState
from iamac_sim.mac_iamac import IamacDriver
from iamac_sim.medium import Medium
from iamac_sim.packets import Packet, PacketKind
from iamac_sim.recovery import _SessionBase
from iamac_sim.simulation import Simulation


def rig(positions, tx_power=0.0):
    """A MAC-less simulation whose nodes all listen: medium tests drive
    transmissions by hand."""
    sc = Scenario(node_count=len(positions), seed=1, shadowing_sigma=0.0,
                  output_power_dbm=tx_power)
    sim = Simulation(sc, positions)
    for node in sim.nodes:
        node.state = RadioState.LISTEN
    return sim


def test_placed_run_has_one_link_model_and_the_scenario_power():
    sim = rig([(0.0, 0.0), (3.0, 0.0)], tx_power=-7.0)
    assert sim.topo.model is sim.model
    assert sim.topo.rx_dbm[1, 0] == pytest.approx(-7.0 - sim.model.path_loss(3.0))


def control(src, dst):
    return Packet(kind=PacketKind.RTS, src=src, dst=dst, length=18, header=16)


def test_idle_channel_senses_idle():
    sim = rig([(0.0, 0.0), (5.0, 0.0)])
    assert not sim.medium.carrier_busy(0)


def test_neighbor_at_one_meter_senses_busy():
    sim = rig([(0.0, 0.0), (1.0, 0.0)])
    sim.medium.transmit(1, control(1, 0))
    # received power is -55 dBm, far above the -102 dBm busy threshold
    assert sim.medium.carrier_busy(0)


def test_far_transmitter_senses_idle():
    # beyond the threshold distance 10^((0 + 102 - 55) / 40) ~ 14.96 m
    sim = rig([(0.0, 0.0), (16.0, 0.0)])
    sim.medium.transmit(1, control(1, 0))
    assert not sim.medium.carrier_busy(0)


def test_channel_clears_when_transmission_ends():
    sim = rig([(0.0, 0.0), (3.0, 0.0)])
    end = sim.medium.transmit(1, control(1, 0))
    sim.engine.run_until(end + 1e-9)
    assert not sim.medium.carrier_busy(0)


def test_clean_reception_delivers_packet():
    sim = rig([(0.0, 0.0), (3.0, 0.0)])
    got = []
    sim.nodes[0].on_packet = lambda pkt, sinr: got.append((pkt.src, sinr))
    end = sim.medium.transmit(1, control(1, 0))
    sim.engine.run_until(end + 1e-9)
    assert got and got[0][0] == 1
    # the medium hands on a linear SINR
    assert 10.0 * math.log10(got[0][1]) == pytest.approx(0.0 - (55.0 + 40.0 * 0.477) + 105.0,
                                                         abs=0.1)


def test_sleeping_listener_misses_the_packet():
    sim = rig([(0.0, 0.0), (3.0, 0.0)])
    sim.nodes[0].state = RadioState.SLEEP
    got = []
    sim.nodes[0].on_packet = lambda pkt, sinr: got.append(pkt)
    end = sim.medium.transmit(1, control(1, 0))
    sim.engine.run_until(end + 1e-9)
    assert not got


def test_reception_aborts_if_listener_stops_listening():
    sim = rig([(0.0, 0.0), (3.0, 0.0)])
    got, corrupt = [], []
    sim.nodes[0].on_packet = lambda pkt, sinr: got.append(pkt)
    sim.nodes[0].on_air_resolved_corrupt = lambda tx: corrupt.append(tx)
    end = sim.medium.transmit(1, control(1, 0))
    # the listener dozes off mid-packet and wakes before the end
    sim.engine.schedule(end * 0.5, lambda ev: sim.medium.abort_receptions(0))
    sim.engine.run_until(end + 1e-9)
    assert not got
    assert corrupt


def test_interferer_degrades_min_sinr():
    sim = rig([(0.0, 0.0), (3.0, 0.0), (4.0, 0.5)])
    sinrs = []
    sim.nodes[0].on_packet = lambda pkt, sinr: sinrs.append(sinr)
    # a Seda block frame is handed on whatever its SINR, so the value shows
    # even when interference would lose a whole frame
    data = Packet(kind=PacketKind.SEDA_BLOCK, src=1, dst=0, length=29, header=16)
    end = sim.medium.transmit(1, data)

    def interfere(ev):
        sim.medium.transmit(2, control(2, 0))

    sim.engine.schedule(end * 0.6, interfere)
    sim.engine.run_until(end + 1.0)
    # the wanted frame resolves at its worst-case ratio, not at clean SNR
    clean = sim.medium.topo.rx_dbm[1, 0] - sim.medium.model.noise_floor
    assert 10.0 * math.log10(sinrs[0]) < clean - 3.0


def test_colliding_set_tracks_concurrent_data_senders():
    sim = rig([(0.0, 0.0), (3.0, 0.0), (4.0, 0.5)])
    seen = []
    sim.medium.on_data_resolved = (
        lambda tx, interferers: seen.append((tx.packet.dst, tx.sender, set(interferers))))
    data = Packet(kind=PacketKind.DATA, src=1, dst=0, length=29, header=16,
                  payload_len=29)
    other = Packet(kind=PacketKind.DATA, src=2, dst=0, length=29, header=16,
                   payload_len=29)
    end = sim.medium.transmit(1, data)
    sim.engine.schedule(end * 0.5, lambda ev: sim.medium.transmit(2, other))
    sim.engine.run_until(end + 1.0)
    wanted_1 = next(i for l, w, i in seen if l == 0 and w == 1)
    assert 2 in wanted_1                 # the overlapping sender is recorded
    wanted_2 = next(i for l, w, i in seen if l == 0 and w == 2)
    assert 1 in wanted_2                 # and symmetrically for the later frame


# -- who hears the end of a frame -------------------------------------------------


def heard_by(sim, nid):
    """Record every end-of-frame callback that reaches node `nid`, as
    ("packet" | "corrupt", sender)."""
    heard = []
    node = sim.nodes[nid]
    node.on_packet = lambda pkt, sinr: heard.append(("packet", pkt.src))
    node.on_air_resolved_corrupt = lambda tx: heard.append(("corrupt", tx.sender))
    return heard


def data(src, dst):
    return Packet(kind=PacketKind.DATA, src=src, dst=dst, length=29, header=16,
                  payload_len=29)


def test_listener_asleep_at_the_last_bit_hears_nothing():
    sim = rig([(0.0, 0.0), (3.0, 0.0)])
    heard = heard_by(sim, 0)
    end = sim.medium.transmit(1, control(1, 0))
    # listening at the first bit, asleep from mid-frame through the last
    sim.engine.schedule(end * 0.5, lambda ev: sim.nodes[0].set_radio(RadioState.SLEEP))
    sim.engine.run_until(end + 1e-9)
    assert heard == []


def test_listener_transmitting_at_the_last_bit_hears_nothing():
    sim = rig([(0.0, 0.0), (3.0, 0.0)])
    heard = heard_by(sim, 0)
    end = sim.medium.transmit(1, control(1, 0))
    # node 0 starts a longer frame of its own before node 1's frame ends
    sim.engine.schedule(end * 0.5, lambda ev: sim.medium.transmit(0, data(0, 1)))
    sim.engine.run_until(end + 1e-9)
    assert sim.nodes[0].state is RadioState.TX
    assert heard == []


def test_listener_waking_mid_frame_hears_it_as_corrupt():
    sim = rig([(0.0, 0.0), (3.0, 0.0)])
    sim.nodes[0].state = RadioState.SLEEP
    heard = heard_by(sim, 0)
    end = sim.medium.transmit(1, control(1, 0))
    # no reception opened at the first bit, listening at the last
    sim.engine.schedule(end * 0.5, lambda ev: sim.wake(0))
    sim.engine.run_until(end + 1e-9)
    assert heard == [("corrupt", 1)]


def test_data_reception_is_reported_for_the_addressee_only():
    # every node hears every other; 1 -> 0 and 2 -> 3 overlap in time
    sim = rig([(0.0, 0.0), (3.0, 0.0), (4.0, 0.5), (1.0, 1.0)])
    seen = []
    sim.medium.on_data_resolved = (
        lambda tx, interferers: seen.append((tx.packet.dst, tx.sender, set(interferers))))
    end = sim.medium.transmit(1, data(1, 0))
    sim.engine.schedule(end * 0.5, lambda ev: sim.medium.transmit(2, data(2, 3)))
    sim.engine.run_until(end + 1.0)
    assert sorted(seen) == [(0, 1, {2}), (3, 2, {1})]


def test_data_frame_its_addressee_missed_is_reported_once_without_a_reception():
    sim = rig([(0.0, 0.0), (3.0, 0.0), (4.0, 0.5)])
    sim.nodes[0].state = RadioState.SLEEP
    seen = []
    sim.medium.on_data_resolved = (
        lambda tx, interferers: seen.append((tx.sender, tx.packet.dst, interferers)))
    end = sim.medium.transmit(1, data(1, 0))
    sim.engine.run_until(end + 1.0)
    # node 2 listens too, but only the addressee's side is reported
    assert seen == [(1, 0, None)]


# -- per-sender tables and the on-air power sum ---------------------------------


def test_sender_tables_match_the_topology_loop():
    """Each sender's listener ids and received powers are the topology's
    influence and sense sets with `rx_mw`, as plain ints and floats in order."""
    sim = Simulation(paper_preset(seed=1))
    topo, medium = sim.topo, sim.medium
    for table, listeners in ((medium.influence_out, topo.influence_out),
                             (medium.sense_out, topo.sense_out)):
        for i in range(topo.n):
            pairs = list(zip(*table[i]))
            assert pairs == [(int(j), float(topo.rx_mw[i, j])) for j in listeners[i]]
            assert all(type(j) is int and type(p) is float for j, p in pairs)


@pytest.mark.parametrize("protocol, recovery", [("iamac", "seda"), ("adaptive-smac", "arq")])
def test_onair_power_is_the_sum_over_live_transmissions(protocol, recovery, monkeypatch):
    """After every transmit and every end of transmission, the incremental
    `onair_mw` at each node equals the exact sum of the received power of the
    transmissions still on the air."""
    sc = desk_preset(seed=4, protocol=protocol, recovery=recovery, horizon_s=60.0,
                     stop_on_first_death=False)
    sim = Simulation(sc)
    topo = sim.topo
    power = [{int(j): float(topo.rx_mw[i, j]) for j in row}
             for i, row in enumerate(topo.influence_out)]
    live = []                     # the sender of every transmission on the air
    most_live = 0
    transmit, end_transmission = Medium.transmit, Medium._end_transmission

    def check(medium):
        nonlocal most_live
        most_live = max(most_live, len(live))
        for j in range(topo.n):
            exact = math.fsum(power[s].get(j, 0.0) for s in live)
            assert math.isclose(medium.onair_mw[j], exact, rel_tol=1e-9, abs_tol=1e-21)

    def checked_transmit(medium, sender, packet, on_resolved=None):
        t_end = transmit(medium, sender, packet, on_resolved)
        live.append(sender)
        check(medium)
        return t_end

    def checked_end(medium, tx):
        # the power leaves the air before any reception callback runs
        live.remove(tx.sender)
        end_transmission(medium, tx)
        check(medium)

    monkeypatch.setattr(Medium, "transmit", checked_transmit)
    monkeypatch.setattr(Medium, "_end_transmission", checked_end)
    assert sim.run()["status"] == "ok"
    assert most_live >= 2


# -- the conditions the transfer path rests on ---------------------------------------


@pytest.mark.parametrize("protocol, recovery, overrides", [
    ("iamac", "arq", {}),
    ("iamac", "seda", {}),
    ("smac", "arq", {}),
    ("adaptive-smac", "arq", {}),
    ("iamac", "seda", {"frame_s": 20.0, "horizon_s": 200.0}),
    ("iamac", "seda", {"battery_mah": 0.05}),
])
def test_transfer_path_preconditions_hold(protocol, recovery, overrides, monkeypatch):
    """The states the MACs, the sessions and the node radio no longer guard
    against never occur: no node starts a transmission while its own is on
    the air, no session outlives its frame or finishes with a timer pending,
    and no IAMAC handler sees a deactivated node."""
    sc = desk_preset(seed=4, protocol=protocol, recovery=recovery,
                     stop_on_first_death=False, **{"horizon_s": 60.0, **overrides})
    sim = Simulation(sc)
    calls = {"transmit": 0, "frames": 0, "finished": 0, "iamac": 0}
    transmit, frame_begin = Medium.transmit, Simulation._frame_begin
    finish = _SessionBase._finish
    on_packet, on_corrupt = IamacDriver.on_packet, IamacDriver.on_corrupt

    def checked_transmit(medium, sender, packet, on_resolved=None):
        calls["transmit"] += 1
        assert medium.nodes[sender].state is not RadioState.TX
        return transmit(medium, sender, packet, on_resolved)

    def checked_frame_begin(simulation, event):
        calls["frames"] += 1
        assert all(node.active_session is None for node in simulation.nodes)
        frame_begin(simulation, event)

    def checked_finish(session):
        calls["finished"] += 1
        assert session._timeout_ev is None or session._timeout_ev.cancelled
        finish(session)

    def checked_on_packet(driver, node, pkt, sinr):
        calls["iamac"] += 1
        assert driver.states[node.id].active
        on_packet(driver, node, pkt, sinr)

    def checked_on_corrupt(driver, node, tx):
        calls["iamac"] += 1
        assert driver.states[node.id].active
        on_corrupt(driver, node, tx)

    monkeypatch.setattr(Medium, "transmit", checked_transmit)
    monkeypatch.setattr(Simulation, "_frame_begin", checked_frame_begin)
    monkeypatch.setattr(_SessionBase, "_finish", checked_finish)
    monkeypatch.setattr(IamacDriver, "on_packet", checked_on_packet)
    monkeypatch.setattr(IamacDriver, "on_corrupt", checked_on_corrupt)
    result = sim.run()
    assert result["status"] == "ok" and result["delivered_packets"] > 0
    assert calls["transmit"] > 0 and calls["frames"] > 1
    if protocol == "iamac":
        assert calls["finished"] > 0 and calls["iamac"] > 0
    if "battery_mah" in overrides:
        assert sum(not node.alive for node in sim.nodes) > 40


# -- radio switches and the energy ledger -------------------------------------------


def test_a_switch_that_empties_the_battery_kills_the_sender():
    sc = Scenario(node_count=2, seed=1, shadowing_sigma=0.0, battery_mah=0.01)
    sim = Simulation(sc, [(0.0, 0.0), (3.0, 0.0)])
    ledger, sender = sim.ledger, sim.nodes[1]
    for node in sim.nodes:
        node.state = RadioState.LISTEN
    switch_mj = sim.energy_table.switch_mj
    listen_rate = ledger._listen_rate
    # listen until half a switch's energy is left, with a frame arriving
    t = (sim.energy_table.battery_mj - 0.5 * switch_mj) / listen_rate
    sim.engine.run_until(t)
    sim.medium.transmit(0, control(0, 1))
    sender.flush_energy()
    assert sender.alive and 0.0 < ledger.residual_mj[1] < switch_mj
    assert sim.medium.receptions[1]

    end = sim.medium.transmit(1, control(1, 0))
    assert not sender.alive
    assert ledger.first_death_time == sim.engine.now == t
    assert not sim.medium.receptions[1]
    spent = ledger.spent_mj(1)
    assert ledger.switch_energy[1] == switch_mj
    assert spent + ledger.residual_mj[1] == pytest.approx(sim.energy_table.battery_mj)

    sim.engine.run_until(end + 1.0)
    sender.set_radio(RadioState.SLEEP)
    sender.flush_energy()
    assert ledger.spent_mj(1) == spent
    assert ledger.switch_energy[1] == switch_mj
    assert spent + ledger.residual_mj[1] == pytest.approx(sim.energy_table.battery_mj)


def test_same_state_set_radio_charges_time_and_no_switch():
    sim = rig([(0.0, 0.0), (3.0, 0.0)])
    ledger, node = sim.ledger, sim.nodes[0]
    sim.medium.transmit(1, control(1, 0))
    sim.engine.run_until(2e-3)
    node.set_radio(RadioState.LISTEN)
    assert ledger.state_time[0] == [0.0, 2e-3, 0.0]
    assert ledger.state_energy[0][1] == ledger._listen_rate * 2e-3
    assert ledger.switch_energy[0] == 0.0
    assert ledger.residual_mj[0] == sim.energy_table.battery_mj - ledger._listen_rate * 2e-3
    # still listening: the open reception survives
    assert sim.medium.receptions[0]
    # a switch later charges the time since that call, then one switch
    sim.engine.run_until(5e-3)
    node.set_radio(RadioState.SLEEP)
    assert ledger.state_time[0] == [0.0, 2e-3 + 3e-3, 0.0]
    assert ledger.switch_energy[0] == sim.energy_table.switch_mj
    assert not sim.medium.receptions[0]
