"""On-air registry behavior: carrier sensing, reception lifecycle and the
worst-case-SINR bookkeeping."""

import collections
import math

import pytest

from iamac_sim.config import MAX_FRAME_BYTES, ConfigError, Scenario, desk_preset, paper_preset
from iamac_sim.energy import RadioState
from iamac_sim.mac_iamac import IamacDriver
from iamac_sim.mac_smac import SmacDriver
from iamac_sim.medium import Medium
from iamac_sim.packets import Packet, PacketKind
from iamac_sim.recovery import ArqSession, SedaSession, _SessionBase
from iamac_sim.simulation import Node, Simulation


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
    return Packet(kind=PacketKind.RTS, src=src, dst=dst, size=34)


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
    data = Packet(kind=PacketKind.SEDA_BLOCK, src=1, dst=0, size=45)
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
    data = Packet(kind=PacketKind.DATA, src=1, dst=0, size=45, payload=(0, 1, 0.0, 29))
    other = Packet(kind=PacketKind.DATA, src=2, dst=0, size=45, payload=(1, 2, 0.0, 29))
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
    return Packet(kind=PacketKind.DATA, src=src, dst=dst, size=45, payload=(0, src, 0.0, 29))


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
    ("smac", "arq", {"battery_mah": 0.05}),
    ("adaptive-smac", "arq", {"battery_mah": 0.05}),
])
def test_transfer_path_preconditions_hold(protocol, recovery, overrides, monkeypatch):
    """The states the MACs, the sessions, the node radio and the ledger no
    longer guard against never occur: no node starts a transmission while its
    own is on the air, no session outlives its frame, or sends, resolves or
    finishes with a timer pending, no IAMAC handler sees a deactivated node, and each S-MAC,
    session and ledger proof in `CHANGES.md` holds. The battery cases check
    the proofs through deaths."""
    sc = desk_preset(seed=4, protocol=protocol, recovery=recovery,
                     stop_on_first_death=False, **{"horizon_s": 60.0, **overrides})
    sim = Simulation(sc)
    calls = collections.Counter()
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
        assert session._timeout_ev is None
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
    check_smac_proofs(monkeypatch, calls)
    check_session_and_ledger_proofs(monkeypatch, calls)
    result = sim.run()
    assert result["status"] == "ok" and result["delivered_packets"] > 0
    assert calls["transmit"] > 0 and calls["frames"] > 1
    if protocol == "iamac":
        assert calls["finished"] > 0 and calls["iamac"] > 0
        assert calls["session decodes"] > 0
        assert calls["arq decodes" if recovery == "arq" else "seda resends"] > 0
        assert calls["seda resolves"] > 0 or recovery == "arq"
        # the 20 s frames give too few contentions for an RTS to meet a sender
        assert calls["rts to a sender"] > 0 or "frame_s" in overrides
    else:
        assert calls["overheard"] > 0 and calls["corrupt"] > 0
        assert calls["stay awake" if protocol == "adaptive-smac" else "done"] > 0
    if "battery_mah" in overrides:
        assert sum(not node.alive for node in sim.nodes) > 40


def check_smac_proofs(monkeypatch, calls):
    """Wrap `SmacDriver` so that each condition it no longer tests is
    asserted never to decide. The NAV-wake handle and plain S-MAC's
    end-of-exchange flag are rebuilt here exactly as the driver kept them:
    `armed` holds the nodes whose `_overheard` armed a NAV wake that no
    `_nav_wake` has run for since, `done` the plain S-MAC nodes whose
    exchange has ended; `start` clears both."""
    armed, done = set(), set()
    start, overheard, nav_wake = SmacDriver.start, SmacDriver._overheard, SmacDriver._nav_wake
    exchange_over, backoff, attempt = (SmacDriver._exchange_over, SmacDriver._backoff,
                                       SmacDriver._attempt)
    stay_awake, smac_packet, smac_corrupt = (SmacDriver._stay_awake, SmacDriver.on_packet,
                                             SmacDriver.on_corrupt)

    def checked_start(driver, t0):
        armed.clear()
        done.clear()
        start(driver, t0)

    def checked_overheard(driver, nid, pkt):
        calls["overheard"] += 1
        node, now = driver.sim.nodes[nid], driver.engine.now
        assert node.alive and node.state is RadioState.LISTEN
        if driver.states[nid].role is None:
            assert nid not in armed
            assert pkt.exchange_end > now
            armed.add(nid)
        overheard(driver, nid, pkt)

    def checked_nav_wake(driver, nid, ev):
        armed.discard(nid)
        nav_wake(driver, nid, ev)

    def checked_exchange_over(driver, nid, tx=None):
        had_role = driver.states[nid].role is not None
        exchange_over(driver, nid, tx)
        if had_role and not driver.adaptive:
            calls["done"] += 1
            done.add(nid)

    def checked_backoff(driver, nid):
        assert nid not in done
        backoff(driver, nid)

    def checked_attempt(driver, nid, ev):
        node = driver.sim.nodes[nid]
        if node.alive and node.state is RadioState.LISTEN:
            assert nid not in done
        attempt(driver, nid, ev)

    def checked_stay_awake(driver, nid):
        calls["stay awake"] += 1
        st = driver.states[nid]
        assert driver.engine.now + driver.contention_window >= st.awake_until
        stay_awake(driver, nid)

    def checked_smac_packet(driver, node, pkt, sinr):
        if pkt.kind is PacketKind.RTS and pkt.dst == node.id:
            assert node.id not in done
        smac_packet(driver, node, pkt, sinr)

    def checked_smac_corrupt(driver, node, tx):
        calls["corrupt"] += 1
        assert node.alive and node.state is RadioState.LISTEN
        smac_corrupt(driver, node, tx)

    for name, fn in [("start", checked_start), ("_overheard", checked_overheard),
                     ("_nav_wake", checked_nav_wake), ("_exchange_over", checked_exchange_over),
                     ("_backoff", checked_backoff), ("_attempt", checked_attempt),
                     ("_stay_awake", checked_stay_awake), ("on_packet", checked_smac_packet),
                     ("on_corrupt", checked_smac_corrupt)]:
        monkeypatch.setattr(SmacDriver, name, fn)


def check_session_and_ledger_proofs(monkeypatch, calls):
    """Wrap the node, the sessions, IAMAC's RTS handler and the ledger hook
    so that each condition they no longer test is asserted never to decide.
    A session's `_timeout_ev` is None exactly when no timer is pending: it is
    cleared where the timer fires and where it is cancelled."""
    node_packet, data_resolved = Node.on_packet, Simulation._data_resolved
    arq_packet, pop_current = ArqSession.on_packet, ArqSession._pop_current
    resend = SedaSession._retransmit_or_resolve
    send_frame, resolve_burst = SedaSession._send_frame, SedaSession._resolve_burst
    handle_rts = IamacDriver._handle_rts

    def checked_node_packet(node, pkt, sinr):
        if node.active_session is not None:
            # the IAMAC driver ignores every RTS and CTS in this phase
            calls["session decodes"] += 1
            driver = node.sim.driver
            assert isinstance(driver, IamacDriver) and driver.phase == "comm"
        node_packet(node, pkt, sinr)

    def checked_data_resolved(simulation, tx, interferers):
        # these runs resolve few or no interferer sets;
        # `test_colliding_set_online_matches_offline_oracle` checks the same
        # on runs that resolve many
        if interferers:
            assert tx.sender not in interferers
        data_resolved(simulation, tx, interferers)

    def checked_arq_packet(session, node, pkt, sinr):
        if (session.current is not None and node == session.parent
                and pkt.kind is PacketKind.DATA and pkt.src == session.child):
            calls["arq decodes"] += 1
            assert pkt.payload is session.current
        arq_packet(session, node, pkt, sinr)

    def checked_pop_current(session, delivered):
        assert session.current is not None
        pop_current(session, delivered)

    def checked_resend(session, uids):
        calls["seda resends"] += 1
        assert len(uids) > 0
        resend(session, uids)

    def checked_send_frame(session, blocks, await_recovery):
        # `_next_burst` sends with no timer armed, `_retransmit_or_resolve`
        # after cancelling it
        calls["seda frames"] += 1
        assert session._timeout_ev is None
        send_frame(session, blocks, await_recovery)

    def checked_resolve_burst(session):
        # reached from the fired deadline, or after `_retransmit_or_resolve`
        # cancelled it
        calls["seda resolves"] += 1
        assert session._timeout_ev is None
        resolve_burst(session)

    def checked_handle_rts(driver, node, pkt):
        # sending its RTS, a node left contention: nothing since re-enters it
        st = driver.states[node.id]
        if pkt.dst == node.id and st.sent_rts:
            calls["rts to a sender"] += 1
            assert st.pending_ev is None and not st.awaiting
        handle_rts(driver, node, pkt)

    monkeypatch.setattr(Node, "on_packet", checked_node_packet)
    monkeypatch.setattr(Simulation, "_data_resolved", checked_data_resolved)
    monkeypatch.setattr(ArqSession, "on_packet", checked_arq_packet)
    monkeypatch.setattr(ArqSession, "_pop_current", checked_pop_current)
    monkeypatch.setattr(SedaSession, "_retransmit_or_resolve", checked_resend)
    monkeypatch.setattr(SedaSession, "_send_frame", checked_send_frame)
    monkeypatch.setattr(SedaSession, "_resolve_burst", checked_resolve_burst)
    monkeypatch.setattr(IamacDriver, "_handle_rts", checked_handle_rts)


def test_an_injected_packet_of_no_bytes_is_a_config_error():
    """`_end_transmission` takes every frame to be at least 1 byte long.
    `Scenario.validate` bounds what the run builds, and `inject` refuses an
    empty payload, which without a header would be a frame of 0 bytes."""
    sc = Scenario(node_count=2, seed=1, shadowing_sigma=0.0, header_bytes=0).validate()
    sim = Simulation(sc, [(0.0, 0.0), (3.0, 0.0)], parents={1: 0})
    with pytest.raises(ConfigError, match="payload_len"):
        sim.inject(1, 0)
    assert sim.nodes[1].queue == [] and sim.ledger.generated_packets == 0


def test_an_injected_one_byte_payload_is_queued_and_delivered():
    """The smallest payload `inject` takes: one byte, queued as the entry
    `(uid, origin, now, 1)`, which the run delivers and conserves."""
    sc = Scenario(node_count=2, seed=1, shadowing_sigma=0.0, header_bytes=0,
                  horizon_s=5.0).validate()
    sim = Simulation(sc, [(0.0, 0.0), (3.0, 0.0)], parents={1: 0})
    sim.inject(1, 1)
    assert sim.nodes[1].queue == [(0, 1, 0.0, 1)]
    assert [type(v) for v in sim.nodes[1].queue[0]] == [int, int, float, int]
    res = sim.run()
    assert res["conserved"] and res["generated_packets"] == 1
    records = sim.ledger.delivered_records
    assert [(r[0], r[1], r[3]) for r in records] == [(1, 0.0, 1)]
    assert sim.ledger.delivered_payload == 1


@pytest.mark.parametrize("origin, payload_len, named", [
    (-1, 29, "origin"), (10**6, 29, "origin"), (1.0, 29, "origin"),
    (1, 29.5, "payload_len"), (2, MAX_FRAME_BYTES + 1, "payload_len"),
    (2, 70000, "payload_len"), (2, True, "payload_len")],
    ids=["negative-origin", "origin-beyond-the-nodes", "float-origin", "float-payload",
         "payload-beyond-16-bits", "payload-70000", "bool-payload"])
def test_an_injected_packet_outside_its_columns_is_a_config_error(origin, payload_len, named):
    """`inject` checks its arguments where they enter: a negative origin
    would queue at the last node, and the sink's 16-bit columns would
    refuse the rest only at delivery."""
    sim = Simulation(desk_preset(seed=4))
    assert sim.topo.n == 50
    with pytest.raises(ConfigError, match=f"^{named}: "):
        sim.inject(origin, payload_len)
    assert all(node.queue == [] for node in sim.nodes)
    assert sim.ledger.generated_packets == 0


def test_an_injected_packet_at_the_last_node_and_the_largest_payload_is_queued():
    sim = Simulation(desk_preset(seed=4))
    sim.inject(49, MAX_FRAME_BYTES)
    assert sim.nodes[49].queue == [(0, 49, 0.0, MAX_FRAME_BYTES)]
    assert sim.ledger.generated_packets == 1


# -- radio switches and the energy ledger -------------------------------------------


def test_a_switch_that_empties_the_battery_kills_the_sender():
    sc = Scenario(node_count=2, seed=1, shadowing_sigma=0.0, battery_mah=0.01)
    sim = Simulation(sc, [(0.0, 0.0), (3.0, 0.0)])
    ledger, sender = sim.ledger, sim.nodes[1]
    for node in sim.nodes:
        node.state = RadioState.LISTEN
    switch_mj = sim.energy_table.switch_mj
    listen_rate = ledger.rates[RadioState.LISTEN]
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


def test_a_sender_switched_out_of_tx_mid_frame_keeps_its_state():
    """The medium puts a sender back to listening at its last bit only if it
    is still transmitting. Plain S-MAC can put a sender to sleep mid-frame:
    an exchange timeout whose handle a stale attempt cleared ends the
    exchange while the data is on the air
    (`test_an_smac_attempt_from_an_earlier_frame_leaves_the_exchange_timeout_held`)."""
    sim = rig([(0.0, 0.0), (3.0, 0.0)])
    sender = sim.nodes[1]
    end = sim.medium.transmit(1, control(1, 0))
    sim.engine.run_until(end / 2)
    sender.set_radio(RadioState.SLEEP)
    sim.engine.run_until(end + 1.0)
    assert sender.state is RadioState.SLEEP
    assert sim.ledger.switch_energy[1] == 2 * sim.energy_table.switch_mj


@pytest.mark.xfail(strict=True, reason="a node that dies at its switch to transmit still "
                   "puts its frame on the air, and listeners decode it")
def test_a_node_that_dies_at_its_transmit_switch_sends_nothing():
    sc = Scenario(node_count=2, seed=1, shadowing_sigma=0.0, battery_mah=0.01)
    sim = Simulation(sc, [(0.0, 0.0), (3.0, 0.0)])
    ledger, listener, sender = sim.ledger, sim.nodes[0], sim.nodes[1]
    for node in sim.nodes:
        node.state = RadioState.LISTEN
    decoded = []
    listener.on_packet = lambda pkt, sinr: decoded.append(pkt)
    # listen until half a switch's energy is left: the switch to TX kills node 1
    listen_rate = ledger.rates[RadioState.LISTEN]
    t = (sim.energy_table.battery_mj - 0.5 * sim.energy_table.switch_mj) / listen_rate
    sim.engine.run_until(t)
    end = sim.medium.transmit(1, control(1, 0))
    assert not sender.alive and listener.alive
    assert not sim.medium.carrier_busy(0)
    assert not sim.medium.receptions[0]
    sim.engine.run_until(end + 1.0)
    assert decoded == []


def test_same_state_set_radio_charges_time_and_no_switch():
    sim = rig([(0.0, 0.0), (3.0, 0.0)])
    ledger, node = sim.ledger, sim.nodes[0]
    sim.medium.transmit(1, control(1, 0))
    sim.engine.run_until(2e-3)
    node.set_radio(RadioState.LISTEN)
    assert ledger.state_time[0] == [0.0, 2e-3, 0.0]
    listen_rate = ledger.rates[RadioState.LISTEN]
    assert ledger.state_energy[0][1] == listen_rate * 2e-3
    assert ledger.switch_energy[0] == 0.0
    assert ledger.residual_mj[0] == sim.energy_table.battery_mj - listen_rate * 2e-3
    # still listening: the open reception survives
    assert sim.medium.receptions[0]
    # a switch later charges the time since that call, then one switch
    sim.engine.run_until(5e-3)
    node.set_radio(RadioState.SLEEP)
    assert ledger.state_time[0] == [0.0, 2e-3 + 3e-3, 0.0]
    assert ledger.switch_energy[0] == sim.energy_table.switch_mj
    assert not sim.medium.receptions[0]
