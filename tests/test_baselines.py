import pytest

from iamac_sim.config import ConfigError, Scenario, desk_preset
from iamac_sim.energy import RadioState
from iamac_sim.mac_smac import SmacDriver
from iamac_sim.medium import Medium
from iamac_sim.packets import PacketKind, airtime
from iamac_sim.simulation import Simulation

def chain_sim(protocol, hops=3, frame_s=1.0, horizon_s=12.0, seed=2,
              sampling=1000.0, fixed_contention=None, **overrides):
    """A->B->C->D line, data flows toward node 0; `overrides` sets further
    scenario fields."""
    n = hops + 1
    positions = [(6.0 * k, 0.0) for k in range(n)]
    sc = Scenario(node_count=n, area=(40.0, 5.0), protocol=protocol,
                  frame_s=frame_s, sampling_interval_s=sampling,
                  horizon_s=horizon_s, shadowing_sigma=0.0,
                  stop_on_first_death=False, smac_adaptive_err=0.0,
                  seed=seed, **overrides).validate()
    return Simulation(sc, positions, parents={k: k - 1 for k in range(1, n)},
                      fixed_contention=fixed_contention)


def test_injected_packets_are_counted_and_conserved():
    sim = chain_sim("iamac", horizon_s=6.0)
    for origin in (1, 2, 3, 3):
        sim.inject(origin, 29)
    assert [origin for n in sim.nodes for _, origin, _, _ in n.queue] == [1, 2, 3, 3]
    # each payload's first DATA frame is addressed to its origin's parent
    first_hops = {}
    transmit = sim.medium.transmit

    def record(nid, pkt, *args, **kwargs):
        if pkt.kind is PacketKind.DATA:
            uid, origin, _, _ = pkt.payload
            if pkt.src == origin:
                first_hops.setdefault(uid, (origin, pkt.dst))
        return transmit(nid, pkt, *args, **kwargs)

    sim.medium.transmit = record
    res = sim.run()
    assert [first_hops[uid] for uid in range(4)] == [(1, 0), (2, 1), (3, 2), (3, 2)]
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


class ScriptedErrors:
    """Adaptive wake errors in a set order: `uniform(lo, hi)` returns the
    next of `errors`, then 0.0."""

    def __init__(self, *errors):
        self.errors = list(errors)

    def uniform(self, lo, hi):
        err = self.errors.pop(0) if self.errors else 0.0
        assert lo <= err <= hi
        return err


def test_an_early_adaptive_wake_keeps_the_longer_nav(monkeypatch):
    """`_overheard` never lowers a NAV. On a 10 m line b1 - b2 - H - a1 - a2,
    each node senses only its neighbours, and control frames always arrive.
    b1 sends an RTS to b2, and a1 one to a2 half a SIFS later. H decodes a1's
    RTS, sleeps, and an error of -1 wakes it at once, in time for b2's CTS,
    whose exchange ends half a SIFS before a1's. H wakes again at that end
    and holds a packet for a1, but its NAV still runs to a1's exchange end,
    so it sends nothing before that end."""
    b1, b2, H, a1, a2 = range(5)
    sc = Scenario(node_count=5, area=(40.0, 5.0), protocol="adaptive-smac", frame_s=1.0,
                  sampling_interval_s=1000.0, horizon_s=2.0, shadowing_sigma=0.0,
                  stop_on_first_death=False, smac_adaptive_err=1.0,
                  control_corruption_disabled=True, seed=2).validate()
    half_sifs = sc.sifs_s / 2
    sim = Simulation(sc, [(10.0 * k, 0.0) for k in range(5)], sink=a2,
                     parents={b1: b2, b2: H, H: a1, a1: a2},
                     fixed_contention={b1: [0.01], a1: [0.01 + half_sifs], H: [0.05, 0.0]})
    sim.trace_enabled = True
    for nid in (b1, a1, H):
        sim.inject(nid, 29)
    init, overheard = SmacDriver.__init__, SmacDriver._overheard
    navs = []

    def scripted(driver, sim):
        init(driver, sim)
        driver.rng_adaptive = ScriptedErrors(-1.0)

    def watched(driver, nid, pkt):
        overheard(driver, nid, pkt)
        if nid == H:
            navs.append((pkt.src, pkt.exchange_end, driver.states[nid].nav_until))

    monkeypatch.setattr(SmacDriver, "__init__", scripted)
    monkeypatch.setattr(SmacDriver, "_overheard", watched)
    sim.run()
    (first, a_end, _), (second, b_end, nav) = navs[:2]
    assert (first, second) == (a1, b2)
    assert a_end - half_sifs == pytest.approx(b_end) and nav == a_end
    assert [label for t, node, label, _ in sim.trace_log
            if node == H and t < a_end] == ["nav-sleep", "adaptive-wake", "nav-sleep",
                                            "adaptive-wake"]
    assert min(t for t, node, label, _ in sim.trace_log
               if node == H and label == "smac-rts") > a_end


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


def stale_attempt_chain(delay):
    """Plain S-MAC on a clean one-hop line, node 1 holding two packets: its
    first contention plan puts an attempt `delay` after frame 2's contention
    starts, which no state of frame 2 holds; its third plan starts an RTS
    right then."""
    sim = chain_sim("smac", hops=1, horizon_s=4.0,
                    fixed_contention={1: [2.0 + delay, 0.0, 0.0]})
    sim.trace_enabled = True
    sim.inject(1, 29)
    sim.inject(1, 29)
    return sim


def test_an_smac_attempt_from_an_earlier_frame_sends_nothing_in_an_exchange(monkeypatch):
    """Taking a role cancels only the attempt the node's state holds, so an
    attempt left from an earlier frame can find its node in an exchange.
    `_attempt`'s role test keeps it from sending: here it fires after node
    1's RTS ends and before the CTS starts, with nothing sensed since the
    backoff, so without the test node 1 would send a second RTS."""
    attempt = SmacDriver._attempt
    in_role = []

    def watched(driver, nid, ev):
        node = driver.sim.nodes[nid]
        if node.alive and node.state is RadioState.LISTEN and driver.states[nid].role:
            in_role.append((nid, driver.states[nid].role))
        attempt(driver, nid, ev)

    monkeypatch.setattr(SmacDriver, "_attempt", watched)
    sim = stale_attempt_chain(Scenario().control_air + 0.5e-3)
    sim.run()
    assert in_role == [(1, "tx")]
    assert [node for t, node, label, _ in sim.trace_log
            if label == "smac-rts" and 2.0 <= t < 3.0] == [1]


def smac_sends(monkeypatch):
    """Every `Medium.transmit` call from here on, as (time, sender, kind)."""
    transmit = Medium.transmit
    sent = []

    def watched(medium, sender, packet, on_resolved=None):
        sent.append((medium.engine.now, sender, packet.kind))
        return transmit(medium, sender, packet, on_resolved)

    monkeypatch.setattr(Medium, "transmit", watched)
    return sent


def test_an_smac_attempt_too_late_for_its_exchange_sends_nothing(monkeypatch):
    """`_attempt`'s end-of-frame test. An injected delay is not bounded by
    the backoff's room, so node 1's attempt comes at 0.15 s, while it still
    listens; its 2000-byte packet's exchange would then end about 30 ms past
    the frame. It sends nothing in that frame, and the packet goes in the
    next."""
    attempt = SmacDriver._attempt
    late = []

    def watched(driver, nid, ev):
        now = driver.engine.now
        if (driver.sim.nodes[nid].queue and now + driver._exchange_span(nid)
                > driver.cycle_start + driver.period - 1e-3):
            late.append((nid, now, driver.sim.nodes[nid].state))
        attempt(driver, nid, ev)

    monkeypatch.setattr(SmacDriver, "_attempt", watched)
    sent = smac_sends(monkeypatch)
    sim = chain_sim("smac", hops=1, horizon_s=4.0, fixed_contention={1: [0.1]})
    sim.inject(1, 2000)
    res = sim.run()
    assert late == [(1, pytest.approx(0.15), RadioState.LISTEN)]
    assert not [s for s in sent if s[0] < 1.0]
    assert res["delivered_packets"] == 1 and res["conserved"]


def test_an_smac_data_send_after_its_exchange_ended_sends_nothing(monkeypatch):
    """`_send_data`'s role test, reached only through a timer of an earlier
    frame, which `start` does not cancel: the stale attempt of
    `stale_attempt_chain` clears the handle of node 1's CTS timeout after its
    RTS. The CTS still comes,
    but with a 5 ms SIFS the surviving timeout fires 2 ms after it and ends
    the exchange before the data is due, so the data send finds no role and
    sends nothing; the packet stays queued."""
    send_data = SmacDriver._send_data
    roleless = []

    def watched(driver, nid, ev):
        if driver.states[nid].role is None:
            roleless.append(nid)
        send_data(driver, nid, ev)

    monkeypatch.setattr(SmacDriver, "_send_data", watched)
    sent = smac_sends(monkeypatch)
    sim = chain_sim("smac", hops=1, horizon_s=4.0, sifs_s=0.005,
                    fixed_contention={1: [2.0 + Scenario().control_air + 0.5e-3, 0.0, 0.0]})
    sim.inject(1, 29)
    sim.inject(1, 29)
    res = sim.run()
    assert roleless == [1]
    assert [kind for t, node, kind in sent if node == 1 and 2.0 <= t < 3.0] == [PacketKind.RTS]
    assert res["delivered_packets"] == 2 and res["conserved"]


@pytest.mark.xfail(strict=True, reason="an S-MAC attempt left from an earlier frame clears the "
                   "`pending_ev` of the node's exchange, so that exchange's timeout survives")
def test_an_smac_attempt_from_an_earlier_frame_leaves_the_exchange_timeout_held():
    # the stale attempt fires during node 1's RTS and clears the handle of its
    # RTS timeout; that timeout ends the exchange while the data is on the
    # air, plain S-MAC puts node 1 to sleep, it misses the ACK and sends the
    # packet again
    sim = stale_attempt_chain(1e-3)
    res = sim.run()
    assert res["conserved"]
    assert res["delivered_packets"] == 2


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("protocol", ["smac", "adaptive-smac"])
def test_one_packet_over_a_clean_link_arrives_at_the_frame_plans_instant(protocol, seed):
    """Analytic anchor: node 1's one packet, with its contention injected as a
    mini slot and a backoff, reaches the sink after the synch slot, `slot`
    mini slots and the backoff, then the RTS, a SIFS, the CTS, a SIFS and the
    data airtime."""
    for slot, backoff in [(0, 0.001), (3, 0.0007), ("last", "max")]:
        sim = chain_sim(protocol, hops=1, seed=seed)
        sc = sim.scenario
        plan = sc.frame_plan()
        slot = plan.w - 1 if slot == "last" else slot
        backoff = plan.max_backoff if backoff == "max" else backoff
        # S-MAC's injected plan is the delay from the end of the synch slot
        sim.fixed_contention[1] = [slot * plan.mini_slot + backoff]
        sim.inject(1, 29)
        res = sim.run()
        assert res["delivered_packets"] == 1 and res["conserved"]
        expected = (plan.mini_slot_start(0.0, slot) + backoff
                    + sc.control_air + sc.sifs_s + sc.control_air + sc.sifs_s
                    + airtime(29 + sc.header_bytes, sc.radio_speed))
        assert sim.ledger.delivered_records[0][2] == pytest.approx(expected, rel=0, abs=1e-9)


@pytest.mark.parametrize("protocol, plan", [
    ("smac", (3, 0.001)),                # an IAMAC (slot, backoff) pair
    ("adaptive-smac", (0, 0.0)),
    ("smac", -0.001),
    ("adaptive-smac", float("nan")),
    ("smac", True),
    ("iamac", 0.001),                    # an S-MAC delay
    ("iamac", (8, 0.001)),               # slot beyond w - 1 = 7
    ("iamac", (-1, 0.001)),
    ("iamac", (2.0, 0.001)),
    ("iamac", (2, -0.001)),
    ("iamac", (2, float("inf"))),
    ("iamac", (2, 0.001, 0.0)),
])
def test_a_contention_plan_of_the_wrong_shape_is_a_config_error(protocol, plan):
    """A plan the MAC cannot read is refused when the run is built, naming the
    node, not with a TypeError inside the run."""
    with pytest.raises(ConfigError, match=r"fixed_contention: node 1: "):
        chain_sim(protocol, hops=1, fixed_contention={1: [plan]})


@pytest.mark.parametrize("protocol, plans", [
    ("smac", [0.0, 0.001, 1]),
    ("adaptive-smac", [0.032]),
    ("iamac", [(0, 0.0), (7, 0.0012), [3, 0]]),
])
def test_a_contention_plan_of_the_right_shape_is_taken(protocol, plans):
    sim = chain_sim(protocol, hops=1, fixed_contention={1: plans})
    assert sim.fixed_contention == {1: plans}


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
