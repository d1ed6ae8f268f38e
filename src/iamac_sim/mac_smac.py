"""S-MAC and its adaptive-listening variant, sharing the channel, routing and
metrics infrastructure with the slotted MAC.

Plain mode: a common listen period carries RTS/CTS contention; overhearers of
either control packet set their NAV from its duration field and sleep; one
data+ack exchange per granted pair per frame, so a packet advances at most one
hop per frame. Adaptive mode additionally wakes overhearers at the (imprecise)
estimated exchange end, where they may contend immediately and forward packets
several hops within one frame; it also wakes the just-finished participants,
which is exactly what lets a hidden wake-up interfere with an ongoing
reception elsewhere.

Every timer is a `functools.partial` over a bound method that takes
`(nid, ev)`, with any further bound arguments between the two, so an event
reaches its handler without a forwarding frame of its own. The timers that
bind only a node id are built once per run, one table per kind indexed by
node id; the CTS and ACK sends bind their packet, so each builds its own.
A node has at most one pending awake-expiry event: a stay while it is
pending reserves a later key, and the event moves there when it fires.
"""

from __future__ import annotations

from functools import partial

from .energy import RadioState
from .packets import Packet, PacketKind, airtime, readdressed

# an Enum member read through its class costs a lookup on every event
RTS, CTS, DATA, ACK = PacketKind.RTS, PacketKind.CTS, PacketKind.DATA, PacketKind.ACK
SLEEP, LISTEN = RadioState.SLEEP, RadioState.LISTEN


class SmacNodeState:
    __slots__ = ("nav_until", "peer", "role", "exchange",
                 "pending_ev", "window_start", "awaiting", "awake_until")

    def __init__(self):
        self.nav_until = 0.0
        self.peer = None
        self.role = None        # "tx" or "rx" while in an exchange
        self.exchange = None
        self.pending_ev = None
        self.window_start = 0.0
        self.awaiting = False
        self.awake_until = 0.0


class SmacDriver:
    def __init__(self, sim):
        self.sim = sim
        self.engine = sim.engine
        sc = sim.scenario
        self.adaptive = sc.protocol == "adaptive-smac"
        # a CTS is as long as an RTS
        self.rts_air = sc.control_air
        self.ack_air = airtime(sc.ack_len, sc.radio_speed)
        self.sifs = sc.sifs_s
        # RTS, SIFS, CTS, SIFS: every exchange's span starts with these, summed
        # in the order `_exchange_span` adds them
        self.span_head = self.rts_air + self.sifs + self.rts_air + self.sifs
        self.synch_slot = sc.synch_slot_s
        # listen budget mirrors the slotted MAC's RTS+CTS share for fairness
        self.contention_window = sc.w * sc.mini_slot_s + sc.cts_slot_s
        self.period = sc.frame_s
        self.err = sc.smac_adaptive_err
        self.rng = sim.streams.draws("contention")
        self.rng_adaptive = sim.streams.draws("adaptive")
        # the tree is fixed once routing has bootstrapped, before the driver
        self.parents = sim.parents
        n = sim.topo.n
        self.states = [SmacNodeState() for _ in range(n)]
        self.cycle_start = 0.0
        self._listen_end = self.synch_slot + self.contention_window

        def timers(handler, *args):
            # one bound method shared by every node's entry
            return [partial(handler, nid, *args) for nid in range(n)]

        self._on_attempt = timers(self._attempt)
        self._on_nav_wake = timers(self._nav_wake)
        self._on_expiry = timers(self._awake_expiry)
        self._on_rx_timeout = timers(self._rx_timeout)
        self._on_send_data = timers(self._send_data)
        self._on_no_cts = timers(self._tx_timeout, "smac-no-cts")
        self._on_ack_timeout = timers(self._tx_timeout, None)
        # each node's pending awake-expiry event, and the `(time, seq)` key a
        # stay reserved for it while it was pending; both outlive a frame
        self._expiry_ev = [None] * n
        self._expiry_later = [None] * n

    # -- frame scheduling ------------------------------------------------------

    def start(self, t0):
        """Open one frame at `t0`, with fresh node states."""
        self.cycle_start = t0
        self._listen_end = t0 + self.synch_slot + self.contention_window
        self.states = [SmacNodeState() for _ in self.states]
        self.engine.schedule(t0 + self.synch_slot, self._contention_begin)

    def _contention_begin(self, event):
        parents = self.parents
        for node in self.sim.nodes:
            if node.alive and node.queue and parents[node.id] is not None:
                self._backoff(node.id)
        # nodes beyond the contention outcome sleep when the listen period ends
        self.engine.schedule(self._listen_end, self._listen_over)

    def _listen_over(self, event):
        for node in self.sim.nodes:
            self._sleep_if_expired(node.id)

    # -- contention -----------------------------------------------------------------

    def _exchange_span(self, nid):
        # every caller holds a queue: contenders, and deferrers that have not sent since
        node = self.sim.nodes[nid]
        sc = self.sim.scenario
        data_air = airtime(node.queue[0].payload_len + sc.header_bytes, sc.radio_speed)
        return self.span_head + data_air + self.sifs + self.ack_air

    def _backoff(self, nid):
        st = self.states[nid]
        if st.role is not None:
            return
        now = self.engine.now
        if now < st.nav_until:
            return
        self._cancel_pending(st)
        span = self._exchange_span(nid)
        # the RTS must end inside the node's awake span, and the whole
        # exchange inside this frame
        listen_end = self._listen_end
        awake_end = st.awake_until if st.awake_until > listen_end else listen_end
        latest_start = min(awake_end - self.rts_air,
                           self.cycle_start + self.period - span - 1e-3)
        room = latest_start - now
        if room <= 0:
            return
        st.window_start = now
        st.awaiting = False
        injected = self.sim.fixed_contention.get(nid)
        if injected:
            delay = float(injected.pop(0))
        else:
            delay = min(room, self.contention_window / 4) * self.rng.random()
        st.pending_ev = self.engine.schedule(now + delay, self._on_attempt[nid])

    def _attempt(self, nid, ev):
        sim = self.sim
        node = sim.nodes[nid]
        st = self.states[nid]
        st.pending_ev = None
        # taking a role cancels only the attempt `pending_ev` holds: not one
        # from an earlier frame, nor one whose handle a stale timeout cleared
        if (not node.alive or st.role is not None or not node.queue
                or node.state != LISTEN):
            return
        assert self.engine.now >= st.nav_until, "transmission during NAV"
        if sim.medium.sensed_since(nid, st.window_start):
            st.awaiting = True
            return
        parent = self.parents[nid]
        span = self._exchange_span(nid)
        end = self.engine.now + span
        if end > self.cycle_start + self.period - 1e-3:
            return
        sc = sim.scenario
        # positional, in field order: kind, src, dst, length, header, born_at,
        # origin, payload_len, uid, exchange_end
        rts = Packet(RTS, nid, parent, sc.control_bytes, sc.header_bytes,
                     0.0, -1, 0, -1, end)
        sim.medium.transmit(nid, rts)
        st.role = "tx"
        st.peer = parent
        st.exchange = {"uid": node.queue[0].uid, "data_received": False}
        if sim.trace_enabled:
            sim.trace(nid, "smac-rts", "dst=%s", parent)
        timeout = self.engine.now + self.rts_air + self.sifs + self.rts_air + 2e-3
        st.pending_ev = self.engine.schedule(timeout, self._on_no_cts[nid])

    def _tx_timeout(self, nid, label, ev):
        st = self.states[nid]
        st.pending_ev = None
        # a CTS or an ACK cancels this timer, so it fires only when none came
        if st.role == "tx":
            if label is not None and self.sim.trace_enabled:
                self.sim.trace(nid, label)
            self._exchange_over(nid)

    # -- packet handling -------------------------------------------------------------

    def on_packet(self, node, pkt, sinr):
        nid = node.id
        st = self.states[nid]
        sim = self.sim
        kind = pkt.kind

        if kind is RTS:
            if pkt.dst == nid:
                if st.role is not None or self.engine.now < st.nav_until:
                    return
                self._cancel_pending(st)
                st.role = "rx"
                st.peer = pkt.src
                # the sender holds this exchange until its CTS timeout, which
                # falls after its RTS ends
                st.exchange = self.states[pkt.src].exchange
                sc = sim.scenario
                cts = Packet(CTS, nid, pkt.src, sc.control_bytes, sc.header_bytes,
                             0.0, -1, 0, -1, pkt.exchange_end)
                self.engine.schedule(self.engine.now + self.sifs,
                                     partial(self._transmit, nid, cts, None))
                if sim.trace_enabled:
                    sim.trace(nid, "smac-cts", "dst=%s", pkt.src)
                # release the reservation if the data never shows up
                st.pending_ev = self.engine.schedule(pkt.exchange_end + 2e-3,
                                                     self._on_rx_timeout[nid])
            else:
                self._overheard(nid, pkt)
        elif kind is CTS:
            if pkt.dst == nid:
                if st.role == "tx":
                    self._cancel_pending(st)
                    self.engine.schedule(self.engine.now + self.sifs,
                                         self._on_send_data[nid])
            else:
                self._overheard(nid, pkt)
        elif kind is DATA and pkt.dst == nid:
            if st.role == "rx" and pkt.src == st.peer:
                if not st.exchange["data_received"]:
                    st.exchange["data_received"] = True
                    sim.deliver_to(nid, (pkt,))
                ack = Packet(ACK, nid, pkt.src, sim.scenario.ack_len, 0)
                self.engine.schedule(
                    self.engine.now + self.sifs,
                    partial(self._transmit, nid, ack, partial(self._exchange_over, nid)))
        elif kind is ACK and pkt.dst == nid and st.role == "tx":
            self._cancel_pending(st)
            self._exchange_over(nid)
        elif st.awaiting and st.role is None:
            # overheard someone else's data or ack while deferring: contend again
            st.awaiting = False
            self._backoff(nid)

    def _transmit(self, nid, pkt, on_resolved, ev):
        self.sim.medium.transmit(nid, pkt, on_resolved)

    def _send_data(self, nid, ev):
        sim = self.sim
        node = sim.nodes[nid]
        st = self.states[nid]
        if not node.alive or st.role is None or not node.queue:
            return
        data = readdressed(node.queue[0], nid, st.peer, sim.scenario.header_bytes)
        sim.medium.transmit(nid, data)
        ack_deadline = (self.engine.now + data.airtime(sim.model.radio_speed)
                        + self.sifs + self.ack_air + 2e-3)
        st.pending_ev = self.engine.schedule(ack_deadline, self._on_ack_timeout[nid])

    def _rx_timeout(self, nid, ev):
        st = self.states[nid]
        if st.role == "rx" and not st.exchange["data_received"]:
            st.pending_ev = None
            if self.sim.trace_enabled:
                self.sim.trace(nid, "smac-rx-timeout")
            self._exchange_over(nid)

    def _exchange_over(self, nid, tx=None):
        """The exchange ends at the ACK, at the sender's CTS or ACK timeout,
        or at the receiver's data timeout. An ACK's end calls this with its
        transmission `tx`."""
        sim = self.sim
        st = self.states[nid]
        if st.role is None:
            return
        # the receiver marks the data before it acks: the packet leaves the
        # sender's queue iff its parent holds it, even if the ack died
        if st.role == "tx" and st.exchange["data_received"]:
            sim.remove_from_queue(nid, st.exchange["uid"])
        st.role = None
        st.peer = None
        self._cancel_pending(st)
        if self.adaptive:
            self._stay_awake(nid)
        else:
            sim.sleep(nid)

    def _cancel_pending(self, st):
        self.engine.cancel(st.pending_ev)
        st.pending_ev = None

    # -- overhearing and adaptive wakeups ------------------------------------------------

    def _overheard(self, nid, pkt):
        """Foreign RTS or CTS: sleep through the announced exchange. The node
        decoded the frame, so it is alive and listening; it sleeps until its
        NAV wake, which no state holds, or the next frame."""
        sim = self.sim
        st = self.states[nid]
        if st.role is not None:
            return
        exchange_end = pkt.exchange_end
        if exchange_end > st.nav_until:
            st.nav_until = exchange_end
        self._cancel_pending(st)
        st.awake_until = 0.0
        now = self.engine.now
        if self.adaptive:
            # an RTS or CTS ends before the exchange it announces
            err = self.rng_adaptive.uniform(-self.err, self.err)
            wake_at = now + (exchange_end - now) * (1.0 + err)
            if sim.trace_enabled:
                sim.trace(nid, "nav-sleep", "until~%.4f", wake_at)
        else:
            wake_at = st.nav_until
            if sim.trace_enabled:
                sim.trace(nid, "nav-sleep", "until=%.4f", exchange_end)
        self.engine.schedule(wake_at, self._on_nav_wake[nid])
        sim.nodes[nid].set_radio(SLEEP)

    def _nav_wake(self, nid, ev):
        sim = self.sim
        st = self.states[nid]
        node = sim.nodes[nid]
        if not node.alive or st.role is not None:
            return
        if self.adaptive:
            # wake at the estimated exchange end and contend at once
            if node.state == SLEEP:
                node.set_radio(LISTEN)
            if sim.trace_enabled:
                sim.trace(nid, "adaptive-wake")
            self._stay_awake(nid)
        elif self.engine.now < self._listen_end:
            sim.wake(nid)   # listen out the rest of the common period
        # otherwise stay asleep until the next frame

    def _stay_awake(self, nid):
        """Keep the node awake for one contention window from now, and
        contend at once if it has a packet to send.

        The node's one pending awake-expiry event checks the window's end.
        If none is pending, this schedules it. Otherwise this takes the
        sequence number a new event would take, by hand, and records
        `(awake_until, seq)` as the key the pending event moves to when it
        fires (`_awake_expiry`). So the scheduled and cancelled counts and
        the tie order are those of one event per stay; only the dispatches
        fall."""
        st = self.states[nid]
        engine = self.engine
        # time moves forward and `_overheard` only lowers `awake_until`
        st.awake_until = until = engine.now + self.contention_window
        if self._expiry_ev[nid] is None:
            self._expiry_ev[nid] = engine.schedule(until, self._on_expiry[nid])
        else:
            seq = engine.next_seq
            engine.next_seq = seq + 1
            self._expiry_later[nid] = (until, seq)
        if self.sim.nodes[nid].queue and self.parents[nid] is not None:
            self._backoff(nid)

    def _awake_expiry(self, nid, ev):
        """The node's pending awake-expiry event. If a stay recorded a later
        key while it was pending, move there and check nothing; otherwise
        check the node.

        The skipped checks, those the events of all but the latest stay
        would have made, could not have acted. A stay at `t` sets
        `awake_until = t + contention_window`, so an expiry that fires after
        a stay at a later instant finds `awake_until` past `now`, with two
        exceptions. `_overheard` may have reset `awake_until` since; that
        call also put the node to sleep, and only a NAV wake wakes it, which
        stays again. Or `start` built a fresh state since; then `now` lies
        before the new frame's `_listen_end`. (Two stays of one node at one
        instant would need a NAV wake due at exactly the instant of its
        other stay.)"""
        later = self._expiry_later[nid]
        if later is not None:
            self._expiry_later[nid] = None
            self.engine.rearm(ev, *later)
            return
        self._expiry_ev[nid] = None
        self._sleep_if_expired(nid)

    def _sleep_if_expired(self, nid):
        st = self.states[nid]
        node = self.sim.nodes[nid]
        now = self.engine.now
        if (node.alive and st.role is None and now >= st.awake_until
                and node.state == LISTEN and now >= self._listen_end):
            node.set_radio(SLEEP)

    def on_corrupt(self, node, tx):
        # the medium reports a corrupt frame only to a live listener
        st = self.states[node.id]
        if st.awaiting and st.role is None:
            st.awaiting = False
            self._backoff(node.id)

    def on_air_rise(self, node, tx):
        pass
