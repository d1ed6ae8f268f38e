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
"""

from __future__ import annotations

from dataclasses import replace

from .energy import RadioState
from .packets import Packet, PacketKind, airtime


class SmacNodeState:
    __slots__ = ("nav_until", "peer", "role", "exchange",
                 "pending_ev", "window_start", "awaiting", "done_frame",
                 "awake_until", "wake_ev")

    def __init__(self):
        self.nav_until = 0.0
        self.peer = None
        self.role = None        # "tx" or "rx" while in an exchange
        self.exchange = None
        self.pending_ev = None
        self.window_start = 0.0
        self.awaiting = False
        self.done_frame = False
        self.awake_until = 0.0
        self.wake_ev = None


class SmacDriver:
    def __init__(self, sim, adaptive=False):
        self.sim = sim
        self.engine = sim.engine
        self.adaptive = adaptive
        sc = sim.scenario
        # a CTS is as long as an RTS
        self.rts_air = airtime(sc.control_bytes + sc.header_bytes, sc.radio_speed)
        self.ack_air = airtime(sc.ack_len, sc.radio_speed)
        self.sifs = sc.sifs_s
        self.synch_slot = sc.synch_slot_s
        # listen budget mirrors the slotted MAC's RTS+CTS share for fairness
        self.contention_window = sc.w * sc.mini_slot_s + sc.cts_slot_s
        self.period = sc.frame_s
        self.err = sc.smac_adaptive_err
        self.rng = sim.streams.draws("contention")
        self.rng_adaptive = sim.streams.draws("adaptive")
        self.states = [SmacNodeState() for _ in range(sim.topo.n)]
        self.cycle_start = 0.0

    # -- frame scheduling ------------------------------------------------------

    def start(self, t0):
        """Open one frame at `t0`, with fresh node states."""
        self.cycle_start = t0
        self.states = [SmacNodeState() for _ in self.states]
        self.engine.schedule(t0 + self.synch_slot, self._contention_begin)

    @property
    def _listen_end(self):
        return self.cycle_start + self.synch_slot + self.contention_window

    def _contention_begin(self, event):
        for node in self.sim.nodes:
            if node.alive and node.queue and self.sim.parent_of(node.id) is not None:
                self._backoff(node.id)
        # nodes beyond the contention outcome sleep when the listen period ends
        self.engine.schedule(self._listen_end, self._listen_over)

    def _listen_over(self, event):
        for node in self.sim.nodes:
            self._awake_expiry(node.id)

    # -- contention -----------------------------------------------------------------

    def _window_limit(self, nid):
        """Transmission attempts must finish inside the node's awake span."""
        limit = self._listen_end
        st = self.states[nid]
        if st.awake_until > self.engine.now:
            limit = max(limit, st.awake_until)
        return limit

    def _exchange_span(self, nid):
        # every caller holds a queue: contenders, and deferrers that have not sent since
        node = self.sim.nodes[nid]
        sc = self.sim.scenario
        data_air = airtime(node.queue[0].payload_len + sc.header_bytes, sc.radio_speed)
        return (self.rts_air + self.sifs + self.rts_air + self.sifs
                + data_air + self.sifs + self.ack_air)

    def _backoff(self, nid):
        st = self.states[nid]
        if st.role is not None or st.done_frame:
            return
        now = self.engine.now
        if now < st.nav_until:
            return
        self._cancel_pending(st)
        span = self._exchange_span(nid)
        # the whole exchange must finish inside this frame
        latest_start = min(self._window_limit(nid) - self.rts_air,
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
        st.pending_ev = self.engine.schedule(now + delay, lambda ev: self._attempt(nid))

    def _attempt(self, nid):
        sim = self.sim
        node = sim.nodes[nid]
        st = self.states[nid]
        st.pending_ev = None
        if (not node.alive or st.role is not None or st.done_frame
                or not node.queue or node.state is not RadioState.LISTEN):
            return
        assert self.engine.now >= st.nav_until, "transmission during NAV"
        if sim.medium.carrier_busy(nid) or node.last_rise_t >= st.window_start:
            st.awaiting = True
            return
        parent = sim.parent_of(nid)
        span = self._exchange_span(nid)
        end = self.engine.now + span
        if end > self.cycle_start + self.period - 1e-3:
            return
        sc = sim.scenario
        rts = Packet(kind=PacketKind.RTS, src=nid, dst=parent,
                     length=sc.control_bytes, header=sc.header_bytes,
                     exchange_end=end)
        sim.medium.transmit(nid, rts)
        st.role = "tx"
        st.peer = parent
        st.exchange = {"uid": node.queue[0].uid, "data_received": False}
        sim.trace(nid, "smac-rts", "dst=%s", parent)
        timeout = self.engine.now + self.rts_air + self.sifs + self.rts_air + 2e-3
        st.pending_ev = self.engine.schedule(timeout, lambda ev: self._cts_timeout(nid))

    def _cts_timeout(self, nid):
        st = self.states[nid]
        st.pending_ev = None
        # a CTS cancels this timer, so it fires only when none came
        if st.role == "tx":
            # collision or lost CTS: retry next frame
            self.sim.trace(nid, "smac-no-cts")
            self._exchange_over(nid, success=False)

    # -- packet handling -------------------------------------------------------------

    def on_packet(self, node, pkt, sinr):
        nid = node.id
        st = self.states[nid]
        sim = self.sim
        kind = pkt.kind

        if kind is PacketKind.RTS:
            if pkt.dst == nid:
                if st.role is not None or st.done_frame or self.engine.now < st.nav_until:
                    return
                self._cancel_pending(st)
                st.role = "rx"
                st.peer = pkt.src
                # the sender holds this exchange until its CTS timeout, which
                # falls after its RTS ends
                st.exchange = self.states[pkt.src].exchange
                cts = Packet(kind=PacketKind.CTS, src=nid, dst=pkt.src,
                             length=sim.scenario.control_bytes,
                             header=sim.scenario.header_bytes,
                             exchange_end=pkt.exchange_end)
                self.engine.schedule(self.engine.now + self.sifs,
                                     lambda ev: sim.medium.transmit(nid, cts))
                sim.trace(nid, "smac-cts", "dst=%s", pkt.src)
                # release the reservation if the data never shows up
                st.pending_ev = self.engine.schedule(pkt.exchange_end + 2e-3,
                                                     lambda ev: self._rx_timeout(nid))
            else:
                self._overheard(nid, pkt)
        elif kind is PacketKind.CTS:
            if pkt.dst == nid:
                if st.role == "tx":
                    self._cancel_pending(st)
                    self.engine.schedule(self.engine.now + self.sifs,
                                         lambda ev: self._send_data(nid))
            else:
                self._overheard(nid, pkt)
        elif kind is PacketKind.DATA:
            if pkt.dst == nid and st.role == "rx" and pkt.src == st.peer:
                if not st.exchange["data_received"]:
                    st.exchange["data_received"] = True
                    sim.deliver_to(nid, (pkt,))
                ack = Packet(kind=PacketKind.ACK, src=nid, dst=pkt.src,
                             length=sim.scenario.ack_len, header=0)
                self.engine.schedule(
                    self.engine.now + self.sifs,
                    lambda ev: sim.medium.transmit(
                        nid, ack, on_resolved=lambda tx: self._exchange_over(nid, True)))
        elif kind is PacketKind.ACK:
            if pkt.dst == nid and st.role == "tx":
                self._cancel_pending(st)
                self._exchange_over(nid, success=True)
            elif st.awaiting and st.role is None:
                st.awaiting = False
                self._backoff(nid)

        if kind is PacketKind.DATA and pkt.dst != nid \
                and st.awaiting and st.role is None:
            # overheard someone else's data while deferring: contend again
            st.awaiting = False
            self._backoff(nid)

    def _send_data(self, nid):
        sim = self.sim
        node = sim.nodes[nid]
        st = self.states[nid]
        if not node.alive or st.role is None or not node.queue:
            return
        data = replace(node.queue[0], src=nid, dst=st.peer, header=sim.scenario.header_bytes)
        sim.medium.transmit(nid, data)
        ack_deadline = (self.engine.now + data.airtime(sim.model.radio_speed)
                        + self.sifs + self.ack_air + 2e-3)
        st.pending_ev = self.engine.schedule(ack_deadline, lambda ev: self._ack_timeout(nid))

    def _ack_timeout(self, nid):
        st = self.states[nid]
        st.pending_ev = None
        if st.role == "tx":
            self._exchange_over(nid, success=st.exchange["data_received"])

    def _rx_timeout(self, nid):
        st = self.states[nid]
        if st.role == "rx" and not st.exchange["data_received"]:
            st.pending_ev = None
            self.sim.trace(nid, "smac-rx-timeout")
            self._exchange_over(nid, success=False)

    def _exchange_over(self, nid, success):
        sim = self.sim
        st = self.states[nid]
        if st.role is None:
            return
        if st.role == "tx":
            if success or st.exchange["data_received"]:
                # reconcile: the parent holds the packet even if the ack died
                sim.remove_from_queue(nid, (st.exchange["uid"],))
        st.role = None
        st.peer = None
        st.done_frame = not self.adaptive
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
        """Foreign RTS or CTS: sleep through the announced exchange."""
        sim = self.sim
        st = self.states[nid]
        if st.role is not None:
            return
        st.nav_until = max(st.nav_until, pkt.exchange_end)
        self._cancel_pending(st)
        st.awake_until = 0.0
        if self.adaptive:
            remaining = max(pkt.exchange_end - self.engine.now, 0.0)
            err = self.rng_adaptive.uniform(-self.err, self.err)
            wake_at = self.engine.now + remaining * (1.0 + err)
            self.engine.cancel(st.wake_ev)
            st.wake_ev = self.engine.schedule(wake_at, lambda ev: self._adaptive_wake(nid))
            sim.trace(nid, "nav-sleep", "until~%.4f", wake_at)
        else:
            sim.trace(nid, "nav-sleep", "until=%.4f", pkt.exchange_end)
            self.engine.cancel(st.wake_ev)
            st.wake_ev = self.engine.schedule(st.nav_until,
                                              lambda ev: self._plain_nav_wake(nid))
        sim.sleep(nid)

    def _plain_nav_wake(self, nid):
        st = self.states[nid]
        st.wake_ev = None
        if not self.sim.nodes[nid].alive or st.role is not None:
            return
        if self.engine.now < self._listen_end:
            self.sim.wake(nid)   # listen out the rest of the common period
        # otherwise stay asleep until the next frame

    def _adaptive_wake(self, nid):
        sim = self.sim
        st = self.states[nid]
        st.wake_ev = None
        node = sim.nodes[nid]
        if not node.alive or st.role is not None:
            return
        sim.wake(nid)
        sim.trace(nid, "adaptive-wake")
        self._stay_awake(nid)

    def _stay_awake(self, nid):
        st = self.states[nid]
        st.awake_until = max(st.awake_until, self.engine.now + self.contention_window)
        self.engine.schedule(st.awake_until, lambda ev: self._awake_expiry(nid))
        if self.sim.nodes[nid].queue and self.sim.parent_of(nid) is not None:
            self._backoff(nid)

    def _awake_expiry(self, nid):
        st = self.states[nid]
        node = self.sim.nodes[nid]
        if (node.alive and st.role is None and self.engine.now >= st.awake_until
                and node.state is RadioState.LISTEN
                and self.engine.now >= self._listen_end):
            self.sim.sleep(nid)

    def on_corrupt(self, node, tx):
        st = self.states[node.id]
        if not node.alive or st.role is not None:
            return
        if st.awaiting and node.state is RadioState.LISTEN:
            st.awaiting = False
            self._backoff(node.id)

    def on_air_rise(self, node, tx):
        pass
