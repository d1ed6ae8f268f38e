"""The slotted interference-avoiding MAC.

Each wake cycle runs Synch/Routing, RTS, CTS and Sleep/Communication slots
(long cycles chain Time Frames, with RTS/CTS only in the first). Cross-layer
parent knowledge drives the interference rules: an overheard RTS headed for a
node's own parent flips it from prospective receiver to prospective sender; an
overheard RTS or CTS belonging to any other pair deactivates it until the next
frame. Granted children transfer to their parent back to back in grant order.
"""

from __future__ import annotations

from .energy import RadioState
from .packets import Packet, PacketKind, airtime
from .recovery import SESSIONS

CTS_GUARD = 0.001


class IamacNodeState:
    __slots__ = ("active", "received_rtss", "cancel_cts", "awaiting", "sent_rts",
                 "granted", "committed_rx", "pending_ev", "window_start", "grants")

    def __init__(self):
        self.active = True
        self.received_rtss = []
        self.cancel_cts = False
        self.awaiting = False
        self.sent_rts = False
        self.granted = False
        self.committed_rx = False
        self.pending_ev = None
        self.window_start = 0.0
        self.grants = []


class IamacDriver:
    def __init__(self, sim):
        self.sim = sim
        self.engine = sim.engine
        sc = sim.scenario
        # a CTS is as long as an RTS
        self.rts_air = sc.control_air
        self.plan = sc.frame_plan()
        self.period = self.plan.cycle
        self.rng = sim.streams.draws("contention")
        self.parents = sim.parents
        self.states = [IamacNodeState() for _ in range(sim.topo.n)]
        self.phase = "idle"
        self.cycle_start = 0.0

    # -- cycle scheduling --------------------------------------------------------

    def start(self, t0):
        """Open one wake cycle at `t0`, with fresh node states."""
        plan = self.plan
        self.cycle_start = t0
        self.phase = "synch"
        self.states = [IamacNodeState() for _ in self.states]
        self.engine.schedule(plan.rts_start(t0), self._rts_begin)
        self.engine.schedule(plan.cts_start(t0), self._cts_begin)
        self.engine.schedule(plan.cts_start(t0) + plan.cts_slot, self._comm_begin)
        for k, t_synch in enumerate(plan.synch_starts(t0)):
            if k > 0:
                self.engine.schedule(t_synch, self._mid_synch_begin)
                self.engine.schedule(t_synch + plan.synch_slot, self._mid_synch_end)

    def _mid_synch_begin(self, event):
        # deactivated nodes stay asleep until the next frame boundary
        for node in self.sim.nodes:
            if self.states[node.id].active:
                self.sim.wake(node.id)
        self.sim.charge_synch_slot()

    def _mid_synch_end(self, event):
        # only transfer participants stay awake once the beacon slot closes
        for node in self.sim.nodes:
            if node.active_session is None and node.state == RadioState.LISTEN:
                self.sim.sleep(node.id)

    # -- RTS slot -------------------------------------------------------------------

    def _rts_begin(self, event):
        self.phase = "rts"
        sim = self.sim
        # every state is fresh from `start`: nothing has deactivated yet
        for node in sim.nodes:
            if node.alive and node.queue and self.parents[node.id] is not None:
                self._pick_contention(node.id, min_slot=0)

    def _pick_contention(self, nid, min_slot):
        st = self.states[nid]
        plan = self.plan
        remaining = plan.w - min_slot
        if remaining <= 0:
            st.awaiting = False
            if self.sim.trace_enabled:
                self.sim.trace(nid, "contention-exhausted")
            return
        injected = self.sim.fixed_contention.get(nid)
        if injected:
            slot, backoff = injected.pop(0)
        else:
            slot = min_slot + self.rng.integers(0, remaining)
            backoff = plan.max_backoff * self.rng.random()
        st.awaiting = False
        st.window_start = plan.mini_slot_start(self.cycle_start, slot)
        st.pending_ev = self.engine.schedule(st.window_start + backoff,
                                             lambda ev: self._rts_attempt(nid))

    def _rts_attempt(self, nid):
        sim = self.sim
        node = sim.nodes[nid]
        st = self.states[nid]
        st.pending_ev = None
        # deactivation and the end of contention cancel this; a death does not
        if not node.alive:
            return
        if sim.medium.sensed_since(nid, st.window_start):
            # something was on the air during the sensing window: hold off and
            # act on whatever that packet turns out to be
            st.awaiting = True
            return
        parent = self.parents[nid]
        sc = sim.scenario
        rts = Packet(PacketKind.RTS, nid, parent, sc.control_bytes + sc.header_bytes)
        sim.medium.transmit(nid, rts)
        st.sent_rts = True
        st.cancel_cts = True
        st.received_rtss = []
        if sim.trace_enabled:
            sim.trace(nid, "rts-tx", "dst=%s", parent)

    def _current_mini_slot(self):
        rel = self.engine.now - self.plan.rts_start(self.cycle_start)
        return int(rel / self.plan.mini_slot)

    def _handle_rts(self, node, pkt):
        sim = self.sim
        nid = node.id
        st = self.states[nid]
        parent = self.parents[nid]
        if pkt.dst == nid:
            st.received_rtss.append(pkt)
            if sim.trace_enabled:
                sim.trace(nid, "rts-queued", "from=%s", pkt.src)
            # a node that sent its RTS holds no attempt and awaits nothing
            self._cancel_pending(st)
        elif parent is not None and pkt.dst == parent:
            # answering a child now could collide with the overheard pair's
            # transfer at my parent, so the responder role is off for this
            # frame no matter what arrives later
            st.cancel_cts = True
            if st.received_rtss:
                st.received_rtss = []
                if sim.trace_enabled:
                    sim.trace(nid, "rts-queue-deleted", "overheard=%s->%s",
                              pkt.src, pkt.dst)
                if node.queue and not st.sent_rts:
                    self._pick_contention(nid, self._current_mini_slot() + 1)
                    if sim.trace_enabled:
                        sim.trace(nid, "became-prospective-sender")
            elif st.pending_ev is not None or st.awaiting:
                # still contending, so no RTS sent yet
                self._cancel_pending(st)
                slot = self._current_mini_slot()
                self._pick_contention(nid, slot + 1)
                if sim.trace_enabled:
                    sim.trace(nid, "repick", "after-slot=%s", slot)
            # already-transmitted contenders and idle listeners stay as they are
        else:
            self._deactivate(nid, "rts-for-other-pair")

    def _cancel_pending(self, st):
        self.engine.cancel(st.pending_ev)
        st.pending_ev = None
        st.awaiting = False

    # -- CTS slot -----------------------------------------------------------------------

    def _cts_begin(self, event):
        self.phase = "cts"
        sim = self.sim
        plan = self.plan
        fit_cap = max(1, int((plan.cts_slot - CTS_GUARD) / self.rts_air))
        for node in sim.nodes:
            st = self.states[node.id]
            if not node.alive or not st.active:
                continue
            if not st.received_rtss or st.cancel_cts:
                continue
            st.grants = [p.src for p in st.received_rtss[:fit_cap]]
            train = len(st.grants) * self.rts_air
            headroom = max(plan.cts_slot - train - CTS_GUARD, 0.0)
            timer = headroom * self.rng.random() if headroom > 0 else 0.0
            self.engine.schedule(self.engine.now + timer,
                                 lambda ev, nid=node.id: self._cts_attempt(nid))

    def _cts_attempt(self, nid):
        sim = self.sim
        node = sim.nodes[nid]
        st = self.states[nid]
        if not node.alive or not st.active or st.cancel_cts:
            return
        if sim.medium.carrier_busy(nid):
            if sim.trace_enabled:
                sim.trace(nid, "cts-suppressed-busy")
            self._deactivate(nid, "busy-at-cts-timer")
            return
        st.committed_rx = True
        if sim.trace_enabled:
            sim.trace(nid, "cts-train", "grants=%s", st.grants)
        self._send_cts(nid, 0)

    def _send_cts(self, nid, idx):
        st = self.states[nid]
        node = self.sim.nodes[nid]
        if not node.alive or idx >= len(st.grants):
            return
        sc = self.sim.scenario
        cts = Packet(PacketKind.CTS, nid, st.grants[idx], sc.control_bytes + sc.header_bytes)
        self.sim.medium.transmit(nid, cts,
                                 on_resolved=lambda tx: self._send_cts(nid, idx + 1))

    def _handle_cts(self, node, pkt):
        sim = self.sim
        nid = node.id
        st = self.states[nid]
        if pkt.dst == nid:
            st.granted = True
            if sim.trace_enabled:
                sim.trace(nid, "granted", "by=%s", pkt.src)
        elif pkt.src == self.parents[nid]:
            pass  # a sibling's grant in my own parent's train: mine may follow
        elif st.committed_rx or st.granted:
            pass  # committed roles ride out foreign grants
        else:
            self._deactivate(nid, "cts-for-other-pair")

    # -- Sleep/Communication slot ----------------------------------------------------------

    def _comm_begin(self, event):
        self.phase = "comm"
        sim = self.sim
        # a committed receiver always holds at least one grant
        receivers = [node.id for node in sim.nodes
                     if node.alive and self.states[node.id].committed_rx]
        party = set(receivers).union(*(self.states[rid].grants for rid in receivers))
        for node in sim.nodes:
            if node.alive and node.id not in party:
                sim.sleep(node.id)
        # shave the window tail so trailing timers resolve inside the frame
        sc = sim.scenario
        guard = airtime(sc.rf_overhead + sc.header_bytes, sc.radio_speed) + sc.turnaround_s + 0.001
        windows = [(s, e - guard) for s, e in self.plan.comm_windows(self.cycle_start)
                   if e - guard > s]
        for rid in receivers:
            self._next_transfer(rid, iter(self.states[rid].grants), windows)

    def _next_transfer(self, parent, children, windows):
        """Greedy grant-order handoff: the next granted child with a queue transfers
        to `parent`; its session's end resumes `children`, then the parent sleeps."""
        sim = self.sim
        for child in children:
            if not sim.nodes[parent].alive:
                return
            st_child = self.states[child]
            node = sim.nodes[child]
            # a grant that never reached its child (it deactivated or slept
            # through the train) forfeits its window; it is not resurrected
            if not (st_child.granted and st_child.active) or not node.alive or not node.queue:
                continue
            sim.wake(child)

            def done(session):
                sim.sleep(child)
                self._next_transfer(parent, children, windows)

            SESSIONS[sim.scenario.recovery](sim, child, parent, windows, done).start()
            return
        sim.sleep(parent)

    # -- shared handlers ----------------------------------------------------------------------
    # (a deactivated node sleeps until the next frame starts it afresh: none reaches them)

    def on_packet(self, node, pkt, sinr):
        if pkt.kind is PacketKind.RTS and self.phase == "rts":
            self._handle_rts(node, pkt)
        elif pkt.kind is PacketKind.CTS and self.phase == "cts":
            self._handle_cts(node, pkt)

    def on_corrupt(self, node, tx):
        st = self.states[node.id]
        if self.phase == "rts":
            if st.awaiting:
                self._pick_contention(node.id, self._current_mini_slot() + 1)
                if self.sim.trace_enabled:
                    self.sim.trace(node.id, "repick-undecodable")
        elif self.phase == "cts":
            if not (st.committed_rx or st.granted):
                self._deactivate(node.id, "undecodable-in-cts")

    def on_air_rise(self, node, tx):
        pass

    def _deactivate(self, nid, why):
        st = self.states[nid]
        st.active = False
        self._cancel_pending(st)
        self.sim.sleep(nid)
        if self.sim.trace_enabled:
            self.sim.trace(nid, "deactivated", why)

