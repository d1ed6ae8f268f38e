"""Error-recovery analytics and event-level transfer procedures.

The closed forms bound how many packets (ARQ) or blocks (Seda) fit into a
sleep/communication budget under a one-retransmission-per-loss model. The
session classes execute the same procedures packet by packet through the
lossy medium; their agreement with the closed forms is an acceptance gate.
"""

from __future__ import annotations

import math

from .packets import Packet, PacketKind, airtime, readdressed


# -- contention analytics ---------------------------------------------------

def rts_success_prob(n, w, mode="distinct-slot"):
    """Probability that n mutually-hidden children of one parent all get their
    RTS through, given w contention mini-slots.

    "paper" evaluates the printed closed form C(w,n)*n*(1/w)^n; "distinct-slot"
    is the probability that all n slot choices differ, C(w,n)*n!*w^-n. The two
    coincide for n <= 2 and diverge beyond.
    """
    if n < 1 or w < 1:
        raise ValueError("n and w must be >= 1")
    if n > w:
        return 0.0
    if mode == "paper":
        p = math.comb(w, n) * n * (1.0 / w) ** n
    elif mode == "distinct-slot":
        p = math.comb(w, n) * math.factorial(n) / w ** n
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return min(max(p, 0.0), 1.0)


# -- capacity analytics ------------------------------------------------------

def arq_capacity(d_s, ber, sc):
    """Largest packet count whose send+ack cycles, with the expected
    single retransmission share, fit into the d_s budget of scenario `sc`."""
    if not 0.0 <= ber < 1.0:
        raise ValueError("ber must be in [0, 1)")
    if d_s <= sc.gamma_s:
        return 0
    lp_bits = 8 * (sc.payload_bytes + sc.header_bytes)
    lack_bits = 8 * sc.ack_len
    retrans = 2.0 - (1.0 - ber) ** lp_bits
    per_pkt = (lp_bits + lack_bits) * retrans / sc.radio_speed
    return int((d_s - sc.gamma_s) / per_pkt)


def seda_capacity(d_s, ber, sc):
    """Largest block count for one header-framed burst plus the expected
    recovery round (recovery frame, retransmission header, corrupted blocks)
    of scenario `sc`."""
    if not 0.0 <= ber < 1.0:
        raise ValueError("ber must be in [0, 1)")
    if d_s <= sc.gamma_s:
        return 0
    lb_bits = 8 * (sc.payload_bytes + sc.block_overhead)
    hdr_bits = 8 * sc.header_bytes
    rf_bits = 8 * sc.rf_overhead
    speed = sc.radio_speed
    p_block = 1.0 - (1.0 - ber) ** lb_bits

    def fits(mpf):
        p_any = 1.0 - (1.0 - ber) ** (lb_bits * mpf)
        e_corrupt = mpf * p_block
        t = (hdr_bits + mpf * lb_bits
             + p_any * (rf_bits + hdr_bits + e_corrupt * lb_bits)) / speed
        return t + sc.gamma_s <= d_s

    if not fits(1):
        return 0
    lo, hi = 1, max(2, int(d_s * speed / lb_bits) + 2)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


# -- event-level transfers ----------------------------------------------------
#
# Sessions run inside the engine. A session is its two nodes' active session
# from its construction until it finishes: both forward decoded packets to it,
# and timeouts drive retransmission. Reconciling queues against what actually
# arrived stands in for the protocols' sequence-number machinery, keeping
# payload conservation exact.


class TransferResult:
    __slots__ = ("started_packets", "delivered_packets", "recovery_frames")

    def __init__(self):
        # data packets sent, counted at their first transmission: a
        # retransmission adds none; a session's caller times it by `on_done`
        self.started_packets = 0
        self.delivered_packets = 0
        self.recovery_frames = 0


class _SessionBase:
    def __init__(self, sim, child, parent, windows, on_done):
        self.sim = sim
        self.sc = sim.scenario
        self.engine = sim.engine
        self.medium = sim.medium
        self.child = child
        self.parent = parent
        self.windows = list(windows)
        self.on_done = on_done
        self.result = TransferResult()
        self._timeout_ev = None
        sim.nodes[child].active_session = self
        sim.nodes[parent].active_session = self

    def _queue(self):
        return self.sim.nodes[self.child].queue

    def _finish(self):
        # no timer is pending here, and no node forwards to a finished session
        for nid in (self.child, self.parent):
            node = self.sim.nodes[nid]
            if node.active_session is self:
                node.active_session = None
        self.on_done(self)

    def _deliver(self, pkts):
        self.result.delivered_packets += len(pkts)
        self.sim.deliver_to(self.parent, pkts)

    def _fit(self, need):
        """Earliest start so that `need` seconds fit inside one window."""
        now = self.engine.now
        for s, e in self.windows:
            start = max(s, now)
            if start + need <= e + 1e-12:
                return start, e
        return None, None

    def _cancel_timer(self):
        self.engine.cancel(self._timeout_ev)
        self._timeout_ev = None

    def on_corrupt(self, node, tx):
        pass


class ArqSession(_SessionBase):
    """Stop-and-wait: one packet in flight, acknowledged even when the data
    was already held, retransmitted once on a silent timeout."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.current = None
        self.attempts = 0
        self.got_through = False     # parent decoded some attempt of current
        sc = self.sc
        # one data frame, its ack and the turnaround
        self.cycle = (airtime(sc.payload_bytes + sc.header_bytes, sc.radio_speed)
                      + airtime(sc.ack_len, sc.radio_speed) + sc.turnaround_s)

    def start(self):
        self._next_packet()

    def _next_packet(self):
        q = self._queue()
        if not q:
            self._finish()
            return
        self.current = q[0]
        self.attempts = 0
        self.got_through = False
        self._send_attempt()

    def _send_attempt(self):
        nodes = self.sim.nodes
        start, _ = self._fit(self.cycle)
        if start is None or not (nodes[self.child].alive and nodes[self.parent].alive):
            # no room for another cycle, or a node died: reconcile and stop
            if self.got_through:
                self._pop_current(delivered=True)
            self._finish()
            return
        if start > self.engine.now + 1e-12:
            self.engine.schedule(start, lambda ev: self._send_attempt())
            return
        if not self.attempts:
            self.result.started_packets += 1
        self.attempts += 1
        sc = self.sc
        data = readdressed(self.current, self.child, self.parent, sc.header_bytes)
        t_end = self.medium.transmit(self.child, data)
        # the instant-ack case resolves exactly at t_end + ack airtime; the
        # 1 us slack keeps the timeout strictly after that resolution
        timeout = t_end + airtime(sc.ack_len, sc.radio_speed) + sc.turnaround_s + 1e-6
        self._timeout_ev = self.engine.schedule(timeout, self._on_timeout)

    def on_packet(self, node, pkt, sinr):
        """A frame decoded at `node`; `sinr` (a linear ratio) is unused,
        since an ARQ frame is received whole or not at all."""
        if node == self.parent and pkt.kind is PacketKind.DATA and pkt.src == self.child:
            # the child sends only the current packet
            if not self.got_through:
                self.got_through = True
                self._deliver((self.current,))
            # acknowledge every decoded data frame, duplicates included
            ack = Packet(kind=PacketKind.ACK, src=self.parent, dst=self.child,
                         length=self.sc.ack_len, header=0)
            self.medium.transmit(self.parent, ack)
        elif node == self.child and pkt.kind is PacketKind.ACK and pkt.src == self.parent:
            self._ack_received()

    def _ack_received(self):
        self._cancel_timer()
        self._pop_current(delivered=True)
        if not self._queue():
            self._finish()
            return
        gap = self.sc.turnaround_s
        if gap > 0:
            self.engine.schedule(self.engine.now + gap, lambda ev: self._next_packet())
        else:
            self._next_packet()

    def _on_timeout(self, event):
        self._timeout_ev = None
        if self.attempts <= self.sc.retry_cap:
            self._send_attempt()
        else:
            # retry budget exhausted; reconcile against what actually arrived
            self._pop_current(delivered=self.got_through)
            self._next_packet()

    def _pop_current(self, delivered):
        # every caller holds a current packet
        self.sim.remove_from_queue(self.child, self.current.uid)
        if not delivered:
            self.sim.ledger.record_drop()
        self.current = None


class SedaSession(_SessionBase):
    """Block-framed burst with one recovery round: no per-packet ACKs, the
    receiver reports corrupted blocks once, the sender retransmits only those.

    A corrupted recovery frame falls back to retransmitting the whole burst.
    The burst size is planned from the capacity bound at the link's own bit
    error rate estimate, so the recovery round is expected to fit the
    remaining window.

    A burst is the head of the child's queue, and its frames name blocks by
    their position in it. While the session runs nothing else removes
    packets from that queue, and every queued uid is distinct, so a position
    names the same packet for the whole burst and a per-position flag marks a
    block delivered at most once.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.link_ber = self.sim.link_ber_estimate(self.child, self.parent)
        self.block_len = self.sc.payload_bytes + self.sc.block_overhead
        self.burst = []              # the child's queue head, in queue order
        self.delivered = []          # per position: the parent holds the block
        self.retried = []            # per position: the block flew in a retransmission
        self.n_delivered = 0
        self.phase = "idle"          # idle | data | retrans
        self._window_end = None

    def start(self):
        self._next_burst()

    # -- child side -----------------------------------------------------

    def _next_burst(self):
        if not (self.sim.nodes[self.child].alive and self.sim.nodes[self.parent].alive):
            self._finish()
            return
        q = self._queue()
        if not q:
            self._finish()
            return
        start, end = self._fit(self._frame_airtime(1))
        if start is None:
            self._finish()
            return
        if start > self.engine.now + 1e-12:
            self.engine.schedule(start, lambda ev: self._next_burst())
            return
        budget = end - self.engine.now
        plan = seda_capacity(budget, self.link_ber, self.sc)
        if plan < 1:
            plan = 1  # a one-block frame already fits: push at least one block
        self.burst = burst = q[:plan]
        n = len(burst)
        self.delivered = [False] * n
        self.retried = [False] * n
        self.n_delivered = 0
        self._window_end = end
        self.result.started_packets += n
        self.phase = "data"
        self._send_frame(range(n), await_recovery=True)

    def _frame_airtime(self, blocks):
        return airtime(self.sc.header_bytes + blocks * self.block_len, self.sc.radio_speed)

    def _send_frame(self, blocks, await_recovery):
        sc = self.sc
        frame = Packet(kind=PacketKind.SEDA_BLOCK, src=self.child, dst=self.parent,
                       length=len(blocks) * self.block_len, header=sc.header_bytes,
                       blocks=blocks)
        t_end = self.medium.transmit(self.child, frame)
        if await_recovery:
            rf_time = airtime(sc.rf_overhead + sc.header_bytes, sc.radio_speed)
            deadline = t_end + rf_time + sc.turnaround_s + 1e-6
        else:
            deadline = t_end + 1e-6
        self._timeout_ev = self.engine.schedule(deadline, self._on_deadline)

    def _on_deadline(self, event):
        self._timeout_ev = None
        # data phase + silence means no recovery frame arrived: either the
        # burst was clean or nothing useful can be learned; reconcile.
        self._resolve_burst()

    def on_corrupt(self, node, tx):
        """The child heard garbage while waiting for the recovery report."""
        if node != self.child or self.phase != "data":
            return
        if tx.sender != self.parent or tx.packet.kind is not PacketKind.RECOVERY_FRAME:
            return
        self._retransmit_or_resolve(range(len(self.burst)))

    def _retransmit_or_resolve(self, blocks):
        """Resend the blocks at positions `blocks` once if their frame fits
        the window, else close the burst."""
        self._cancel_timer()
        # a burst is never empty, and neither is a recovery report
        if self._window_end - self.engine.now >= self._frame_airtime(len(blocks)):
            self.phase = "retrans"
            retried = self.retried
            for i in blocks:
                retried[i] = True
            self._send_frame(blocks, await_recovery=False)
        else:
            self._resolve_burst()

    # -- parent side ------------------------------------------------------

    def _parent_got_frame(self, pkt, sinr):
        blocks = pkt.blocks
        flips = self.medium.block_corruption_draws(sinr, len(blocks), self.block_len)
        burst, delivered = self.burst, self.delivered
        corrupt, got = [], []
        for i, bad in zip(blocks, flips):
            if bad:
                corrupt.append(i)
            elif not delivered[i]:
                delivered[i] = True
                got.append(burst[i])
        if got:
            self.n_delivered += len(got)
            self._deliver(got)
        # the child sends one frame in the data phase, so at most one report
        if self.phase == "data" and corrupt:
            self.result.recovery_frames += 1
            rf = Packet(kind=PacketKind.RECOVERY_FRAME, src=self.parent,
                        dst=self.child, length=self.sc.rf_overhead,
                        header=self.sc.header_bytes, blocks=tuple(corrupt))
            self.medium.transmit(self.parent, rf)

    # -- shared -----------------------------------------------------------

    def on_packet(self, node, pkt, sinr):
        """A frame decoded at `node`. The parent draws a block frame's
        per-block corruption at `sinr`, the frame's worst-case SINR as a
        linear ratio (not dB)."""
        if node == self.parent and pkt.kind is PacketKind.SEDA_BLOCK and pkt.src == self.child:
            self._parent_got_frame(pkt, sinr)
        elif node == self.child and pkt.kind is PacketKind.RECOVERY_FRAME and pkt.src == self.parent:
            self._retransmit_or_resolve(pkt.blocks)

    def _resolve_burst(self):
        """Burst over: delivered blocks leave the queue, blocks that lost
        their retransmission drop, and the rest stay at the queue's head, in
        queue order, for the next frame."""
        burst, got = self.burst, self.n_delivered
        n = len(burst)
        if got == n:
            kept = []
        else:
            kept = [p for p, d, r in zip(burst, self.delivered, self.retried)
                    if not (d or r)]
        self.sim.replace_queue_head(self.child, n, kept)
        lost = n - len(kept) - got
        if lost:
            self.sim.ledger.record_drop(lost)
        self.burst = []
        self.phase = "idle"
        gap = self.sc.turnaround_s + 1e-6
        self.engine.schedule(self.engine.now + gap, lambda ev: self._next_burst())


# `Scenario.recovery` names the session class every transfer runs
SESSIONS = {"arq": ArqSession, "seda": SedaSession}
