"""Error-recovery analytics and event-level transfer procedures.

The closed forms bound how many packets (ARQ) or blocks (Seda) fit into a
sleep/communication budget under a one-retransmission-per-loss model. The
session classes execute the same procedures packet by packet through the
lossy medium; their agreement with the closed forms is an acceptance gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .packets import Packet, PacketKind


@dataclass
class RecoveryParams:
    payload_len: int = 29        # bytes per payload unit
    hdr_len: int = 16            # physical + MAC header
    block_overhead: int = 2
    ack_len: int = 23            # on air, header included
    rf_overhead: int = 5         # recovery frame body
    radio_speed: float = 19200.0
    gamma: float = 0.0           # fixed per-budget overhead, normally negligible
    retry_cap: int = 1           # retransmissions per packet/block
    turnaround: float = 0.0      # inter-cycle gap and timeout slack

    @property
    def pkt_len(self):
        return self.payload_len + self.hdr_len

    @property
    def block_len(self):
        return self.payload_len + self.block_overhead

    def airtime_bytes(self, nbytes):
        return 8.0 * nbytes / self.radio_speed


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

def arq_capacity(d_s, ber, params=None):
    """Largest packet count whose send+ack cycles, with the expected
    single retransmission share, fit into the d_s budget."""
    params = params or RecoveryParams()
    if not 0.0 <= ber < 1.0:
        raise ValueError("ber must be in [0, 1)")
    if d_s <= params.gamma:
        return 0
    lp_bits = 8 * params.pkt_len
    lack_bits = 8 * params.ack_len
    retrans = 2.0 - (1.0 - ber) ** lp_bits
    per_pkt = (lp_bits + lack_bits) * retrans / params.radio_speed
    return int((d_s - params.gamma) / per_pkt)


def seda_capacity(d_s, ber, params=None):
    """Largest block count for one header-framed burst plus the expected
    recovery round (recovery frame, retransmission header, corrupted blocks)."""
    params = params or RecoveryParams()
    if not 0.0 <= ber < 1.0:
        raise ValueError("ber must be in [0, 1)")
    if d_s <= params.gamma:
        return 0
    lb_bits = 8 * params.block_len
    hdr_bits = 8 * params.hdr_len
    rf_bits = 8 * params.rf_overhead
    speed = params.radio_speed
    p_block = 1.0 - (1.0 - ber) ** lb_bits

    def fits(mpf):
        p_any = 1.0 - (1.0 - ber) ** (lb_bits * mpf)
        e_corrupt = mpf * p_block
        t = (hdr_bits + mpf * lb_bits
             + p_any * (rf_bits + hdr_bits + e_corrupt * lb_bits)) / speed
        return t + params.gamma <= d_s

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
# Sessions run inside the engine. The receiving node forwards decoded packets
# to its active session; timeouts drive retransmission. Reconciling queues
# against what actually arrived stands in for the protocols' sequence-number
# machinery, keeping payload conservation exact.


class TransferResult:
    __slots__ = ("delivered_packets", "recovery_frames", "elapsed")

    def __init__(self):
        self.delivered_packets = 0
        self.recovery_frames = 0
        self.elapsed = 0.0


class _SessionBase:
    def __init__(self, sim, child, parent, windows, params, on_done):
        self.sim = sim
        self.engine = sim.engine
        self.medium = sim.medium
        self.child = child
        self.parent = parent
        self.windows = list(windows)
        self.params = params
        self.on_done = on_done
        self.result = TransferResult()
        self.done = False
        self._t0 = self.engine.now
        self._timeout_ev = None

    def _queue(self):
        return self.sim.nodes[self.child].queue

    def _finish(self):
        if self.done:
            return
        self.done = True
        self.result.elapsed = self.engine.now - self._t0
        cb, self.on_done = self.on_done, None
        if cb is not None:
            cb(self)

    def _deliver(self, pkt):
        self.result.delivered_packets += 1
        self.sim.deliver_to(self.parent, pkt)

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

    def start(self):
        self._next_packet()

    def _cycle_time(self):
        p = self.params
        return (p.airtime_bytes(p.pkt_len) + p.airtime_bytes(p.ack_len)
                + p.turnaround)

    def _next_packet(self):
        if self.done:
            return
        q = self._queue()
        if not q:
            self._finish()
            return
        self.current = q[0]
        self.attempts = 0
        self.got_through = False
        start, _ = self._fit(self._cycle_time())
        if start is None:
            self._finish()
            return
        self.sim.ledger.data_packets_started += 1
        self._send_attempt()

    def _send_attempt(self):
        if self.done:
            return
        if not (self.sim.nodes[self.child].alive and self.sim.nodes[self.parent].alive):
            self._finish()
            return
        start, _ = self._fit(self._cycle_time())
        if start is None:
            # no room for another cycle: reconcile and stop
            if self.got_through:
                self._pop_current(delivered=True)
            self._finish()
            return
        if start > self.engine.now + 1e-12:
            self.engine.schedule(start, lambda ev: self._send_attempt())
            return
        self.attempts += 1
        pkt = self.current
        data = Packet(kind=PacketKind.DATA, src=self.child, dst=self.parent,
                      length=pkt.payload_len, header=self.params.hdr_len,
                      born_at=pkt.born_at, origin=pkt.origin,
                      payload_len=pkt.payload_len, uid=pkt.uid)
        t_end = self.medium.transmit(self.child, data)
        # the instant-ack case resolves exactly at t_end + ack airtime; the
        # 1 us slack keeps the timeout strictly after that resolution
        timeout = (t_end + self.params.airtime_bytes(self.params.ack_len)
                   + self.params.turnaround + 1e-6)
        self._timeout_ev = self.engine.schedule(timeout, self._on_timeout)

    def on_packet(self, node, pkt, sinr):
        if self.done or self.current is None:
            return
        if node == self.parent and pkt.kind is PacketKind.DATA and pkt.src == self.child:
            if pkt.uid == self.current.uid and not self.got_through:
                self.got_through = True
                self._deliver(self.current)
            # acknowledge every decoded data frame, duplicates included
            ack = Packet(kind=PacketKind.ACK, src=self.parent, dst=self.child,
                         length=self.params.ack_len, header=0)
            self.medium.transmit(self.parent, ack)
        elif node == self.child and pkt.kind is PacketKind.ACK and pkt.src == self.parent:
            self._ack_received()

    def _ack_received(self):
        self._cancel_timer()
        self._pop_current(delivered=True)
        if not self._queue():
            self._finish()
            return
        gap = self.params.turnaround
        if gap > 0:
            self.engine.schedule(self.engine.now + gap, lambda ev: self._next_packet())
        else:
            self._next_packet()

    def _on_timeout(self, event):
        self._timeout_ev = None
        if self.done:
            return
        if self.attempts <= self.params.retry_cap:
            self._send_attempt()
        else:
            # retry budget exhausted; reconcile against what actually arrived
            self._pop_current(delivered=self.got_through)
            self._next_packet()

    def _pop_current(self, delivered):
        if self.current is None:
            return
        self.sim.remove_from_queue(self.child, self.current.uid)
        if not delivered:
            self.sim.ledger.record_drop()
        self.current = None


class SedaSession(_SessionBase):
    """Block-framed burst with one recovery round: no per-packet ACKs, the
    receiver reports corrupted blocks once, the sender retransmits only those.

    A corrupted recovery frame falls back to retransmitting the whole burst.
    The burst size is planned from the capacity bound at the link's bit error
    rate, so the recovery round is expected to fit the remaining window.
    """

    def __init__(self, *args, link_ber=0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.link_ber = link_ber
        self.burst = []
        self.delivered_uids = set()
        self.retrans_uids = set()    # blocks that flew in a retransmission
        self.phase = "idle"          # idle | data | retrans
        self._window_end = None
        self._rf_sent = False

    def start(self):
        self._next_burst()

    # -- child side -----------------------------------------------------

    def _next_burst(self):
        if self.done:
            return
        if not (self.sim.nodes[self.child].alive and self.sim.nodes[self.parent].alive):
            self._finish()
            return
        q = self._queue()
        if not q:
            self._finish()
            return
        min_need = self.params.airtime_bytes(self.params.hdr_len + self.params.block_len)
        start, end = self._fit(min_need)
        if start is None:
            self._finish()
            return
        if start > self.engine.now + 1e-12:
            self.engine.schedule(start, lambda ev: self._next_burst())
            return
        budget = end - self.engine.now
        plan = seda_capacity(budget, self.link_ber, self.params)
        if plan < 1:
            plan = 1  # min_need already fits: push at least one block
        self.burst = list(q[:plan])
        self.delivered_uids = set()
        self.retrans_uids = set()
        self._rf_sent = False
        self._window_end = end
        self.sim.ledger.data_packets_started += len(self.burst)
        self.phase = "data"
        self._send_frame([p.uid for p in self.burst], await_recovery=True)

    def _send_frame(self, uids, await_recovery):
        nbytes = self.params.hdr_len + len(uids) * self.params.block_len
        frame = Packet(kind=PacketKind.SEDA_BLOCK, src=self.child, dst=self.parent,
                       length=nbytes - self.params.hdr_len, header=self.params.hdr_len,
                       block_uids=tuple(uids))
        t_end = self.medium.transmit(self.child, frame)
        self._cancel_timer()
        if await_recovery:
            rf_time = self.params.airtime_bytes(self.params.rf_overhead + self.params.hdr_len)
            deadline = t_end + rf_time + self.params.turnaround + 1e-6
        else:
            deadline = t_end + 1e-6
        self._timeout_ev = self.engine.schedule(deadline, self._on_deadline)

    def _on_deadline(self, event):
        self._timeout_ev = None
        if self.done:
            return
        # data phase + silence means no recovery frame arrived: either the
        # burst was clean or nothing useful can be learned; reconcile.
        self._resolve_burst()

    def on_corrupt(self, node, tx):
        """The child heard garbage while waiting for the recovery report."""
        if self.done or node != self.child or self.phase != "data":
            return
        if tx.sender != self.parent or tx.packet.kind is not PacketKind.RECOVERY_FRAME:
            return
        self._cancel_timer()
        uids = [p.uid for p in self.burst]
        need = self.params.airtime_bytes(
            self.params.hdr_len + len(uids) * self.params.block_len)
        if self._window_end - self.engine.now >= need:
            self.phase = "retrans"
            self.retrans_uids.update(uids)
            self._send_frame(uids, await_recovery=False)
        else:
            self._resolve_burst()

    def _recovery_received(self, pkt):
        self._cancel_timer()
        corrupt = list(pkt.block_uids)
        need = self.params.airtime_bytes(
            self.params.hdr_len + len(corrupt) * self.params.block_len)
        if corrupt and self._window_end - self.engine.now >= need:
            self.phase = "retrans"
            self.retrans_uids.update(corrupt)
            self._send_frame(corrupt, await_recovery=False)
        else:
            self._resolve_burst()

    # -- parent side ------------------------------------------------------

    def _parent_got_frame(self, pkt, sinr):
        by_uid = {p.uid: p for p in self.burst}
        flips = self.medium.block_corruption_draws(
            sinr, len(pkt.block_uids), self.params.block_len)
        corrupt = []
        for uid, bad in zip(pkt.block_uids, flips):
            if bad:
                corrupt.append(uid)
            elif uid not in self.delivered_uids:
                self.delivered_uids.add(uid)
                self._deliver(by_uid[uid])
        if self.phase == "data" and corrupt and not self._rf_sent:
            self._rf_sent = True
            self.result.recovery_frames += 1
            rf = Packet(kind=PacketKind.RECOVERY_FRAME, src=self.parent,
                        dst=self.child, length=self.params.rf_overhead,
                        header=self.params.hdr_len, block_uids=tuple(corrupt))
            self.medium.transmit(self.parent, rf)

    # -- shared -----------------------------------------------------------

    def on_packet(self, node, pkt, sinr):
        if self.done:
            return
        if node == self.parent and pkt.kind is PacketKind.SEDA_BLOCK and pkt.src == self.child:
            self._parent_got_frame(pkt, sinr)
        elif node == self.child and pkt.kind is PacketKind.RECOVERY_FRAME and pkt.src == self.parent:
            self._recovery_received(pkt)

    def _resolve_burst(self):
        """Burst over: delivered blocks leave the queue, blocks that lost
        their retransmission drop, the rest stay queued for the next frame."""
        self._cancel_timer()
        for p in self.burst:
            if p.uid in self.delivered_uids:
                self.sim.remove_from_queue(self.child, p.uid)
            elif p.uid in self.retrans_uids:
                self.sim.remove_from_queue(self.child, p.uid)
                self.sim.ledger.record_drop()
        self.burst = []
        self.phase = "idle"
        gap = self.params.turnaround + 1e-6
        self.engine.schedule(self.engine.now + gap, lambda ev: self._next_burst())
