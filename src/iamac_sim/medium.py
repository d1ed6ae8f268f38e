"""On-air transmission registry: carrier sensing, SINR tracking and the
per-packet reception draw.

A reception is opened for every sense-range listener that is in listen state
when the first bit hits the air, tracks its worst-case SINR across every
on-air change, and resolves with a single uniform draw against the packet
reception probability at that minimum SINR. Concurrent data transmitters in
sense range are collected per data reception for the colliding-set metric.
"""

from __future__ import annotations

from .channel import sinr_db
from .energy import RadioState
from .packets import PacketKind

CONTROL_KINDS = (PacketKind.SYNCH_ROUTING, PacketKind.RTS, PacketKind.CTS)
DATA_KINDS = (PacketKind.DATA, PacketKind.SEDA_BLOCK)
LISTEN = RadioState.LISTEN


def _sender_tables(rx_mw, listeners):
    """Per sender: its listener ids and their received power in mW, as plain
    ints and floats in the topology's order, so the per-event loops do no
    numpy scalar indexing."""
    return [(ids.tolist(), rx_mw[i][ids].tolist()) for i, ids in enumerate(listeners)]


class Transmission:
    __slots__ = ("sender", "packet", "t_start", "t_end", "on_resolved")

    def __init__(self, sender, packet, t_start, t_end, on_resolved=None):
        self.sender = sender
        self.packet = packet
        self.t_start = t_start
        self.t_end = t_end
        self.on_resolved = on_resolved


class Reception:
    __slots__ = ("tx", "listener", "wanted_mw", "max_other_mw", "live", "interferers")

    def __init__(self, tx, listener, wanted_mw, other_mw, track_interferers):
        self.tx = tx
        self.listener = listener
        self.wanted_mw = wanted_mw
        self.max_other_mw = other_mw
        self.live = True
        self.interferers = set() if track_interferers else None


class Medium:
    def __init__(self, engine, topology, streams, control_corruption_disabled=False):
        self.engine = engine
        self.topo = topology
        self.model = topology.model
        self.noise_mw = topology.model.noise_mw
        self.busy_thr_mw = topology.busy_thr_mw
        self.rng = streams.stream("channel")
        self.control_corruption_disabled = control_corruption_disabled

        self.influence_out = _sender_tables(topology.rx_mw, topology.influence_out)
        self.sense_out = _sender_tables(topology.rx_mw, topology.sense_out)

        n = topology.n
        self.nodes = [None] * n          # wired by the simulation
        self.onair_mw = [0.0] * n        # summed on-air power present at each node
        self.receptions = [dict() for _ in range(n)]  # listener -> {tx: Reception}
        self.active_data = set()

        # metrics hooks, wired by the simulation
        self.on_data_reception_resolved = None  # fn(rec, delivered)
        self.tx_log = None                      # list for the offline CS oracle

    # -- state queries ---------------------------------------------------

    def carrier_busy(self, node):
        return self.onair_mw[node] > self.busy_thr_mw

    # -- transmission lifecycle -------------------------------------------

    def transmit(self, sender, packet, on_resolved=None):
        """Put a packet on the air; returns its end time."""
        now = self.engine.now
        duration = packet.airtime(self.model.radio_speed)
        tx = Transmission(sender, packet, now, now + duration, on_resolved)
        nodes = self.nodes
        nodes[sender].radio_begin_tx(tx.t_end)

        is_data = packet.kind in DATA_KINDS
        active_data = self.active_data
        if is_data:
            active_data.add(tx)
            if self.tx_log is not None:
                self.tx_log.append((sender, now, tx.t_end))

        onair = self.onair_mw
        receptions = self.receptions
        for j, p in zip(*self.influence_out[sender]):
            total = onair[j] = onair[j] + p
            open_here = receptions[j]
            if open_here:
                for rec in open_here.values():
                    if rec.live:
                        other = total - rec.wanted_mw
                        if other > rec.max_other_mw:
                            rec.max_other_mw = other

        sense_in = self.topo.sense_in
        for j, p in zip(*self.sense_out[sender]):
            node = nodes[j]
            if not node.alive:
                continue
            open_here = receptions[j]
            if node.state is LISTEN:
                rec = Reception(tx, j, p, onair[j] - p, is_data)
                if is_data:
                    heard = sense_in[j]
                    for other_tx in active_data:
                        if other_tx is not tx and other_tx.sender in heard:
                            rec.interferers.add(other_tx.sender)
                open_here[tx] = rec
            if is_data:
                # this sender becomes an interferer of every data reception open at j
                for rec in open_here.values():
                    if rec.live and rec.interferers is not None and rec.tx is not tx:
                        rec.interferers.add(sender)
            node.on_air_rise(tx)

        self.engine.schedule(tx.t_end, lambda ev: self._end_transmission(tx))
        return tx.t_end

    def abort_receptions(self, listener):
        """Listener stopped listening (sleep or own TX): open receptions die."""
        for rec in self.receptions[listener].values():
            rec.live = False

    def _end_transmission(self, tx):
        sender = tx.sender
        pkt = tx.packet
        kind = pkt.kind
        is_data = kind in DATA_KINDS
        if is_data:
            self.active_data.discard(tx)

        onair = self.onair_mw
        for j, p in zip(*self.influence_out[sender]):
            left = onair[j] - p
            onair[j] = 0.0 if left < 1e-21 else left

        # the sender is receive-ready the instant its last bit leaves, so
        # same-instant responses (acks, recovery frames) can reach it
        nodes = self.nodes
        nodes[sender].radio_maybe_end_tx()

        # control frames with corruption switched off always arrive; Seda
        # block bursts degrade block by block, not all-or-nothing: the
        # receiver draws per-block corruption at this same worst-case SINR
        always = kind is PacketKind.SEDA_BLOCK or (
            self.control_corruption_disabled and kind in CONTROL_KINDS)
        on_air_bytes = pkt.on_air_bytes()
        reception_prob = self.model.packet_reception_prob
        random = self.rng.random
        noise_mw = self.noise_mw
        resolved = self.on_data_reception_resolved if is_data else None
        receptions = self.receptions
        for j in self.sense_out[sender][0]:
            open_here = receptions[j]
            rec = open_here.pop(tx, None) if open_here else None
            node = nodes[j]
            if not node.alive:
                continue
            if rec is None or not rec.live:
                node.on_air_resolved_corrupt(tx)
                continue
            delivered = False
            if node.state is LISTEN:
                sinr = sinr_db(rec.wanted_mw, rec.max_other_mw, noise_mw)
                if always:
                    delivered = True
                else:
                    prr = reception_prob(sinr, on_air_bytes)
                    delivered = prr >= 1.0 or random() < prr
            if resolved is not None:
                resolved(rec, delivered)
            if delivered:
                node.on_packet(pkt, sinr)
            else:
                node.on_air_resolved_corrupt(tx)
        if tx.on_resolved is not None:
            tx.on_resolved(tx)

    def block_corruption_draws(self, sinr_db, n_blocks, block_bytes):
        """Seda: independent per-block corruption at the frame's worst SINR."""
        pb = self.model.bit_error_rate(sinr_db)
        if pb <= 0.0:
            return [False] * n_blocks
        p_block = 1.0 - (1.0 - pb) ** (8 * block_bytes)
        return [bool(self.rng.random() < p_block) for _ in range(n_blocks)]
