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
from .packets import PacketKind

CONTROL_KINDS = (PacketKind.SYNCH_ROUTING, PacketKind.RTS, PacketKind.CTS)
DATA_KINDS = (PacketKind.DATA, PacketKind.SEDA_BLOCK)


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
        self.rng = streams.stream("channel")
        self.control_corruption_disabled = control_corruption_disabled

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
        return self.onair_mw[node] > self.topo.busy_thr_mw

    # -- transmission lifecycle -------------------------------------------

    def transmit(self, sender, packet, on_resolved=None):
        """Put a packet on the air; returns its end time."""
        now = self.engine.now
        duration = packet.airtime(self.model.radio_speed)
        tx = Transmission(sender, packet, now, now + duration, on_resolved)

        self.nodes[sender].radio_begin_tx(tx.t_end)

        is_data = packet.kind in DATA_KINDS
        if is_data:
            self.active_data.add(tx)
            if self.tx_log is not None:
                self.tx_log.append((sender, now, tx.t_end))

        for j in self.topo.influence_out[sender]:
            p = self.topo.rx_mw[sender, j]
            self.onair_mw[j] += p
            for rec in self.receptions[j].values():
                if rec.live:
                    other = self.onair_mw[j] - rec.wanted_mw
                    if other > rec.max_other_mw:
                        rec.max_other_mw = other

        for j in self.topo.sense_out[sender]:
            node = self.nodes[j]
            if node is None or not node.alive:
                continue
            if node.radio_listening():
                rec = Reception(
                    tx, j, self.topo.rx_mw[sender, j],
                    self.onair_mw[j] - self.topo.rx_mw[sender, j],
                    track_interferers=is_data,
                )
                if is_data:
                    for other_tx in self.active_data:
                        if other_tx is not tx and other_tx.sender in self.topo.sense_in[j]:
                            rec.interferers.add(other_tx.sender)
                self.receptions[j][tx] = rec
            if is_data:
                # this sender becomes an interferer of every data reception open at j
                for rec in self.receptions[j].values():
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
        is_data = tx.packet.kind in DATA_KINDS
        if is_data:
            self.active_data.discard(tx)

        for j in self.topo.influence_out[sender]:
            self.onair_mw[j] -= self.topo.rx_mw[sender, j]
            if self.onair_mw[j] < 1e-21:
                self.onair_mw[j] = 0.0

        # the sender is receive-ready the instant its last bit leaves, so
        # same-instant responses (acks, recovery frames) can reach it
        self.nodes[sender].radio_maybe_end_tx()

        for j in self.topo.sense_out[sender]:
            rec = self.receptions[j].pop(tx, None)
            node = self.nodes[j]
            if node is None or not node.alive:
                continue
            delivered = False
            sinr = None
            if rec is not None and rec.live and node.radio_listening():
                sinr = sinr_db(rec.wanted_mw, rec.max_other_mw, self.noise_mw)
                delivered = self._decide(tx.packet, sinr)
            if is_data and rec is not None and rec.live:
                if self.on_data_reception_resolved is not None:
                    self.on_data_reception_resolved(rec, delivered)
            if delivered:
                node.on_packet(tx.packet, sinr)
            else:
                node.on_air_resolved_corrupt(tx)
        if tx.on_resolved is not None:
            tx.on_resolved(tx)

    def _decide(self, pkt, sinr_db):
        if self.control_corruption_disabled and pkt.kind in CONTROL_KINDS:
            return True
        if pkt.kind is PacketKind.SEDA_BLOCK:
            # block bursts degrade block by block, not all-or-nothing: the
            # receiver draws per-block corruption at this same worst-case SINR
            return True
        prr = self.model.packet_reception_prob(sinr_db, pkt.on_air_bytes())
        if prr >= 1.0:
            return True
        return self.rng.random() < prr

    def block_corruption_draws(self, sinr_db, n_blocks, block_bytes):
        """Seda: independent per-block corruption at the frame's worst SINR."""
        pb = self.model.bit_error_rate(sinr_db)
        if pb <= 0.0:
            return [False] * n_blocks
        p_block = 1.0 - (1.0 - pb) ** (8 * block_bytes)
        return [bool(self.rng.random() < p_block) for _ in range(n_blocks)]
