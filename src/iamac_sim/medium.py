"""On-air transmission registry: carrier sensing, SINR tracking and the
per-packet reception draw.

A reception is opened for every sense-range listener that is in listen state
when the first bit hits the air, tracks its worst-case interference across
every on-air change, and resolves with a single uniform draw against the
packet reception probability at the resulting minimum SINR, taken as the
linear ratio wanted / (noise + interference). A listener that is not in listen
state at the last bit hears nothing of the frame; one that listens then but
opened no reception hears it as corrupt. Concurrent data transmitters in sense
range are collected per addressee reception for the colliding-set metric.
"""

from __future__ import annotations

from .energy import RadioState
from .packets import PacketKind

CONTROL_KINDS = (PacketKind.SYNCH_ROUTING, PacketKind.RTS, PacketKind.CTS)
DATA_KINDS = (PacketKind.DATA, PacketKind.SEDA_BLOCK)
LISTEN, TX = RadioState.LISTEN, RadioState.TX


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
    __slots__ = ("tx", "listener", "wanted_mw", "max_other_mw", "interferers")

    def __init__(self, tx, listener, wanted_mw, other_mw, track_interferers):
        self.tx = tx
        self.listener = listener
        self.wanted_mw = wanted_mw
        self.max_other_mw = other_mw
        self.interferers = set() if track_interferers else None


class Medium:
    def __init__(self, engine, topology, streams, control_corruption_disabled=False):
        self.engine = engine
        self.topo = topology
        self.model = topology.model
        self.noise_mw = topology.model.noise_mw
        self.busy_thr_mw = topology.busy_thr_mw
        self.rng = streams.draws("channel")
        self.control_corruption_disabled = control_corruption_disabled

        self.influence_out = _sender_tables(topology.rx_mw, topology.influence_out)
        self.sense_out = _sender_tables(topology.rx_mw, topology.sense_out)

        n = topology.n
        self.nodes = [None] * n          # wired by the simulation
        self.onair_mw = [0.0] * n        # summed on-air power present at each node
        self.receptions = [dict() for _ in range(n)]  # listener -> {tx: Reception}
        self.active_data = set()

        # metrics hooks, wired by the simulation
        self.on_data_reception_resolved = None  # fn(rec), addressee only
        self.tx_log = None                      # (sender, t_start, t_end) when traced

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
        # no node starts a transmission while its own is still on the air
        nodes[sender].set_radio(TX)

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
                    other = total - rec.wanted_mw
                    if other > rec.max_other_mw:
                        rec.max_other_mw = other

        sense_in = self.topo.sense_in
        dst = packet.dst
        for j, p in zip(*self.sense_out[sender]):
            node = nodes[j]
            if not node.alive:
                continue
            node.last_rise_t = now
            # only listening nodes hold receptions (set_radio aborts them)
            if node.state is not LISTEN:
                continue
            open_here = receptions[j]
            if is_data:
                # this sender becomes an interferer of every data reception open at j
                for rec in open_here.values():
                    if rec.interferers is not None:
                        rec.interferers.add(sender)
            # only the addressee's data reception feeds the colliding set
            rec = open_here[tx] = Reception(tx, j, p, onair[j] - p, is_data and j == dst)
            if rec.interferers is not None:
                heard = sense_in[j]
                for other_tx in active_data:
                    if other_tx is not tx and other_tx.sender in heard:
                        rec.interferers.add(other_tx.sender)

        self.engine.schedule(tx.t_end, lambda ev: self._end_transmission(tx))
        return tx.t_end

    def abort_receptions(self, listener):
        """Listener stopped listening (sleep or own TX): its open receptions
        are dropped, and their transmissions end as corrupt there."""
        self.receptions[listener].clear()

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
        node = nodes[sender]
        if node.alive and node.state is TX:
            node.set_radio(LISTEN)

        # control frames with corruption switched off always arrive; Seda
        # block bursts degrade block by block, not all-or-nothing: the
        # receiver draws per-block corruption at this same worst-case SINR
        always = kind is PacketKind.SEDA_BLOCK or (
            self.control_corruption_disabled and kind in CONTROL_KINDS)
        on_air_bytes = pkt.on_air_bytes()
        if on_air_bytes < 1:
            raise ValueError(f"packet length must be >= 1 byte, got {on_air_bytes}")
        bits = 8 * on_air_bytes
        bit_error_rate = self.model.bit_error_rate
        random = self.rng.random
        noise_mw = self.noise_mw
        resolved = self.on_data_reception_resolved if is_data else None
        dst = pkt.dst
        receptions = self.receptions
        for j in self.sense_out[sender][0]:
            node = nodes[j]
            # a listener asleep or transmitting at the last bit hears nothing,
            # and an open reception implies listening (set_radio aborts it)
            if node.state is not LISTEN or not node.alive:
                continue
            open_here = receptions[j]
            rec = open_here.pop(tx, None) if open_here else None
            if rec is None:
                node.on_air_resolved_corrupt(tx)
                continue
            sinr = rec.wanted_mw / (noise_mw + rec.max_other_mw)
            if always:
                delivered = True
            else:
                # the packet reception probability, as `packet_reception_prob`
                # gives it: (1 - 0.0) ** bits is exactly 1.0, so a zero bit
                # error rate delivers without a draw
                prr = (1.0 - bit_error_rate(sinr)) ** bits
                delivered = prr >= 1.0 or random() < prr
            if resolved is not None and j == dst:
                resolved(rec)
            if delivered:
                node.on_packet(pkt, sinr)
            else:
                node.on_air_resolved_corrupt(tx)
        if tx.on_resolved is not None:
            tx.on_resolved(tx)

    def block_corruption_draws(self, sinr, n_blocks, block_bytes):
        """Seda: independent per-block corruption at the frame's worst
        (linear) SINR."""
        pb = self.model.bit_error_rate(sinr)
        if pb <= 0.0:
            return [False] * n_blocks
        p_block = 1.0 - (1.0 - pb) ** (8 * block_bytes)
        # one vector of n_blocks doubles, the same ones a scalar loop would take
        return (self.rng.take(n_blocks) < p_block).tolist()
