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


class Medium:
    def __init__(self, engine, topology, streams, control_corruption_disabled):
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
        # listener -> {tx: [wanted_mw, max_other_mw, interferers]}: one open
        # reception's received power, its worst-case interference so far, and
        # for the addressee of a data frame the set of concurrent data senders
        # it heard (None otherwise)
        self.receptions = [dict() for _ in range(n)]
        self.active_data = set()

        # fn(tx, interferers), wired by the simulation: once per data frame at
        # its last bit, with the addressee's interferer set or None when the
        # addressee resolved no reception
        self.on_data_resolved = None

    # -- state queries ---------------------------------------------------

    def carrier_busy(self, node):
        return self.onair_mw[node] > self.busy_thr_mw

    def sensed_since(self, node, t):
        """Whether `node` senses a carrier now, or heard a first bit at or after `t`."""
        return self.carrier_busy(node) or self.nodes[node].last_rise_t >= t

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

        onair = self.onair_mw
        receptions = self.receptions
        for j, p in zip(*self.influence_out[sender]):
            total = onair[j] = onair[j] + p
            open_here = receptions[j]
            if open_here:
                for rec in open_here.values():
                    other = total - rec[0]
                    if other > rec[1]:
                        rec[1] = other

        sense_in = self.topo.sense_in
        dst = packet.dst
        for j, p in zip(*self.sense_out[sender]):
            node = nodes[j]
            if not node.alive:
                continue
            node.last_rise_t = now
            # only listening nodes hold receptions (set_radio aborts them)
            if node.state != LISTEN:
                continue
            open_here = receptions[j]
            if is_data:
                # this sender becomes an interferer of every data reception open at j
                for rec in open_here.values():
                    if rec[2] is not None:
                        rec[2].add(sender)
            # only the addressee's data reception feeds the colliding set
            interferers = None
            if is_data and j == dst:
                heard = sense_in[j]
                interferers = {other_tx.sender for other_tx in active_data
                               if other_tx is not tx and other_tx.sender in heard}
            open_here[tx] = [p, onair[j] - p, interferers]

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

        # the sender is receive-ready the instant its last bit leaves, so same-instant
        # responses (acks, recovery frames) can reach it; a dead sender or one
        # put to sleep mid-frame stays as it is (`set_radio` ignores the dead)
        nodes = self.nodes
        node = nodes[sender]
        if node.state == TX:
            node.set_radio(LISTEN)

        # control frames with corruption switched off always arrive; Seda
        # block bursts degrade block by block, not all-or-nothing: the
        # receiver draws per-block corruption at this same worst-case SINR
        always = kind is PacketKind.SEDA_BLOCK or (
            self.control_corruption_disabled and kind in CONTROL_KINDS)
        bits = 8 * pkt.on_air_bytes()
        bit_error_rate = self.model.bit_error_rate
        random = self.rng.random
        noise_mw = self.noise_mw
        dst = pkt.dst
        interferers = None
        receptions = self.receptions
        for j in self.sense_out[sender][0]:
            node = nodes[j]
            # a listener asleep or transmitting at the last bit hears nothing,
            # and an open reception implies listening (set_radio aborts it)
            if node.state != LISTEN or not node.alive:
                continue
            open_here = receptions[j]
            rec = open_here.pop(tx, None) if open_here else None
            if rec is None:
                node.on_air_resolved_corrupt(tx)
                continue
            sinr = rec[0] / (noise_mw + rec[1])
            if always:
                delivered = True
            else:
                # the packet reception probability, as `packet_reception_prob`
                # gives it: (1 - 0.0) ** bits is exactly 1.0, so a zero bit
                # error rate delivers without a draw
                prr = (1.0 - bit_error_rate(sinr)) ** bits
                delivered = prr >= 1.0 or random() < prr
            if j == dst:
                interferers = rec[2]
            if delivered:
                node.on_packet(pkt, sinr)
            else:
                node.on_air_resolved_corrupt(tx)
        if is_data:
            self.on_data_resolved(tx, interferers)
        if tx.on_resolved is not None:
            tx.on_resolved(tx)

    def block_corruption_draws(self, sinr, n_blocks, block_bytes):
        """Seda: independent per-block corruption at the frame's worst
        (linear) SINR."""
        pb = self.model.bit_error_rate(sinr)
        if pb <= 0.0:
            return [False] * n_blocks
        p_block = 1.0 - (1.0 - pb) ** (8 * block_bytes)
        if p_block == 0.0:
            # a bit error rate below about 1e-16 rounds `1.0 - pb` to 1.0: no
            # draw falls below 0.0, but the draws still move the stream
            self.rng.take(n_blocks)
            return [False] * n_blocks
        # one vector of n_blocks doubles, the same ones a scalar loop would take
        return (self.rng.take(n_blocks) < p_block).tolist()
