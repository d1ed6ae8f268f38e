"""Frame types shared by every MAC and the recovery procedures, and the one
airtime formula."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class PacketKind(Enum):
    SYNCH_ROUTING = "synch"
    RTS = "rts"
    CTS = "cts"
    DATA = "data"
    ACK = "ack"
    SEDA_BLOCK = "seda-block"
    RECOVERY_FRAME = "recovery"


def airtime(nbytes, radio_speed):
    """Seconds on air for `nbytes` bytes at `radio_speed` bits/second."""
    return 8.0 * nbytes / radio_speed


@dataclass(slots=True)
class Packet:
    """One frame on the air. `length` excludes the phy+MAC header except for
    ACKs, whose tabulated size already includes it."""

    kind: PacketKind
    src: int
    dst: int
    length: int                 # bytes, excluding header (see on_air_bytes)
    header: int
    born_at: float = 0.0        # generation time of the payload, for latency
    origin: int = -1            # node that generated the payload
    payload_len: int = 0
    uid: int = -1               # data packets: numbered per run by the Simulation
    # extra per-kind fields
    exchange_end: float = 0.0   # S-MAC duration field (absolute end time)
    block_uids: tuple = ()      # Seda data frame: uids of packets carried as blocks

    def on_air_bytes(self):
        return self.length + self.header

    def airtime(self, radio_speed):
        return airtime(self.on_air_bytes(), radio_speed)


def make_data_packet(uid, origin, dst, born_at, payload_len, header):
    # positional, in field order: kind, src, dst, length, header, born_at,
    # origin, payload_len, uid
    return Packet(PacketKind.DATA, origin, dst, payload_len, header, born_at,
                  origin, payload_len, uid)


def readdressed(pkt, src, dst, header):
    """`pkt` as `dataclasses.replace(pkt, src=src, dst=dst, header=header)`
    gives it, built positionally in field order."""
    return Packet(pkt.kind, src, dst, pkt.length, header, pkt.born_at, pkt.origin,
                  pkt.payload_len, pkt.uid, pkt.exchange_end, pkt.block_uids)
