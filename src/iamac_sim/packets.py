"""Frame types shared by every MAC and the recovery procedures."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import count


class PacketKind(Enum):
    SYNCH_ROUTING = "synch"
    RTS = "rts"
    CTS = "cts"
    DATA = "data"
    ACK = "ack"
    SEDA_BLOCK = "seda-block"
    RECOVERY_FRAME = "recovery"


_uid = count()


@dataclass
class Packet:
    """One frame on the air. `length` excludes the phy+MAC header except for
    ACKs, whose tabulated size already includes it."""

    kind: PacketKind
    src: int
    dst: int
    length: int                 # bytes, excluding header (see on_air_bytes)
    header: int = 16
    born_at: float = 0.0        # generation time of the payload, for latency
    origin: int = -1            # node that generated the payload
    payload_len: int = 0
    uid: int = field(default_factory=lambda: next(_uid))
    # extra per-kind fields
    exchange_end: float = 0.0   # S-MAC duration field (absolute end time)
    block_uids: tuple = ()      # Seda data frame: uids of packets carried as blocks

    def on_air_bytes(self):
        return self.length + self.header

    def airtime(self, radio_speed):
        return 8.0 * self.on_air_bytes() / radio_speed


def make_data_packet(origin, src, dst, born_at, payload_len, header=16):
    return Packet(
        kind=PacketKind.DATA,
        src=src,
        dst=dst,
        length=payload_len,
        header=header,
        born_at=born_at,
        origin=origin,
        payload_len=payload_len,
    )
