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
    """One frame on the air. `size` is the bytes it puts on the air, header
    included, for every kind. A queued payload is not a `Packet` but the
    entry `make_data_packet` builds; a DATA frame carries it as `payload`,
    from `data_frame`."""

    kind: PacketKind
    src: int
    dst: int
    size: int                   # bytes on the air, header included
    payload: tuple = None       # DATA frames: the queue entry carried
    # extra per-kind fields
    exchange_end: float = 0.0   # S-MAC duration field (absolute end time)
    blocks: tuple = ()          # Seda frames: burst positions of the blocks named


def make_data_packet(uid, origin, born_at, payload_len):
    """A queued payload: the entry `(uid, origin, born_at, payload_len)`."""
    return (uid, origin, born_at, payload_len)


def data_frame(entry, src, dst, header):
    """The DATA frame that carries the queued payload `entry` from `src` to
    `dst`."""
    return Packet(PacketKind.DATA, src, dst, entry[3] + header, entry)
