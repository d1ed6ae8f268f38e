"""Time Frame / Super Frame slot layout.

A Time Frame is [Synch/Routing | RTS | CTS | Sleep/Communication] and may not
exceed 12 seconds. Longer wake cycles use a Super Frame: a chain of equal
Time Frames, each opening with a Synch/Routing slot, with the RTS and CTS
slots appearing only in the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_TIME_FRAME = 12.0
# a cycle schedules two events per Time Frame at its start, so a Super Frame
# holds at most this many (frame_s <= 12,000 s)
MAX_TIME_FRAMES = 1000


@dataclass(frozen=True)
class FramePlan:
    synch_slot: float
    rts_slot: float
    cts_slot: float
    w: int                      # RTS contention mini-slots
    mini_slot: float
    max_backoff: float
    time_frame: float           # duration of one constituent Time Frame
    n_time_frames: int          # 1 => plain Time Frame, >1 => Super Frame
    cycle: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cycle", self.time_frame * self.n_time_frames)

    @property
    def is_super_frame(self):
        return self.n_time_frames > 1

    def comm_windows(self, cycle_start):
        """Absolute (start, end) spans usable for data within one cycle.

        Slot boundaries are computed from the cycle start, never accumulated.
        """
        t0 = cycle_start + self.synch_slot + self.rts_slot + self.cts_slot
        windows = [(t0, cycle_start + self.time_frame)]
        for k in range(1, self.n_time_frames):
            tf_start = cycle_start + k * self.time_frame
            windows.append((tf_start + self.synch_slot, tf_start + self.time_frame))
        return windows

    def synch_starts(self, cycle_start):
        return [cycle_start + k * self.time_frame for k in range(self.n_time_frames)]

    def rts_start(self, cycle_start):
        return cycle_start + self.synch_slot

    def cts_start(self, cycle_start):
        return cycle_start + self.synch_slot + self.rts_slot

    def mini_slot_start(self, cycle_start, k):
        return self.rts_start(cycle_start) + k * self.mini_slot


def build_frame_plan(frame_s, synch_slot=0.05, w=8, mini_slot=0.016,
                     cts_slot=0.05, max_backoff=0.0015, rts_airtime=None):
    """Lay out the requested wake cycle (`frame_s` between consecutive RTS slots).

    Cycles of at most 12 s become a single Time Frame; anything longer becomes
    a Super Frame of ceil(frame_s/12) equal Time Frames, at most
    MAX_TIME_FRAMES of them.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    if rts_airtime is not None and mini_slot <= max_backoff + rts_airtime:
        raise ValueError(
            f"mini-slot {mini_slot*1e3:.2f} ms must exceed max backoff + RTS airtime "
            f"({(max_backoff + rts_airtime)*1e3:.2f} ms)"
        )
    rts_slot = w * mini_slot
    active = synch_slot + rts_slot + cts_slot
    if active > MAX_TIME_FRAME:
        raise ValueError(f"active slots ({active:.3f} s) exceed the {MAX_TIME_FRAME} s Time Frame bound")

    if frame_s > MAX_TIME_FRAMES * MAX_TIME_FRAME:
        raise ValueError(f"frame duration {frame_s} s exceeds the Super Frame bound of "
                         f"{MAX_TIME_FRAMES} Time Frames ({MAX_TIME_FRAMES * MAX_TIME_FRAME:g} s)")
    if frame_s <= MAX_TIME_FRAME:
        n_tf = 1
        tf = frame_s
    else:
        n_tf = int(-(-frame_s // MAX_TIME_FRAME))  # ceil
        tf = frame_s / n_tf
    if tf <= active:
        raise ValueError(
            f"frame duration {frame_s} s leaves no Sleep/Communication time "
            f"(active slots take {active:.3f} s per Time Frame)"
        )
    return FramePlan(
        synch_slot=synch_slot, rts_slot=rts_slot, cts_slot=cts_slot,
        w=w, mini_slot=mini_slot, max_backoff=max_backoff,
        time_frame=tf, n_time_frames=n_tf,
    )
