"""Deterministic discrete-event core: virtual clock, ordered event set, labeled RNG streams."""

from __future__ import annotations

import heapq
import math
import zlib

import numpy as np

class Event:
    """A scheduled callback, called as fn(event). Equal fire times dispatch in
    insertion order. State the callback needs is bound where it is scheduled.
    Its fire time lives only in its `(fire_time, seq, event)` heap entry."""

    __slots__ = ("seq", "fn", "cancelled")

    def __init__(self, seq, fn):
        self.seq = seq
        self.fn = fn
        self.cancelled = False


class Engine:
    """Single-run event queue with a monotone virtual clock (seconds)."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        # the sequence number the next event takes: `schedule` takes it and
        # adds one, and a caller that re-arms its own events takes numbers the
        # same way, so every number orders one event
        self.next_seq = 0
        self._until = 0.0           # the end of the current or last run_until
        self.dispatched_count = 0
        self.cancelled_count = 0

    def schedule(self, fire_time, fn):
        if fire_time < self.now:
            raise RuntimeError(
                f"cannot schedule at {fire_time} before clock {self.now}"
            )
        seq = self.next_seq
        ev = Event(seq, fn)
        self.next_seq = seq + 1
        heapq.heappush(self._heap, (fire_time, seq, ev))
        return ev

    def rearm(self, ev, fire_time, seq):
        """Put a dispatched event back at `(fire_time, seq)`, with `seq` a
        number taken earlier from `next_seq`: it orders as an event scheduled
        when `seq` was taken would."""
        if fire_time < self.now:
            raise RuntimeError(f"cannot schedule at {fire_time} before clock {self.now}")
        ev.seq = seq
        heapq.heappush(self._heap, (fire_time, seq, ev))

    def next_key(self):
        """`(fire_time, seq)` that work done inside a callback must order
        before to keep its place in this `run_until`: the next pending
        entry's key, or `(t_end, inf)` when none is due by `t_end`."""
        heap = self._heap
        if heap and heap[0][0] <= self._until:
            return heap[0][0], heap[0][1]
        return self._until, math.inf

    @property
    def scheduled_count(self):
        # every scheduled event, and every number a caller took, advanced next_seq
        return self.next_seq

    def cancel(self, event):
        """Drop a pending event; None (no timer set) is a no-op."""
        if event is not None and not event.cancelled:
            event.cancelled = True
            self.cancelled_count += 1

    def run_until(self, t_end):
        """Dispatch every pending event with fire_time <= t_end; clock ends at t_end."""
        if t_end < self.now:
            raise RuntimeError(f"run_until({t_end}) behind clock {self.now}")
        self._until = t_end
        dispatched = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap and heap[0][0] <= t_end:
                now, _, ev = heappop(heap)
                if ev.cancelled:
                    continue
                self.now = now
                ev.fn(ev)
                dispatched += 1
        finally:
            # a raising callback still leaves the dispatches before it counted
            self.dispatched_count += dispatched
        self.now = t_end
        return dispatched


def _label_key(label):
    # Stable across processes (unlike hash()).
    return zlib.crc32(label.encode("utf-8"))


# words a Draws takes from its bit generator at a time
BLOCK = 1024
# PCG64's next_double: the top 53 bits of a word, scaled to [0, 1)
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


def _doubles(words):
    return (words >> 11) * _DOUBLE_SCALE


class Draws:
    """One stream's draws, taken from its bit generator as raw 64-bit words
    BLOCK at a time and handed out in order. Every call returns the values the
    same call on a Generator over that bit generator would (`random()`,
    `uniform(lo, hi)`, `random(k)`, `integers(lo, hi)`), because a vector draw
    takes the same words as that many scalar draws and a double is the top 53
    bits of one word."""

    __slots__ = ("_bitgen", "_raw", "_block", "_left", "_half")

    def __init__(self, bitgen):
        self._bitgen = bitgen
        self._raw = np.empty(0, dtype=np.uint64)
        self._block = np.empty(0)
        self._left = []    # the block's unread doubles, next one last
        self._half = None  # upper half of the word the last integers() split

    def _refill(self):
        self._raw = self._bitgen.random_raw(BLOCK)
        self._block = _doubles(self._raw)
        self._left = self._block[::-1].tolist()
        return self._left

    def random(self):
        left = self._left
        if not left:
            left = self._refill()
        return left.pop()

    def uniform(self, lo, hi):
        # numpy's own formula for a scalar uniform
        return lo + (hi - lo) * self.random()

    def take(self, k):
        """The next k doubles as an array."""
        left = self._left
        start = len(self._block) - len(left)
        if k <= len(left):
            del left[len(left) - k:]
            return self._block[start:start + k]
        out = np.concatenate((self._block[start:],
                              _doubles(self._bitgen.random_raw(k - len(left)))))
        left.clear()
        return out

    def integers(self, lo, hi):
        """`Generator.integers(lo, hi)` as a Python int, for 1 <= hi - lo < 2**32.

        numpy draws it by Lemire's multiply-shift rejection over 32-bit
        draws, and PCG64 makes a 32-bit draw from the low half of a fresh word
        while it keeps the upper half for the next 32-bit draw. Doubles never
        touch that kept half, so it waits here across any `random`, `uniform`,
        `take` and block refill. A span of 1 draws nothing."""
        span = hi - lo
        if not 1 <= span < 0x100000000:
            raise ValueError(f"integers({lo}, {hi}): span must be in [1, 2**32)")
        if span == 1:
            return lo
        # numpy's threshold (UINT32_MAX - (span - 1)) % span
        threshold = 0x100000000 % span
        while True:
            u32 = self._half
            if u32 is None:
                left = self._left
                if not left:
                    left = self._refill()
                left.pop()
                word = int(self._raw[len(self._raw) - len(left) - 1])
                u32, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                self._half = None
            m = u32 * span
            if m & 0xFFFFFFFF >= threshold:
                return lo + (m >> 32)


class RandomStreams:
    """Labeled, reproducible random streams derived from one global seed.

    Draw order within a label never perturbs other labels, so adding a
    consumer of one stream cannot change another stream's sequence. A label
    is handed out in one form only: as a numpy Generator by `stream`, or as
    block-drawn words by `draws`.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._streams = {}

    def stream(self, label):
        return self._get(label, np.random.Generator)

    def draws(self, label):
        return self._get(label, Draws)

    def _get(self, label, form):
        got = self._streams.get(label)
        if got is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(_label_key(label),))
            bitgen = np.random.PCG64(ss)
            got = Draws(bitgen) if form is Draws else np.random.Generator(bitgen)
            self._streams[label] = got
        elif not isinstance(got, form):
            raise ValueError(f"random stream {label!r} is already handed out "
                             f"as a {type(got).__name__}")
        return got
