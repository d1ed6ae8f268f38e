"""Deterministic discrete-event core: virtual clock, ordered event set, labeled RNG streams."""

from __future__ import annotations

import heapq
import zlib

import numpy as np

class Event:
    """A scheduled callback, called as fn(event). Equal fire times dispatch in
    insertion order. State the callback needs is bound where it is scheduled."""

    __slots__ = ("fire_time", "seq", "fn", "cancelled")

    def __init__(self, fire_time, seq, fn):
        self.fire_time = fire_time
        self.seq = seq
        self.fn = fn
        self.cancelled = False


class Engine:
    """Single-run event queue with a monotone virtual clock (seconds)."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self.dispatched_count = 0
        self.cancelled_count = 0

    def schedule(self, fire_time, fn):
        if fire_time < self.now:
            raise RuntimeError(
                f"cannot schedule at {fire_time} before clock {self.now}"
            )
        seq = self._seq
        ev = Event(fire_time, seq, fn)
        self._seq = seq + 1
        heapq.heappush(self._heap, (fire_time, seq, ev))
        return ev

    def reschedule(self, ev, fire_time):
        """Re-arm a dispatched event at `fire_time`, ordered and counted as a
        new `schedule` call at this point would be."""
        if fire_time < self.now:
            raise RuntimeError(f"cannot schedule at {fire_time} before clock {self.now}")
        seq = self._seq
        ev.fire_time = fire_time
        ev.seq = seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (fire_time, seq, ev))

    @property
    def scheduled_count(self):
        # every scheduled or re-armed event took the next sequence number
        return self._seq

    def cancel(self, event):
        """Drop a pending event; None (no timer set) is a no-op."""
        if event is not None and not event.cancelled:
            event.cancelled = True
            self.cancelled_count += 1

    def run_until(self, t_end):
        """Dispatch every pending event with fire_time <= t_end; clock ends at t_end."""
        if t_end < self.now:
            raise RuntimeError(f"run_until({t_end}) behind clock {self.now}")
        dispatched = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap and heap[0][0] <= t_end:
                _, _, ev = heappop(heap)
                if ev.cancelled:
                    continue
                self.now = ev.fire_time
                ev.fn(ev)
                dispatched += 1
        finally:
            # a raising callback still leaves the dispatches before it counted
            self.dispatched_count += dispatched
        self.now = t_end
        return dispatched

    @property
    def pending_count(self):
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)


def _label_key(label):
    # Stable across processes (unlike hash()).
    return zlib.crc32(label.encode("utf-8"))


# doubles a Draws takes from its Generator at a time
BLOCK = 1024


class Draws:
    """One stream's doubles, drawn from its Generator BLOCK at a time and
    handed out in order. Every call returns the values the same call on the
    Generator would (`random()`, `uniform(lo, hi)`, `random(k)`), because a
    vector draw takes the same doubles as that many scalar draws."""

    __slots__ = ("_gen", "_block", "_left")

    def __init__(self, gen):
        self._gen = gen
        self._block = np.empty(0)
        self._left = []   # the block's unread doubles, next one last

    def random(self):
        left = self._left
        if not left:
            self._block = self._gen.random(BLOCK)
            left = self._left = self._block[::-1].tolist()
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
        out = np.concatenate((self._block[start:], self._gen.random(k - len(left))))
        left.clear()
        return out


class RandomStreams:
    """Labeled, reproducible random streams derived from one global seed.

    Draw order within a label never perturbs other labels, so adding a
    consumer of one stream cannot change another stream's sequence. A label
    is handed out in one form only: as a numpy Generator by `stream`, or as
    block-drawn doubles by `draws`.
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
            got = np.random.default_rng(ss)
            if form is Draws:
                got = Draws(got)
            self._streams[label] = got
        elif not isinstance(got, form):
            raise ValueError(f"random stream {label!r} is already handed out "
                             f"as a {type(got).__name__}")
        return got
