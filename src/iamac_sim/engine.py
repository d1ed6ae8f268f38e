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
        self.scheduled_count = 0
        self.dispatched_count = 0
        self.cancelled_count = 0

    def schedule(self, fire_time, fn):
        if fire_time < self.now:
            raise RuntimeError(
                f"cannot schedule at {fire_time} before clock {self.now}"
            )
        ev = Event(fire_time, self._seq, fn)
        self._seq += 1
        self.scheduled_count += 1
        heapq.heappush(self._heap, (fire_time, ev.seq, ev))
        return ev

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
        while heap and heap[0][0] <= t_end:
            _, _, ev = heapq.heappop(heap)
            if ev.cancelled:
                continue
            self.now = ev.fire_time
            ev.fn(ev)
            dispatched += 1
            self.dispatched_count += 1
        self.now = t_end
        return dispatched

    @property
    def pending_count(self):
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)


def _label_key(label):
    # Stable across processes (unlike hash()).
    return zlib.crc32(label.encode("utf-8"))


class RandomStreams:
    """Labeled, reproducible random streams derived from one global seed.

    Draw order within a label never perturbs other labels, so adding a
    consumer of one stream cannot change another stream's sequence.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._streams = {}

    def stream(self, label):
        gen = self._streams.get(label)
        if gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(_label_key(label),))
            gen = np.random.default_rng(ss)
            self._streams[label] = gen
        return gen
