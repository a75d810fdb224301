"""The machine's speed at each moment, from a fixed reference task.

The shared machine the benchmark runs on changes speed by a third or
more for seconds to minutes at a time, and a run is too short to wait
such a phase out.  So a session times ``reference()`` (fixed
pure-Python work that does not touch the library) every ``PERIOD_S``
between requests, ``REPEATS`` times back to back, and keeps the least
time, which drops disturbances shorter than a sample.  A request's
latency is then scaled by ``NOMINAL_S`` over the median of these
samples in the ``WINDOW_S`` around it: the latency it would have had at
the speed where the reference takes ``NOMINAL_S``.  A change to the
library leaves the reference as it was, so it moves scaled latencies as
much as raw ones.

The reference runs with the garbage collector off, so that collections
of the library's objects count in the library's latencies only.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

NOMINAL_S = 0.002  # about a sample's time on a 2-vCPU cloud machine
REPEATS = 3
PERIOD_S = 0.25
WINDOW_S = 1.0

_rng = random.Random(20101119)
_KEYS = [_rng.randrange(10**6) for _ in range(1000)]
_WORDS = [tuple(_rng.randrange(8) for _ in range(6)) for _ in range(500)]


def _insert(tree, key):
    if tree is None:
        return (key, None, None)
    label, left, right = tree
    if key < label:
        return (label, _insert(left, key), right)
    return (label, left, _insert(right, key))


def _infix(tree, out):
    while tree is not None:
        label, left, right = tree
        _infix(left, out)
        out.append(label)
        tree = right
    return out


def reference():
    """Tree building, walks, hashing and sorting on fixed data."""
    tree = None
    for key in _KEYS:
        tree = _insert(tree, key)
    keys = _infix(tree, [])
    counts = {}
    for word in _WORDS:
        shape = tuple(sorted(word))
        counts[shape] = counts.get(shape, 0) + 1
    text = ",".join(str(k) for k in keys[::7])
    return len(keys), len(counts), len(text)


class Speed:
    """Reference timings taken in one session, on the request clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []  # (midpoint, seconds)
        self.last = float("-inf")

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        times = []
        try:
            for _ in range(REPEATS):
                start = self.clock()
                reference()
                times.append((start, self.clock()))
        finally:
            if enabled:
                gc.enable()
        start, end = min(times, key=lambda span: span[1] - span[0])
        self.samples.append(((start + end) / 2, end - start))
        self.last = self.clock()

    def due(self):
        """Take a sample if ``PERIOD_S`` has passed since the last one."""
        if self.clock() - self.last >= PERIOD_S:
            self.sample()

    def factor(self, start, end):
        """``NOMINAL_S`` over the median sample around the span
        [start, end], or the nearest sample if none is that close."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            middle = (start + end) / 2
            near = [min(self.samples, key=lambda ts: abs(ts[0] - middle))[1]]
        return NOMINAL_S / statistics.median(near)
