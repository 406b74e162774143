"""Host-speed reference: time a fixed piece of Python work alongside
the workload and express every timing at a nominal host speed.

The shared hosts this benchmark runs on change speed by up to ~1.8x
over seconds (other tenants on the same cores), which swamps any
program change.  So the run times a fixed, allocation-free walk over a
benchmark-owned object graph -- the kind of pointer-chasing work the
program does -- every :data:`INTERVAL_S` seconds, and scales each
timing by ``k = measured / NOMINAL_NS`` from the walks around it: a
time ``t`` is reported as ``t / k`` and a rate ``r`` as ``r * k``.
The walk is timed in thread CPU time with the collector paused, so
neither other threads nor the program's heap size feed into ``k``.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

__all__ = ["SpeedReference"]

#: Walk time of one probe on a typical moment of the reference host
#: (2 vCPUs of an Intel Xeon at 2.0 GHz, CPython 3.11).
NOMINAL_NS = 2_200_000
#: Vertices of the walked graph; NOMINAL_NS is calibrated to this size.
GRAPH_SIZE = 6_000
#: Seconds between probes during a timed loop.
INTERVAL_S = 0.05
#: Probes within this many seconds of an instant set its factor.
RADIUS_S = 0.5


class _Vertex:
    __slots__ = ("tag", "value", "parent")

    def __init__(self, tag: str, value: int, parent) -> None:
        self.tag = tag
        self.value = value
        self.parent = parent


class SpeedReference:
    """Probes of the reference walk and the factor ``k`` they imply."""

    nominal_ns = NOMINAL_NS

    def __init__(self) -> None:
        rng = random.Random(7)
        vertices: list[_Vertex] = []
        for i in range(GRAPH_SIZE):
            parent = vertices[rng.randrange(i)] if i else None
            vertices.append(_Vertex(f"t{i % 23}", i, parent))
        rng.shuffle(vertices)
        self._order = vertices
        self._weights = {f"t{i}": i + 1 for i in range(23)}
        self.times: list[int] = []     # perf_counter_ns at each probe
        self.walks: list[int] = []     # thread CPU ns of each walk
        self._next = 0

    def _walk(self) -> int:
        weights = self._weights
        acc = 0
        for vertex in self._order:
            parent = vertex.parent
            acc += weights[vertex.tag] + (parent.value if parent else 0)
        return acc

    def probe(self) -> None:
        """Time one walk now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.thread_time_ns()
            self._walk()
            walked = time.thread_time_ns() - started
        finally:
            if enabled:
                gc.enable()
        self.times.append(time.perf_counter_ns())
        self.walks.append(walked)

    def maybe_probe(self, now: int) -> None:
        """Probe if :data:`INTERVAL_S` has passed since the last one."""
        if now >= self._next:
            self.probe()
            self._next = time.perf_counter_ns() + int(INTERVAL_S * 1e9)

    def k(self, start: int, end: int) -> float:
        """Slowness factor over ``[start, end]``: median walk of the
        probes within :data:`RADIUS_S` of the span, over the nominal
        walk."""
        radius = int(RADIUS_S * 1e9)
        lo = bisect.bisect_left(self.times, start - radius)
        hi = bisect.bisect_right(self.times, end + radius)
        walks = self.walks[lo:hi]
        if not walks:
            # No probe close by: take the nearest one on either side.
            i = min(bisect.bisect_left(self.times, start),
                    len(self.times) - 1)
            walks = self.walks[max(i - 1, 0):i + 1]
        return statistics.median(walks) / NOMINAL_NS
