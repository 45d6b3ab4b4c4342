"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared machine the speed of a plain Python loop drifts by up to a factor
of two over seconds to minutes, for every process alike.  The benchmark times
these kernels every quarter second, also in the middle of an op, and divides
each stretch of an op's latency by the machine's slowdown around it, so a slow
or fast stretch cancels out and a change in hamlab's own cost does not.

The kernels never call hamlab, so no change to the library can move them.
They do what hamlab's hot loops do, on data of their own: `path_kernel`
rebuilds a path tuple and its position dict after a reversal (the rotation
layer), and `alloc_kernel` allocates and drops many small tuples and sets
(the closing layer's segment records and stored paths).  Different code slows
by different amounts in a slow stretch; the geometric mean of the two tracks
hamlab's workloads better than either alone.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

_N = 3000
_ORDER = list(range(_N))
random.Random(5).shuffle(_ORDER)


class _Path:
    __slots__ = ("vertices", "pos")

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        self.pos = {v: i for i, v in enumerate(self.vertices)}

    def rotate(self, i):
        return _Path(self.vertices[: i + 1] + self.vertices[i + 1 :][::-1])


def path_kernel():
    path = _Path(_ORDER)
    total = 0
    for r in range(12):
        path = path.rotate(r * 331 % (_N - 100))
        total += path.pos[_ORDER[r]]
    return total


def alloc_kernel():
    paths = [tuple(range(j, j + 60)) for j in range(800)]
    sets = [set(p[::3]) for p in paths]
    return sum(len(s) for s in sets)


# Each kernel's time on an unloaded 2-CPU machine (Python 3.11), seconds.  A
# scaled latency reads as the seconds the op takes at that speed.
KERNELS = ((path_kernel, 0.0025), (alloc_kernel, 0.0025))
REPEATS = 2


def slowdown():
    """How much slower than the unloaded machine the kernels run right now.

    Each kernel's time is the fastest of REPEATS runs; the result is the
    geometric mean of the kernels' times over their unloaded times.
    """
    ratios = []
    for kernel, unloaded in KERNELS:
        best = None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            took = time.perf_counter() - t0
            if best is None or took < best:
                best = took
        ratios.append(best / unloaded)
    return statistics.geometric_mean(ratios)


class ScaledClock:
    """A clock that stops while the kernels run, and the slowdown along it.

    Used around a pass: it measures the slowdown on entry, on exit and, when
    `every` is set, every `every` seconds in between from a SIGALRM handler,
    so an op that runs for seconds is measured along the way and not only at
    its ends.  The handler's own time is taken off the clock.  No thread is
    started; the handler runs in the main thread between bytecodes.
    """

    def __init__(self, every):
        self.every = every
        self.paused = 0.0
        self.points = []  # (clock time, slowdown), in time order
        self._busy = False
        self._previous = None

    def now(self):
        return time.perf_counter() - self.paused

    def measure(self, *_):
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            slow = slowdown()
            self.points.append((start - self.paused, slow))
            self.paused += time.perf_counter() - start
        finally:
            self._busy = False

    def __enter__(self):
        self.measure()
        if self.every:
            self._previous = signal.signal(signal.SIGALRM, self.measure)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.measure()
        return False

    def scaled(self, intervals):
        """Each (start, end) interval's clock seconds over the slowdown.

        Between two measurements the slowdown is taken as their mean.
        """
        times = [t for t, _ in self.points]
        out = []
        for start, end in intervals:
            total = 0.0
            i = max(bisect.bisect_right(times, start) - 1, 0)
            while i + 1 < len(times) and times[i] < end:
                (t0, s0), (t1, s1) = self.points[i], self.points[i + 1]
                overlap = min(end, t1) - max(start, t0)
                if overlap > 0:
                    total += overlap / ((s0 + s1) / 2)
                i += 1
            out.append(total)
        return out
