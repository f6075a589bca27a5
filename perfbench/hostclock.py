"""Host-speed clock: op times scaled to the reference host's speed.

On a shared VM the speed at which the host runs pure-Python code wanders
by 20% and more over seconds to minutes, in one process as much as
across processes, so raw op times of identical work do not repeat.  The
wander hits a fixed pure-Python kernel and the simulator alike, so a
:class:`HostClock` samples it: it times :func:`kernel` on a timer every
:data:`PERIOD_S` while ops run, and once before each op.  Its *virtual*
time advances at the rate the reference host would have run: over the
stretch between two samples, by the host seconds elapsed divided by the
local slowness (kernel time of the nearby samples over
:data:`KERNEL_REF_S`).  The samples' own time is left out, so a sample
that interrupts an op is not charged to it.

The kernel is part of the benchmark, not of the program, so a change to
the program moves op times but never the yardstick -- unless the program
slows the whole interpreter while its ops run (a trace or profile hook,
a thread contending for the GIL) in a way that slows the timer samples
as much as the op: the two would cancel out.  :meth:`HostClock.inside_slowdown`
exposes it by comparing the timer samples with the samples taken
between ops, where no program code runs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Optional

#: Iterations of :func:`kernel` per sample.
KERNEL_ITERS = 20_000
#: Median seconds of one :func:`kernel` call on the reference host (a
#: 2-core x86-64 VM, CPython 3.11).  Virtual seconds are seconds there.
KERNEL_REF_S = 0.0021
#: Timer period of the samples taken while an op runs.
PERIOD_S = 0.05
#: Samples on each side of a stretch whose mean sets its slowness.
SMOOTH = 2
#: Timer samples on each side of a between-op sample that it is
#: compared with.
NEIGHBOURS = 2


def kernel(iters: int = KERNEL_ITERS) -> int:
    """Fixed pure-Python work: integer arithmetic in an interpreted loop."""
    x = 0
    for i in range(iters):
        x = (x * 31 + i) & 0xFFFF
    return x


class HostClock:
    """Samples host speed while ops run, and maps host times
    (``time.perf_counter``) to virtual reference-host seconds.

    Use as a context manager around the timed phase; after it exits,
    :meth:`seconds` and :meth:`virtual` are available.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        #: per sample: taken by the timer (inside ops) or between ops.
        self.timer: List[bool] = []
        self._busy = False
        self._slowness: List[float] = []
        self._virtual: List[float] = []

    def sample(self, timer: bool = False) -> None:
        """Time one kernel call now; ``timer`` marks a sample that may
        interrupt an op."""
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
            self.timer.append(timer)
        finally:
            self._busy = False

    def _on_timer(self, signum, frame) -> None:
        self.sample(timer=True)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        self._build()

    def _build(self) -> None:
        ratios = [(t1 - t0) / KERNEL_REF_S
                  for t0, t1 in zip(self.starts, self.ends)]
        # Stretch i runs from the end of sample i to the start of i + 1.
        windows = [ratios[max(0, i - SMOOTH + 1):i + SMOOTH + 1]
                   for i in range(len(ratios))]
        self._slowness = [sum(w) / len(w) for w in windows]
        self._virtual = [0.0]
        for i in range(len(ratios) - 1):
            self._virtual.append(
                self._virtual[-1]
                + (self.starts[i + 1] - self.ends[i]) / self._slowness[i])

    def inside_slowdown(self) -> Optional[float]:
        """How much slower the kernel ran in the timer samples than in
        the between-op samples next to them: the median, over
        between-op samples, of the mean kernel time of the nearest
        :data:`NEIGHBOURS` timer samples on each side over the sample's
        own, minus 1.  Near 0 when host speed alone moves the kernel;
        positive when something slows the interpreter only while ops
        run.  None without a between-op sample with timer neighbours."""
        times = [e - s for s, e in zip(self.starts, self.ends)]
        timer_at = [i for i, t in enumerate(self.timer) if t]
        ratios = []
        for i, is_timer in enumerate(self.timer):
            if is_timer:
                continue
            k = bisect.bisect_left(timer_at, i)
            near = timer_at[max(0, k - NEIGHBOURS):k + NEIGHBOURS]
            if near:
                ratios.append(sum(times[j] for j in near) / len(near)
                              / times[i])
        return statistics.median(ratios) - 1.0 if ratios else None

    def virtual(self, t: float) -> float:
        """Virtual seconds at host time ``t`` (inside the timed phase)."""
        i = max(0, bisect.bisect_right(self.starts, t) - 1)
        if t <= self.ends[i]:
            return self._virtual[i]
        return self._virtual[i] + (t - self.ends[i]) / self._slowness[i]

    def seconds(self, t0: float, t1: float) -> float:
        """Reference-host seconds the interval ``[t0, t1]`` stands for."""
        return self.virtual(t1) - self.virtual(t0)

    def host_seconds(self, t0: float, t1: float) -> float:
        """Host seconds of ``[t0, t1]`` outside the clock's samples."""
        inside = sum(min(e, t1) - max(s, t0)
                     for s, e in zip(self.starts, self.ends)
                     if e > t0 and s < t1)
        return (t1 - t0) - inside

