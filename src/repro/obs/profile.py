"""Phase profiler: attribute host wall-time to named simulator phases.

A :class:`PhaseProfiler` accumulates ``perf_counter`` deltas per phase
name via context managers::

    prof = PhaseProfiler()
    with prof.phase("randomize"):
        ...
    with prof.phase("simulate", workload="gcc", mode="vcfr"):
        ...
    print(prof.format_table())

Phases nest; time is *inclusive* (a child's time is also inside its
parent's), matching how one reads a flame graph top-down.  When an
:class:`~repro.obs.events.EventLog` is attached, each completed phase
also emits a ``phase`` record, so offline analysis
(``repro.tools.stats``) sees the same attribution as the live process.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Optional

__all__ = ["PhaseProfiler"]


class PhaseStat:
    """Accumulated time for one phase name."""

    __slots__ = ("seconds", "calls")

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.calls += 1


class PhaseProfiler:
    """Named wall-time accumulator with optional event-log mirroring."""

    def __init__(self, events=None):
        self.stats: Dict[str, PhaseStat] = {}
        self.events = events

    @contextmanager
    def phase(self, name: str, **fields):
        """Time a block under ``name``; extra ``fields`` only annotate
        the emitted event (the accumulator keys on the name alone, so
        per-workload detail lives in the log, not the table)."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = PhaseStat()
            stat.add(elapsed)
            if self.events is not None:
                self.events.phase(name, elapsed, **fields)

    def add(self, name: str, seconds: float, calls: int = 1,
            **fields) -> None:
        """Fold externally-measured time into phase ``name``.

        For callers that time sections of a hot loop with raw
        ``perf_counter`` arithmetic and deposit the totals once, instead
        of entering a context manager per iteration.
        """
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = PhaseStat()
        stat.seconds += seconds
        stat.calls += calls
        if self.events is not None:
            self.events.phase(name, seconds, **fields)

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        Unlike :meth:`add`, nothing is re-emitted to the event log: the
        sweep engine replays the worker's own buffered ``phase`` records
        separately, so emitting here would double-count them offline.
        """
        for name, stat in snapshot.items():
            mine = self.stats.get(name)
            if mine is None:
                mine = self.stats[name] = PhaseStat()
            mine.seconds += stat["seconds"]
            mine.calls += stat["calls"]

    # -- inspection --------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return sum(stat.seconds for stat in self.stats.values())

    def snapshot(self) -> Dict[str, dict]:
        return {
            name: {"seconds": round(stat.seconds, 6), "calls": stat.calls}
            for name, stat in self.stats.items()
        }

    def reset(self) -> None:
        self.stats.clear()

    def format_table(self, title: Optional[str] = None) -> str:
        """Aligned per-phase breakdown, hottest phase first."""
        total = self.total_seconds
        lines = []
        if title:
            lines.append(title)
        lines.append("%-18s %10s %7s %7s" % ("phase", "seconds", "calls", "%"))
        for name, stat in sorted(
            self.stats.items(), key=lambda kv: -kv[1].seconds
        ):
            share = 100.0 * stat.seconds / total if total else 0.0
            lines.append(
                "%-18s %10.4f %7d %6.1f%%"
                % (name, stat.seconds, stat.calls, share)
            )
        lines.append("%-18s %10.4f" % ("total", total))
        return "\n".join(lines)
