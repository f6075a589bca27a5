"""Pure measurement helpers for the benchmark driver.

Everything here is deterministic and free of simulator imports, so the
benchmark's own logic (percentile choice, span self time, result
digests, steadiness statistics) is testable in milliseconds.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Metric names the benchmark may print.
METRIC_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: A tail is the highest percentile that leaves at least this many
#: samples strictly beyond it.
MIN_BEYOND = 10

#: Result fields that describe the host's execution strategy rather than
#: the simulated machine.  A tier change that keeps every simulated
#: number identical must not change a digest, so these never enter one.
HOST_FIELDS = frozenset((
    "block_invalidations",
    "trace_invalidations",
    "host_seconds",
))

#: Published table columns that carry host telemetry (the gadget_window
#: table folds block+trace invalidations into one column).
HOST_COLUMNS = {"gadget_window": ("blk+trc inval",)}


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not METRIC_NAME_RE.match(name):
        raise ValueError("invalid metric name %r" % (name,))
    return name


# -- percentiles ------------------------------------------------------------


def tail_percentile(samples: Iterable[float]) -> Optional[Tuple[float, float]]:
    """``(pct, value)`` for the highest nearest-rank percentile that
    leaves at least :data:`MIN_BEYOND` samples strictly above its value,
    or None when that percentile would not lie above the median."""
    ordered = sorted(samples)
    n = len(ordered)
    for index in range(n - MIN_BEYOND - 1, -1, -1):
        pct = 100.0 * (index + 1) / n
        if pct <= 50.0:
            break
        value = ordered[index]
        if n - bisect.bisect_right(ordered, value) >= MIN_BEYOND:
            return pct, value
    return None


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (Q3 - Q1) / median, with quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    rel = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": rel}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    if not first:
        return 0.0 if not second else float("inf")
    delta = (second - first) / first
    return delta if better == "lower" else -delta


# -- spans ------------------------------------------------------------------


def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for lo, hi in intervals
        if hi > start and lo < end
    )
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in clipped:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_seconds(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time per span id: its duration minus the part of its
    interval that its child spans cover.

    ``spans`` are exported span dicts (``id``, ``parent``, ``t0``,
    ``t1``), as :meth:`repro.obs.trace.Tracer.export` produces.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None and span.get("t1") is not None:
            children.setdefault(span["parent"], []).append(
                (span["t0"], span["t1"]))
    out = {}
    for span in spans:
        t0, t1 = span["t0"], span.get("t1")
        if t1 is None:
            out[span["id"]] = 0.0
            continue
        out[span["id"]] = (t1 - t0) - covered(
            t0, t1, children.get(span["id"], ()))
    return out


def span_seconds(spans: Sequence[dict], name: str) -> float:
    """Total duration of the outermost spans called ``name`` (a span
    nested inside another of the same name is not counted twice)."""
    by_id = {span["id"]: span for span in spans}

    def nested(span):
        parent = by_id.get(span.get("parent"))
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent.get("parent"))
        return False

    return sum(
        span["t1"] - span["t0"]
        for span in spans
        if span["name"] == name and span.get("t1") is not None
        and not nested(span)
    )


# -- digests ----------------------------------------------------------------


def strip_host_fields(value):
    """Copy of a JSON-like value without any :data:`HOST_FIELDS` key."""
    if isinstance(value, dict):
        return {key: strip_host_fields(item) for key, item in value.items()
                if key not in HOST_FIELDS}
    if isinstance(value, (list, tuple)):
        return [strip_host_fields(item) for item in value]
    return value


def strip_host_columns(exp_id: str, doc: dict) -> dict:
    """Copy of one experiment's results-JSON entry without the table
    columns :data:`HOST_COLUMNS` marks as host telemetry."""
    drop = HOST_COLUMNS.get(exp_id, ())
    headers = list(doc.get("headers", ()))
    keep = [i for i, header in enumerate(headers) if header not in drop]
    out = dict(doc)
    out["headers"] = [headers[i] for i in keep]
    out["rows"] = [[row[i] for i in keep] for row in doc.get("rows", ())]
    return out


def digest(value) -> str:
    """Canonical SHA-256 prefix of a JSON-like value, host fields
    removed."""
    blob = json.dumps(strip_host_fields(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
