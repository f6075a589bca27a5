"""Tests of the benchmark's own logic.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import random
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import measure  # noqa: E402


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_metric_names_are_valid():
    spec = _spec()
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in spec[section]]
    for name in names + [w["name"] for w in spec["workloads"]]:
        assert measure.METRIC_NAME_RE.match(name), name
    assert len(names) == len(set(names))
    for bad in ("", "a b", "kips/s", "x:y"):
        with pytest.raises(ValueError):
            measure.check_name(bad)


@pytest.mark.parametrize("n", list(range(0, 130)))
def test_tail_leaves_ten_samples_beyond(n):
    rng = random.Random(n)
    # Coarse values force ties, the case a plain rank would get wrong.
    samples = [round(rng.expovariate(1.0), 1) for _ in range(n)]
    tail = measure.tail_percentile(samples)
    if tail is None:
        return
    pct, value = tail
    assert pct > 50.0
    assert sum(1 for s in samples if s > value) >= measure.MIN_BEYOND
    assert value in samples


def test_tail_is_the_highest_qualifying_percentile():
    samples = [float(i) for i in range(1, 49)]  # 48 distinct samples
    pct, value = measure.tail_percentile(samples)
    assert value == 38.0  # exactly ten samples (39..48) beyond
    assert pct == pytest.approx(100.0 * 38 / 48)
    assert measure.tail_percentile([1.0] * 19 + [2.0]) is None
    assert measure.tail_percentile(samples[:19]) is None


def _span(span_id, parent, t0, t1, name="x"):
    return {"id": span_id, "parent": parent, "t0": t0, "t1": t1,
            "name": name, "fields": {}}


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 1.0, 4.0),
        _span("b", "root", 3.0, 6.0),   # overlaps a: union is 1..6
        _span("c", "root", 9.0, 12.0),  # runs past the parent: clipped
        _span("a1", "a", 1.5, 2.0),
    ]
    self_time = measure.self_seconds(spans)
    assert self_time["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_time["a"] == pytest.approx(3.0 - 0.5)
    assert self_time["b"] == pytest.approx(3.0)
    assert self_time["a1"] == pytest.approx(0.5)


def test_span_seconds_counts_nested_same_name_once():
    spans = [
        _span("o", None, 0.0, 2.0, "gadget_scan"),
        _span("i", "o", 0.5, 1.0, "gadget_scan"),
        _span("p", None, 3.0, 4.0, "gadget_scan"),
    ]
    assert measure.span_seconds(spans, "gadget_scan") == pytest.approx(3.0)


def test_digest_ignores_host_tagged_race_fields():
    race = {"policy": "periodic@1000", "rotations": 60, "cycles": 123456,
            "block_invalidations": 60, "trace_invalidations": 60}
    host_moved = dict(race, block_invalidations=30, trace_invalidations=0)
    assert measure.digest(race) == measure.digest(host_moved)
    assert measure.digest(race) != measure.digest(dict(race, cycles=123457))


def test_digest_ignores_checkpoint_host_seconds():
    result = {"cycles": 10, "checkpoints": [
        {"instructions": 5, "host_seconds": 0.25}]}
    later = {"cycles": 10, "checkpoints": [
        {"instructions": 5, "host_seconds": 0.5}]}
    assert measure.digest(result) == measure.digest(later)


def test_digest_ignores_gadget_window_host_column():
    doc = {
        "title": "Gadget-availability window",
        "headers": ["policy", "rotations", "blk+trc inval", "IPC"],
        "rows": [["none", 0, 0, 0.5], ["periodic@5000", 16, 32, 0.49]],
        "checks": [{"description": "x", "passed": True}],
    }
    moved = dict(doc, rows=[["none", 0, 0, 0.5],
                            ["periodic@5000", 16, 16, 0.49]])
    assert (measure.digest(measure.strip_host_columns("gadget_window", doc))
            == measure.digest(measure.strip_host_columns("gadget_window",
                                                         moved)))
    simulated = dict(doc, rows=[["none", 0, 0, 0.5],
                                ["periodic@5000", 17, 32, 0.49]])
    assert (measure.digest(measure.strip_host_columns("gadget_window", doc))
            != measure.digest(measure.strip_host_columns("gadget_window",
                                                         simulated)))
    # Other experiments keep every column.
    assert measure.strip_host_columns("fig12", doc) == doc


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.0, 10.3, 9.8]
    stats = measure.spread(values)
    assert stats["median"] == pytest.approx(10.05)
    assert stats["spread"] == pytest.approx(
        (stats["q3"] - stats["q1"]) / stats["median"])
    assert measure.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert measure.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)


class _Outcome:
    def __init__(self, tiers, instructions=1000):
        from repro.arch.simstats import SimResult

        self.app = "x"
        self.tiers = tiers
        self.result = SimResult(mode="baseline", cycles=2000,
                                instructions=instructions,
                                warmup_instructions=0, exit_code=0,
                                finished=True, output=None)


def test_missing_trace_tier_is_absent_not_an_error():
    from perfbench.workloads import SuiteBigcode

    blocks = {"builds": 3, "execs": 10, "hits": 7, "invalidations": 0}
    traces = {"builds": 1, "entries": 4, "bailouts": 2, "invalidations": 0}
    workload = SuiteBigcode(seed=1)
    both = workload.layer_counts([_Outcome({"blocks": blocks,
                                            "traces": traces})])
    assert both["arch.trace_entries"] == 4
    assert both["arch.insts_per_trace_entry"] == 250.0
    blocks_only = workload.layer_counts([_Outcome({"blocks": blocks})])
    assert blocks_only["arch.block_builds"] == 3
    assert not any(name.startswith("arch.trace_") or
                   name == "arch.insts_per_trace_entry"
                   for name in blocks_only)


def test_ledger_reports_absent_tier_metrics_without_failing():
    from perfbench import run

    from perfbench.workloads import TIER_METRICS

    class Fake:
        name = "suite_loops"
        tier_metrics = TIER_METRICS

        def ledger(self, rounds, spans, setup_spans):
            return {"arch.block_builds": 5}

    traced, untraced = run.Round(True), run.Round(False)
    traced.op_seconds, untraced.op_seconds = [1.1], [1.0]
    declared = ["arch.block_builds", "arch.trace_entries",
                "arch.trace_invalidations", "emu.kips",
                "obs.trace_overhead_frac"]
    metrics, notes = run.per_layer(Fake(), [untraced, traced], [], declared)
    assert metrics["arch.block_builds"] == 5
    for name in ("arch.trace_entries", "arch.trace_invalidations"):
        assert name not in metrics
        assert "absent" in notes[name]
    assert metrics["emu.kips"] == 0.0
    assert metrics["obs.trace_overhead_frac"] == pytest.approx(0.1)


def _race(**fields):
    from types import SimpleNamespace

    race = dict(instructions=120_000, tenants=2, max_instructions=60_000,
                rotations=12, drc_flushes=12, payload_possible=True)
    race.update(fields)
    return SimpleNamespace(**race)


def test_rotate_checks_and_counts_without_host_tagged_fields():
    from perfbench import run
    from perfbench.workloads import Op, OpFailed, Rotate

    workload = Rotate(seed=1)
    op = Op("periodic@1000", 1000, None)
    workload.check(op, _race())  # no invalidation counters: still correct
    with pytest.raises(OpFailed):
        workload.check(op, _race(drc_flushes=11))
    rnd = run.Round(True)
    rnd.outcomes = [_race(), _race(block_invalidations=12)]
    spans = [_span("r", None, 0.0, 0.5, "race")]
    ledger = workload.ledger([rnd], spans, [])
    assert ledger["security.rotations"] == 24
    assert "arch.block_invalidations" not in ledger
    assert "arch.trace_invalidations" not in ledger
    rnd.outcomes = [_race(block_invalidations=12, trace_invalidations=3)]
    assert workload.ledger([rnd], spans, [])["arch.block_invalidations"] == 12


def _clock(starts, slowness, timer=None):
    from perfbench import hostclock

    clock = hostclock.HostClock()
    clock.starts = list(starts)
    clock.ends = [s + k * hostclock.KERNEL_REF_S
                  for s, k in zip(starts, slowness)]
    clock.timer = list(timer or [True] * len(starts))
    clock._build()
    return clock


def test_host_clock_divides_by_local_slowness(monkeypatch):
    from perfbench import hostclock

    monkeypatch.setattr(hostclock, "SMOOTH", 1)
    k = hostclock.KERNEL_REF_S
    # Reference speed for the first stretch, then twice as slow.
    clock = _clock([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 2.0])
    assert clock.seconds(k, 1.0) == pytest.approx(1.0 - k)
    assert clock.seconds(2.0 + 2 * k, 3.0) == pytest.approx((1.0 - 2 * k) / 2)
    # Stretch 1 is bracketed by a fast and a slow sample: slowness 1.5.
    assert clock.seconds(1.0 + k, 2.0) == pytest.approx((1.0 - k) / 1.5)


def test_host_clock_leaves_its_own_samples_out():
    from perfbench import hostclock

    k = hostclock.KERNEL_REF_S
    clock = _clock([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    # [0.5, 1.5] holds sample 1 (length k): it counts for nothing.
    assert clock.host_seconds(0.5, 1.5) == pytest.approx(1.0 - k)
    assert clock.seconds(0.5, 1.5) == pytest.approx(1.0 - k)
    assert clock.seconds(1.0, 1.0 + k) == 0.0


def test_host_clock_samples_on_a_timer_while_ops_run():
    import time

    from perfbench import hostclock

    with hostclock.HostClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    assert len(clock.starts) >= 4
    assert 0 < clock.seconds(start, end)
    assert clock.host_seconds(start, end) < end - start


def test_rotate_rounds_race_under_distinct_seeds():
    from perfbench.workloads import Rotate

    workload = Rotate(seed=7)
    workload.setup(rounds=2)
    first, second = workload.ops(0), workload.ops(1)
    assert [op.key for op in first] == [op.key for op in workload.ops(0)]
    assert {op.seed for op in first} == {7000}
    assert {op.seed for op in second} == {7001}
    assert not {op.key for op in first} & {op.key for op in second}


def test_inside_slowdown_compares_timer_samples_with_their_neighbours():
    between, inside = False, True
    # Host speed drifts 1 -> 3, alike for both kinds.  Between-op
    # sample 0 is compared with timer samples 1 and 3, sample 2 with 1,
    # 3 and 5, sample 4 with 1, 3 and 5: the median pair reads 0.
    clock = _clock(range(6), [1.0, 1.0, 2.0, 2.0, 3.0, 3.0],
                   [between, inside, between, inside, between, inside])
    assert clock.inside_slowdown() == pytest.approx(
        statistics.median([(1 + 2) / 2 / 1, (1 + 2 + 3) / 3 / 2,
                           (1 + 2 + 3) / 3 / 3]) - 1)
    assert clock.inside_slowdown() == pytest.approx(0.0)
    # The kernel runs twice as slow whenever it interrupts an op.
    clock = _clock(range(6), [1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
                   [between, inside, between, inside, between, inside])
    assert clock.inside_slowdown() == pytest.approx(1.0)
    assert _clock(range(3), [1.0] * 3, [between] * 3).inside_slowdown() is None


def _busy(seconds):
    import time

    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        pass


def test_inside_slowdown_exposes_a_hook_active_only_inside_ops():
    from perfbench import hostclock

    def line_hook(frame, event, arg):
        return line_hook

    with hostclock.HostClock() as clean:
        for _ in range(4):
            clean.sample()
            _busy(0.15)
    with hostclock.HostClock() as hooked:
        for _ in range(4):
            hooked.sample()
            sys.settrace(line_hook)
            try:
                _busy(0.15)
            finally:
                sys.settrace(None)
    assert abs(clean.inside_slowdown()) < 0.5
    assert hooked.inside_slowdown() > 1.0
