"""Benchmark driver: one closed-loop client, one process, one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite_bigcode --seed 42 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off.  ``--trace 1`` alternates untraced and traced rounds
and prints the per-layer ledger plus the tracing overhead.  Either way
every op's output is checked, the report goes to stdout, and the last
line of stdout is one JSON object::

    {"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}

Maintenance: ``--update-golden 0-20,42 [--workload W]`` records the
result digest of every op a run with those seeds makes in
``perfbench/golden.json`` (only do this when a change is meant to alter
simulated results).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORKLOAD_NAMES = ("suite_bigcode", "suite_loops", "rotate", "reproduce")

#: Fresh interpreters timed from launch to their first op would-be
#: start; setup_s is their median.
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120
SETUP_MARKER = "perfbench setup done"

#: Largest share by which the host clock's kernel may run slower inside
#: ops than between them (see ``HostClock.inside_slowdown``).  Beyond
#: it the program slows the interpreter itself, the clock divides that
#: slowdown away, and the run is marked not correct.
MAX_INSIDE_SLOWDOWN = 0.10


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--update-golden", metavar="SEEDS",
                        help="record result digests for these seeds "
                             "(e.g. 0-20,42) and exit")
    args = parser.parse_args(argv)
    if not args.update_golden and not args.workload:
        parser.error("--workload is required")
    return args


class Round:
    """One pass over a workload's op set."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.outcomes = []
        #: host (start, end) of each op, in issue order.
        self.intervals = []
        #: per-op reference-host seconds (see :mod:`perfbench.hostclock`).
        self.op_seconds = []
        #: per-op host seconds, the clock's own samples left out.
        self.host_seconds = []
        self.instructions = 0
        self.failed = 0
        self.info = {}
        self.spans = []

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)

    def finish(self, clock) -> None:
        """Convert host times to reference-host time, once the timed
        phase is over."""
        self.op_seconds = [clock.seconds(*iv) for iv in self.intervals]
        self.host_seconds = [clock.host_seconds(*iv)
                             for iv in self.intervals]
        to_reference(self.spans, clock)


def to_reference(spans, clock) -> list:
    """Move exported spans from host time to ``clock``'s virtual time."""
    for span in spans:
        span["t0"] = clock.virtual(span["t0"])
        if span.get("t1") is not None:
            span["t1"] = clock.virtual(span["t1"])
    return spans


def run_round(workload, ops, traced: bool, clock) -> Round:
    """Issue every op once, each after the previous returned.  Only the
    ops are timed; the output checks between them are not.  ``clock``
    samples host speed just before each op."""
    from repro.obs.trace import NULL_TRACER, Tracer

    rnd = Round(traced)
    tracer = Tracer() if traced else NULL_TRACER
    with workload.round_scope(tracer) as info:
        for op in ops:
            clock.sample()
            start = time.perf_counter()
            try:
                result = op.call(tracer)
            except Exception:
                rnd.intervals.append((start, time.perf_counter()))
                rnd.failed += 1
                print("op %s raised:\n%s" % (op.label, traceback.format_exc()),
                      file=sys.stderr)
                continue
            rnd.intervals.append((start, time.perf_counter()))
            try:
                workload.verify(op, result)
            except Exception as err:
                rnd.failed += 1
                print("op %s failed its check: %s" % (op.label, err),
                      file=sys.stderr)
                continue
            rnd.outcomes.append(result)
            rnd.instructions += workload.instructions(result)
    rnd.info = info
    rnd.spans = tracer.export()
    return rnd


def run_rounds(workload, count: int, trace: bool):
    """``count`` rounds under one :class:`HostClock`, and the clock's
    :meth:`~perfbench.hostclock.HostClock.inside_slowdown`.  A traced
    run alternates an untraced and a traced round over the same ops."""
    from perfbench.hostclock import HostClock

    plan = ([(i // 2, bool(i % 2)) for i in range(count)] if trace
            else [(i, False) for i in range(count)])
    with HostClock() as clock:
        rounds = [run_round(workload, workload.ops(index), traced, clock)
                  for index, traced in plan]
    for rnd in rounds:
        rnd.finish(clock)
    return rounds, clock.inside_slowdown()


def time_setup_probes(args) -> list:
    """Launch fresh interpreters that import and set up the workload,
    timing each from launch to its set-up-done line.  The child times
    its imports and set-up under a :class:`HostClock` and reports them
    in host and reference-host seconds; the rest of the launch counts
    as measured."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        marker, _, times = line.partition(":")
        if marker != SETUP_MARKER or proc.returncode != 0:
            raise RuntimeError("set-up probe failed (exit %s)"
                               % proc.returncode)
        host_s, reference_s = map(float, times.split())
        samples.append(elapsed - host_s + reference_s)
    return samples


def load_golden() -> dict:
    if GOLDEN.is_file():
        with open(GOLDEN) as fh:
            return json.load(fh)
    return {}


def end_to_end(workload, rounds, setup_samples):
    from perfbench import measure

    op_seconds = [s for rnd in rounds for s in rnd.op_seconds]
    wall = sum(op_seconds)
    p50 = statistics.median(op_seconds)
    tail = measure.tail_percentile(op_seconds)
    metrics = {
        "sim_kips": sum(rnd.instructions for rnd in rounds) / wall / 1e3,
        "wall_s": wall,
        "op_p50_s": p50,
        "op_tail_s": tail[1] if tail else p50,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "op_tail_s": ("p%.3g of %d ops" % (tail[0], len(op_seconds))
                      if tail else "p50 of %d ops: too few ops "
                      "for a tail" % len(op_seconds)),
        "op_p50_s": "p50 of %d ops" % len(op_seconds),
        "setup_s": "median of %d fresh interpreters" % len(setup_samples),
    }
    return metrics, notes


def per_layer(workload, rounds, setup_spans, declared):
    """The ledger, every declared metric filled: a layer the workload's
    ops never call reads 0; a tier counter the workload reads
    (``workload.tier_metrics``) but the program no longer reports is
    left out."""
    traced = [rnd for rnd in rounds if rnd.traced]
    untraced = [rnd for rnd in rounds if not rnd.traced]
    spans = [span for rnd in traced for span in rnd.spans]
    ledger = workload.ledger(traced, spans, setup_spans)
    ledger["obs.trace_overhead_frac"] = (
        sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)
        - 1.0)
    metrics, notes = {}, {}
    for name in declared:
        if name in ledger:
            metrics[name] = ledger[name]
        elif name in workload.tier_metrics:
            notes[name] = "absent (tier not reported by the program)"
        else:
            metrics[name] = 0.0
            notes[name] = "n/a (not called by this workload's ops)"
    unknown = sorted(set(ledger) - set(declared))
    if unknown:
        raise KeyError("undeclared per-layer metrics: %s" % unknown)
    return metrics, notes


def report(title, metrics, units, notes):
    print(title)
    for name in units:
        if name in metrics:
            print("  %-36s %16.6f %-6s %s" % (name, metrics[name], units[name],
                                            notes.get(name, "")))
        else:
            print("  %-36s %16s %-6s %s" % (name, "-", units[name],
                                            notes.get(name, "")))


def measure_run(args, spec) -> int:
    from perfbench import measure
    from perfbench.hostclock import HostClock
    from perfbench.workloads import WORKLOADS
    from repro.obs.trace import NULL_TRACER, Tracer

    probes_start = time.perf_counter()
    # The traced run reports no setup_s, so it launches no probes.
    setup_samples = [] if args.trace else time_setup_probes(args)
    own_setup_start = time.perf_counter()
    golden = load_golden().get(args.workload, {})
    workload = WORKLOADS[args.workload](args.seed, golden)
    count = workload.rounds_for(args.seconds)
    setup_tracer = Tracer() if args.trace else NULL_TRACER
    with HostClock() as setup_clock:
        workload.setup(count, setup_tracer)
    setup_spans = to_reference(setup_tracer.export(), setup_clock)
    own_setup = (probes_start - START
                 + time.perf_counter() - own_setup_start)

    if args.trace:
        count = max(2, count + count % 2)
    rounds, slowdown = run_rounds(workload, count, bool(args.trace))
    attempted = sum(len(rnd.op_seconds) for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    for name in units:
        measure.check_name(name)
    print("workload %s  seed %d  rounds %d x %d ops  closed loop, 1 client"
          % (args.workload, args.seed, count, len(rounds[0].intervals)))
    print("golden digests matched by %d of %d ops"
          % (workload.golden_checked, attempted))
    print("ops attempted %d  failed %d  op_fail_frac %.6f"
          % (attempted, failed, failed / attempted))
    print("this process: set-up %.3f s (imports, builds, randomization)"
          % own_setup)
    host_s = sum(s for rnd in rounds for s in rnd.host_seconds)
    ref_s = sum(rnd.seconds for rnd in rounds)
    print("timed phase: %.3f host s = %.3f reference-host s (host at %.3f"
          "x the reference speed)" % (host_s, ref_s, ref_s / host_s))
    distorted = slowdown is None or abs(slowdown) > MAX_INSIDE_SLOWDOWN
    print("host clock: kernel slower inside ops than between them by %s%s"
          % ("n/a" if slowdown is None else "%+.2f%%" % (100 * slowdown),
             "  WARN: distorted, times not comparable" if distorted else ""))
    try:
        if args.trace:
            metrics, notes = per_layer(workload, rounds, setup_spans,
                                       list(units))
            title = "per-layer ledger (traced rounds; counts per round)"
        else:
            metrics, notes = end_to_end(workload, rounds, setup_samples)
            title = "end-to-end metrics (tracing off)"
    except Exception:
        traceback.print_exc()
        metrics, notes, failed = {}, {}, max(failed, 1)
        title = "metrics unavailable"
    report(title, metrics, units, notes)
    print(json.dumps({
        "correct": failed == 0 and not distorted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def update_golden(args) -> int:
    """Record the result digest of every op a run of ``--seconds`` makes,
    for each of ``--update-golden``'s seeds, refusing any op that fails
    its checks."""
    from perfbench.hostclock import HostClock
    from perfbench.workloads import WORKLOADS

    golden = load_golden()
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    for name in names:
        for seed in parse_seeds(args.update_golden):
            workload = WORKLOADS[name](seed)
            workload.setup(workload.rounds_for(args.seconds))
            with HostClock() as clock:
                for index in range(workload.rounds_for(args.seconds)):
                    ops = [op for op in workload.ops(index)
                           if op.key not in workload.first_digest]
                    if not ops:
                        break
                    rnd = run_round(workload, ops, False, clock)
                    if rnd.failed:
                        print("%s seed %d: %d op(s) failed; golden not "
                              "recorded" % (name, seed, rnd.failed),
                              file=sys.stderr)
                        return 1
            golden.setdefault(name, {}).update(workload.first_digest)
            print("%s seed %d: %d digests"
                  % (name, seed, len(workload.first_digest)),
                  file=sys.stderr)
            with open(GOLDEN, "w") as fh:
                json.dump(golden, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_json = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not bench_json.is_file():
        print("perfbench: run from a checkout holding src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.update_golden:
        return update_golden(args)
    if args.setup_only:
        from perfbench.hostclock import HostClock

        with HostClock() as clock:
            from perfbench.workloads import WORKLOADS

            workload = WORKLOADS[args.workload](args.seed)
            workload.setup(workload.rounds_for(args.seconds))
            done = time.perf_counter()
        begin = clock.starts[0]
        print("%s: %.9f %.9f" % (SETUP_MARKER, done - begin,
                                  clock.seconds(begin, done)), flush=True)
        # Skip interpreter teardown: the probe is timed to the line.
        os._exit(0)
    with open(bench_json) as fh:
        spec = json.load(fh)
    return measure_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
