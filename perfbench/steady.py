"""Steadiness mode: run each workload repeatedly and report its spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --seeds 1-10 --sets 2
    python3 perfbench/steady.py --workloads rotate --seeds 1-5

Each run is ``perfbench/run.py --workload W --seed S --seconds N
--trace T`` in a fresh process, one at a time.  Per metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and
(Q3 - Q1) / median, and flags:

* ``WIDE`` -- the spread exceeds a third of the metric's bound;
* ``OUT``  -- the spread exceeds the bound itself;
* ``DRIFT`` -- with ``--sets 2``, the second set's median is worse than
  the first's by more than the bound.

With ``--trace 1`` the per-layer counts are listed with whether
they repeat exactly across the runs (use one seed several times, e.g.
``--seeds 5,5,5``, to check that they do).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import measure  # noqa: E402
from perfbench.run import WORKLOAD_NAMES, parse_seeds  # noqa: E402

RUN_TIMEOUT_S = 900


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s seed %d exited %d"
                           % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    clock = next((line for line in lines if line.startswith("host clock:")),
                 "host clock: not reported")
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        print("  !! %s seed %d: not correct: %d of %d ops failed; %s"
              % (workload, seed, result["failed"], result["attempted"],
                 clock))
    return {name: m["value"] for name, m in result["metrics"].items()}, clock


def summarize(name, values, meta, first_median=None):
    stats = measure.spread(values)
    flags = []
    bound = meta.get("bound")
    if bound is not None:
        if stats["spread"] > bound:
            flags.append("OUT")
        elif stats["spread"] > bound / 3:
            flags.append("WIDE")
    if bound is not None and first_median is not None:
        drift = measure.worse_by(first_median, stats["median"],
                                 meta["better"])
        flags.append("drift %+.1f%%" % (100 * drift))
        if drift > bound:
            flags.append("DRIFT")
    print("  %-34s median %14.6f  q1 %14.6f  q3 %14.6f  spread %6.2f%%"
          "  bound %s  %s"
          % (name, stats["median"], stats["q1"], stats["q3"],
             100 * stats["spread"],
             "-" if bound is None else "%g%%" % (100 * bound),
             " ".join(flags)))
    return stats["median"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    metas = {m["name"]: m for m in spec[section]}
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")

    values = {}
    for set_index in range(args.sets):
        for workload in workloads:
            for seed in seeds:
                metrics, clock = run_once(workload, seed, seconds,
                                          args.trace)
                print("set %d %s seed %d done; %s"
                      % (set_index + 1, workload, seed, clock),
                      file=sys.stderr)
                for name, value in metrics.items():
                    values.setdefault((set_index, workload, name),
                                      []).append(value)

    for workload in workloads:
        print("%s: %d run(s) per set, seeds %s, %g s per run"
              % (workload, len(seeds), args.seeds, seconds))
        for set_index in range(args.sets):
            print(" set %d" % (set_index + 1))
            for name, meta in metas.items():
                runs = values.get((set_index, workload, name))
                if not runs:
                    print("  %-34s absent" % name)
                    continue
                first = None
                if set_index:
                    first = measure.spread(
                        values[(0, workload, name)])["median"]
                summarize(name, runs, meta, first)
                if meta["unit"] == "count":
                    distinct = sorted(set(runs))
                    print("  %-34s %s" % ("", "repeats exactly"
                                          if len(distinct) == 1
                                          else "varies: %s" % distinct))
    return 0


if __name__ == "__main__":
    sys.exit(main())
