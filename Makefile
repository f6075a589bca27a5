# Developer entry points.  `make verify` is the tier-1 gate: the full
# test suite (slow robustness tests included), the quick deterministic
# differential-fuzzing tier, plus the observability-overhead,
# span-tracing-overhead, parallel-sweep, streaming-scheduler,
# fast-path, and fault-tolerance-overhead budget checks, and the
# repository benchmark's own tests (perfbench/tests).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: verify test test-slow fuzz-quick fuzz bench-obs bench-trace \
        bench-sweep bench-scheduler bench-hotloop bench-faults \
        bench-race bench-fleet benchgate-compare bench backfill-store \
        perfbench-test

verify: test test-slow fuzz-quick bench-obs bench-trace bench-sweep \
        bench-scheduler bench-hotloop bench-faults bench-race \
        bench-fleet benchgate-compare perfbench-test

test:
	$(PYTHON) -m pytest -x -q

# Subprocess kill -9 / resume robustness tests (excluded from the
# default run by the `-m 'not slow'` addopts so tier-1 stays fast).
test-slow:
	$(PYTHON) -m pytest -x -q -m slow

# Quick deterministic fuzz tier: 200 seeded programs through the full
# engine x flow differential matrix (< 60 s, zero divergences expected).
fuzz-quick:
	$(PYTHON) -m repro.tools.fuzz --seed 1 --budget 200 --quiet

# Longer fuzzing session with shrinking for local bug hunts.
fuzz:
	$(PYTHON) -m repro.tools.fuzz --seed $${SEED:-1} \
		--budget $${BUDGET:-2000} --shrink

bench-obs:
	$(PYTHON) benchmarks/bench_obs_overhead.py

bench-trace:
	$(PYTHON) benchmarks/bench_trace_overhead.py

# Smoke the run-store backfill path end to end (sweep -> cache/events
# -> fresh store) via the runnable example.
backfill-store:
	$(PYTHON) examples/store_demo.py

bench-sweep:
	$(PYTHON) benchmarks/bench_parallel_speedup.py

bench-scheduler:
	$(PYTHON) benchmarks/bench_scheduler_overhead.py

bench-hotloop:
	$(PYTHON) benchmarks/bench_hot_loop.py

bench-faults:
	$(PYTHON) benchmarks/bench_fault_overhead.py

bench-race:
	$(PYTHON) benchmarks/bench_race_overhead.py

bench-fleet:
	$(PYTHON) benchmarks/bench_fleet_overhead.py

# Trend check: fail verify when a freshly written BENCH_*.json metric
# regressed vs the version committed at HEAD (direction per gate op).
benchgate-compare:
	$(PYTHON) -m repro.tools.benchgate --compare

# The repository benchmark (perfbench/run.py) drives the harness
# through ExperimentSession; its tests live outside tier-1 testpaths.
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

# Full per-figure benchmark suite (slow; regenerates paper tables).
bench:
	$(PYTHON) -m pytest benchmarks/ -q
