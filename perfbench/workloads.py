"""The benchmark's workloads: each one a closed loop with one client.

A workload is set up once per process, then runs *rounds*: one round
issues every op of the workload's set once, in a fixed order, each op
starting when the previous one returned.  Running whole rounds
round-robin spreads host drift evenly over every op, and keeps the op
count of a run a whole multiple of the set.

Every call into the program goes through a public function and, on a
traced round, under one benchmark-side span (``tracer.span``), so the
per-layer ledger is measured from outside the program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
from typing import Callable, Dict, List, Optional
from unittest import mock

from repro.arch.cpu import CycleCPU
from repro.ilr import RandomizerConfig, make_flow, randomize
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_TRACER
from repro.workloads import suite

from . import measure

MODES = ("baseline", "naive_ilr", "vcfr")

#: Per-layer metrics that come from the program's tier counters
#: (``CycleCPU.tier_stats()``, the ``sim.tier.*`` counters, or the
#: host-tagged invalidation counts of ``RaceResult``).  When the program
#: stops reporting one, it is left out of the ledger, not read as 0.
TIER_METRICS = frozenset((
    "arch.block_builds", "arch.block_hit_ratio", "arch.block_invalidations",
    "arch.trace_builds", "arch.trace_entries", "arch.trace_bailouts",
    "arch.trace_bailout_ratio", "arch.insts_per_trace_entry",
    "arch.trace_invalidations",
))

#: Per-run instruction budget of a suite op, as in ``python -m
#: repro.harness`` (programs exit before it).
SUITE_BUDGET = 300_000


class Op:
    """One closed-loop operation: a label, the seed its inputs come
    from, and a call into the program."""

    def __init__(self, label: str, seed: int,
                 call: Callable[[object], object]):
        self.label = label
        self.seed = seed
        self.call = call

    @property
    def key(self) -> str:
        """Names the op's result: equal keys must give equal digests."""
        return "%s#%d" % (self.label, self.seed)


class OpFailed(Exception):
    """An op returned, but its output failed a check."""


class Workload:
    """Base: subclasses define :meth:`setup`, :meth:`ops`,
    :meth:`check`, :meth:`instructions` and :meth:`ledger`."""

    name = ""
    #: reference-host seconds of one round (see :mod:`perfbench.hostclock`);
    #: sizes a run so it measures about ``--seconds``.
    nominal_round_s = 1.0
    #: fewest rounds per run, so that a tail percentile exists.
    min_rounds = 1
    #: the :data:`TIER_METRICS` this workload's ledger reads.
    tier_metrics = TIER_METRICS

    def __init__(self, seed: int, golden: Optional[Dict[str, str]] = None):
        self.seed = seed
        #: op key -> expected digest (only for keys with a golden).
        self.golden = golden or {}
        #: op key -> digest first seen in this run.
        self.first_digest: Dict[str, str] = {}
        #: ops whose digest was checked against the golden.
        self.golden_checked = 0
        self.tracer = NULL_TRACER

    def round_seed(self, round_index: int) -> int:
        """Seed of round ``round_index``'s inputs, for workloads whose
        rounds draw fresh inputs."""
        return self.seed * 1000 + round_index

    def rounds_for(self, seconds: float) -> int:
        """Whole rounds that take about ``seconds`` on the reference
        host.  The count depends only on ``seconds``, so every run of a
        workload does the same work: counts, sample sizes and the tail
        percentile's rank are identical across runs."""
        return max(self.min_rounds, round(seconds / self.nominal_round_s))

    @contextlib.contextmanager
    def round_scope(self, tracer):
        """Context of one round; yields a dict the workload may fill
        with per-round facts for :meth:`ledger`."""
        self.tracer = tracer
        try:
            yield {}
        finally:
            self.tracer = NULL_TRACER

    def verify(self, op: Op, result) -> None:
        """Raise :class:`OpFailed` unless ``result`` is correct."""
        self.check(op, result)
        value = self.digest_of(op, result)
        seen = self.first_digest.setdefault(op.key, value)
        if value != seen:
            raise OpFailed("%s: result differs from the run's first round"
                           % op.label)
        expected = self.golden.get(op.key)
        if expected is None:
            return
        self.golden_checked += 1
        if value != expected:
            raise OpFailed("%s: digest %s != golden %s"
                           % (op.key, value, expected))

    def digest_of(self, op: Op, result) -> str:
        return measure.digest(result.as_dict())


# -- suite_bigcode / suite_loops --------------------------------------------


class SuiteWorkload(Workload):
    """Each app x {baseline, naive_ilr, vcfr} as one CycleCPU run.

    Round ``r`` runs the layouts randomized under seed ``1000 * seed +
    r``: host cost depends on the layout, so a run averages over as many
    layouts as it has rounds instead of repeating one."""

    apps = ()

    def setup(self, rounds: int, tracer=NULL_TRACER) -> None:
        self.programs = {}
        self.insts_randomized = 0
        for app in self.apps:
            with tracer.span("build", app=app):
                image = suite.build_image(app, 1.0)
            for index in range(rounds):
                seed = self.round_seed(index)
                with tracer.span("randomize", app=app):
                    program = randomize(image, RandomizerConfig(seed=seed))
                self.programs[app, seed] = program
                self.insts_randomized += program.stats.num_instructions
        self.baseline_out = {}

    def ops(self, round_index: int = 0) -> List[Op]:
        seed = self.round_seed(round_index)
        return [Op("%s/%s" % (app, mode), seed,
                   self._op(self.programs[app, seed], app, mode))
                for app in self.apps for mode in MODES]

    @staticmethod
    def _op(program, app: str, mode: str):
        image = {"baseline": program.original,
                 "naive_ilr": program.naive_image,
                 "vcfr": program.vcfr_image}[mode]

        def call(tracer):
            with tracer.span("cpu_init", mode=mode):
                cpu = CycleCPU(image, make_flow(mode, program))
            with tracer.span("run", mode=mode):
                result = cpu.run(SUITE_BUDGET)
            with tracer.span("tier_stats"):
                tiers = cpu.tier_stats()
            return SuiteOutcome(app, result, tiers)

        return call

    def check(self, op: Op, outcome) -> None:
        result = outcome.result
        if not result.finished:
            raise OpFailed("%s: did not finish within %d instructions"
                           % (op.label, SUITE_BUDGET))
        observed = (result.as_dict()["output"], result.exit_code)
        if result.mode == "baseline":
            self.baseline_out[outcome.app] = observed
        elif observed != self.baseline_out.get(outcome.app):
            raise OpFailed("%s: output/exit code differ from baseline"
                           % op.label)

    def digest_of(self, op: Op, outcome) -> str:
        return measure.digest(outcome.result.as_dict())

    def instructions(self, outcome) -> int:
        return outcome.result.instructions

    def ledger(self, rounds, spans, setup_spans) -> Dict[str, float]:
        """Per-layer metrics of the traced rounds: counts and seconds per
        round (set-up spans once)."""
        out = self.layer_counts(
            [o for rnd in rounds for o in rnd.outcomes], len(rounds))
        out["workloads.build_s"] = measure.span_seconds(setup_spans, "build")
        out["ilr.randomize_s"] = measure.span_seconds(setup_spans,
                                                      "randomize")
        out["ilr.insts_randomized"] = self.insts_randomized
        out["arch.cpu_init_s"] = statistics.median(
            _durations(spans, "cpu_init"))
        for mode in MODES:
            seconds = sum(_durations(spans, "run", mode=mode))
            insts = sum(o.result.instructions for rnd in rounds
                        for o in rnd.outcomes if o.result.mode == mode)
            out["arch.run_s." + mode] = seconds / len(rounds)
            out["arch.kips." + mode] = insts / seconds / 1e3
        return out

    def layer_counts(self, outcomes, rounds: int = 1) -> Dict[str, float]:
        """Per-round counts from the outcomes of ``rounds`` rounds.  A
        tier missing from ``tier_stats()`` leaves its counters out
        (absent, not 0)."""
        counts: Dict[str, float] = {
            "arch.insts_retired": sum(o.result.instructions
                                      for o in outcomes),
        }
        blocks = [o.tiers["blocks"] for o in outcomes if "blocks" in o.tiers]
        traces = [o.tiers["traces"] for o in outcomes if "traces" in o.tiers]
        if blocks:
            execs = sum(b.get("execs", 0) for b in blocks)
            counts["arch.block_builds"] = sum(b.get("builds", 0)
                                              for b in blocks)
            counts["arch.block_hit_ratio"] = (
                sum(b.get("hits", 0) for b in blocks) / execs if execs
                else 0.0)
            counts["arch.block_invalidations"] = sum(
                b.get("invalidations", 0) for b in blocks)
        if traces:
            entries = sum(t.get("entries", 0) for t in traces)
            bailouts = sum(t.get("bailouts", 0) for t in traces)
            counts["arch.trace_builds"] = sum(t.get("builds", 0)
                                              for t in traces)
            counts["arch.trace_entries"] = entries
            counts["arch.trace_bailouts"] = bailouts
            counts["arch.trace_bailout_ratio"] = (
                bailouts / entries if entries else 0.0)
            counts["arch.insts_per_trace_entry"] = (
                counts["arch.insts_retired"] / entries if entries else 0.0)
            counts["arch.trace_invalidations"] = sum(
                t.get("invalidations", 0) for t in traces)
        for name in ("arch.insts_retired", "arch.block_builds",
                     "arch.block_invalidations", "arch.trace_builds",
                     "arch.trace_entries", "arch.trace_bailouts",
                     "arch.trace_invalidations"):
            if name in counts:
                counts[name] /= rounds
        return counts


class SuiteOutcome:
    __slots__ = ("app", "result", "tiers")

    def __init__(self, app, result, tiers):
        self.app = app
        self.result = result
        self.tiers = tiers


class SuiteBigcode(SuiteWorkload):
    name = "suite_bigcode"
    apps = ("gcc", "xalan", "h264ref", "namd")
    nominal_round_s = 5.0
    min_rounds = 2


class SuiteLoops(SuiteWorkload):
    name = "suite_loops"
    apps = ("lbm", "libquantum", "mcf", "soplex")
    nominal_round_s = 3.75
    min_rounds = 2


# -- rotate -----------------------------------------------------------------


class Rotate(Workload):
    """``security.run_race`` points: adversary on, frequent rotation."""

    name = "rotate"
    nominal_round_s = 1.9
    min_rounds = 5
    tier_metrics = frozenset(("arch.block_invalidations",
                              "arch.trace_invalidations"))
    #: per-tenant budget and sampling window of every race point.
    budget = 60_000
    window = 1_000

    def setup(self, rounds: int, tracer=NULL_TRACER) -> None:
        from repro.security import (AdversarySpec, RaceSpec,
                                    RotationPolicy)

        # Op durations fall in three clusters (rotation every 1k, 2k,
        # 5k-or-rarer instructions), so the median lies inside one.
        policies = (
            RotationPolicy("periodic", period_instructions=1_000),
            RotationPolicy("periodic", period_instructions=2_000),
            RotationPolicy("periodic", period_instructions=5_000),
            RotationPolicy("on_syscall", syscall_period=8),
            RotationPolicy("on_probe", probe_threshold=2),
        )
        self.specs = [
            RaceSpec(
                policy=policy,
                adversary=AdversarySpec(
                    disclosure_rate=0.5,
                    mappings_per_disclosure=12,
                    probe_rate=0.3 if policy.kind == "on_probe" else 0.0,
                ),
                seed=self.seed,
                window_instructions=self.window,
                max_instructions=self.budget,
            )
            for policy in policies
        ]

    def ops(self, round_index: int = 0) -> List[Op]:
        """Each round races every policy once, under its own adversary
        and rotation seed, so a run averages over ``rounds`` seeds."""
        seed = self.round_seed(round_index)
        return [Op(spec.policy.label(), seed,
                   self._op(dataclasses.replace(spec, seed=seed)))
                for spec in self.specs]

    @staticmethod
    def _op(spec):
        from repro.security import run_race

        def call(tracer):
            with tracer.span("race"):
                return run_race(spec)

        return call

    def check(self, op: Op, race) -> None:
        problems = []
        if race.instructions != race.tenants * race.max_instructions:
            problems.append("did not execute its full budget")
        if race.rotations < 1:
            problems.append("never rotated")
        if race.drc_flushes != race.rotations:
            problems.append("DRC flushes != rotations")
        if not race.payload_possible:
            problems.append("service cannot express the payload")
        if problems:
            raise OpFailed("%s: %s" % (op.label, "; ".join(problems)))

    def instructions(self, race) -> int:
        return race.instructions

    def ledger(self, rounds, spans, setup_spans) -> Dict[str, float]:
        races = [race for rnd in rounds for race in rnd.outcomes]
        n = len(rounds)
        out = {
            "arch.insts_retired": sum(r.instructions for r in races) / n,
            "security.rotations": sum(r.rotations for r in races) / n,
            "security.race_point_s": statistics.median(
                _durations(spans, "race")),
        }
        out.update(_invalidations(races, n))
        return out


# -- reproduce --------------------------------------------------------------


class Reproduce(Workload):
    """The default experiment list of ``python -m repro.harness``,
    sequential, uncached, through one fresh ``ExperimentSession`` per
    round (a round is one full reproduction)."""

    name = "reproduce"
    #: a run is one reproduction: at about 30 s it is the longest op set
    #: that fits the benchmark's time budget.
    nominal_round_s = 30.0

    def setup(self, rounds: int, tracer=NULL_TRACER) -> None:
        from repro.harness.experiments import ALL_EXPERIMENTS
        from repro.harness.session import ExperimentSession

        class CountingSession(ExperimentSession):
            """Records each distinct result the experiments asked for."""

            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.results = {}

            def run(self, spec):
                result = super().run(spec)
                self.results.setdefault(spec.normalized(), result)
                return result

        self.session_class = CountingSession
        self.experiments = dict(ALL_EXPERIMENTS)

    def ops(self, round_index: int = 0) -> List[Op]:
        return [Op(exp_id, self.seed, self._op(exp_id, fn))
                for exp_id, fn in self.experiments.items()]

    def _op(self, exp_id, fn):
        def call(tracer):
            seen = len(self.session.results)
            side = len(self.side_results)
            with tracer.span("experiment", exp_id=exp_id):
                result = fn(self.session)
            new = list(self.session.results.values())[seen:]
            return ReproOutcome(exp_id, result, new + self.side_results[side:])

        return call

    @contextlib.contextmanager
    def round_scope(self, tracer):
        """Start a fresh uncached session, as a new ``python -m
        repro.harness`` process would (images are rebuilt too).  Wrap
        the race, fleet and gadget-scan calls the experiments make (the
        program's tracer does not cover them) in spans, and collect
        their results for the instruction count."""
        import repro.fleet.datacenter as datacenter
        import repro.harness.experiments as experiments
        import repro.security.race as race

        def wrap(module, attr, span_name, keep):
            original = getattr(module, attr)

            def wrapper(*args, **kwargs):
                with self.tracer.span(span_name):
                    result = original(*args, **kwargs)
                if keep:
                    self.side_results.append(result)
                return result

            return mock.patch.object(module, attr, wrapper)

        suite.clear_cache()
        self.session = self.session_class(
            seed=self.seed, tracer=tracer if tracer.enabled else None)
        self.side_results = []
        before = get_registry().counters("sim.tier.")
        with contextlib.ExitStack() as stack:
            info = stack.enter_context(super().round_scope(tracer))
            stack.enter_context(wrap(race, "run_race", "race", True))
            stack.enter_context(wrap(datacenter, "run_fleet", "fleet", True))
            for attr in ("scan_gadgets", "survey_image",
                         "can_build_payload"):
                stack.enter_context(
                    wrap(experiments, attr, "gadget_scan", False))
            yield info
        # The session's simulations fold their tier counters into the
        # program's metrics registry; keep this round's delta.
        info["tier_delta"] = {
            name: value - before.get(name, 0)
            for name, value in get_registry().counters("sim.tier.").items()
        }

    def check(self, op: Op, outcome) -> None:
        failed = [desc for desc, ok in outcome.result.checks if not ok]
        if failed:
            raise OpFailed("%s: paper-shape check failed: %s"
                           % (op.label, "; ".join(failed)))

    def digest_of(self, op: Op, outcome) -> str:
        from repro.harness.report import results_to_dict

        doc = results_to_dict({op.label: outcome.result})[op.label]
        return measure.digest(measure.strip_host_columns(op.label, doc))

    def instructions(self, outcome) -> int:
        return sum(_retired(result) for result in outcome.results)

    def ledger(self, rounds, spans, setup_spans) -> Dict[str, float]:
        from repro.arch.simstats import SimResult
        from repro.emu import EmulationResult
        from repro.fleet import FleetResult
        from repro.security import RaceResult

        n = len(rounds)
        results = [r for rnd in rounds for o in rnd.outcomes
                   for r in o.results]

        def of(kind):
            return [r for r in results if isinstance(r, kind)]

        sims, races = of(SimResult), of(RaceResult)
        out: Dict[str, float] = {
            "arch.insts_retired": sum(
                _retired(r) for r in results
                if not isinstance(r, EmulationResult)) / n,
            "security.rotations": sum(r.rotations for r in races) / n,
            "harness.checks_passed": sum(
                ok for o in rounds[0].outcomes for _d, ok in o.result.checks),
            "workloads.build_s": measure.span_seconds(spans, "build") / n,
            "ilr.randomize_s": measure.span_seconds(spans, "randomize") / n,
            "security.gadget_scan_s":
                measure.span_seconds(spans, "gadget_scan") / n,
            "security.race_point_s": statistics.median(
                _durations(spans, "race")),
        }
        programs = {spec.workload: self.session.program_for(spec)
                    for spec in self.session.results}
        out["ilr.insts_randomized"] = sum(
            p.stats.num_instructions for p in programs.values())
        for span_name, kind, seconds_name, kips_name in (
                ("emulate", EmulationResult, "emu.emulate_s", "emu.kips"),
                ("fleet", FleetResult, "fleet.run_s", "fleet.kips")):
            seconds = measure.span_seconds(spans, span_name)
            out[seconds_name] = seconds / n
            out[kips_name] = sum(_retired(r) for r in of(kind)) / seconds / 1e3
        simulate_s = _simulate_seconds_by_mode(spans)
        for mode in MODES:
            seconds = simulate_s.get(mode, 0.0)
            insts = sum(r.instructions for r in sims if r.mode == mode)
            out["arch.run_s." + mode] = seconds / n
            out["arch.kips." + mode] = insts / seconds / 1e3
        for exp_id in self.experiments:
            out["harness.experiment_s." + exp_id] = sum(
                _durations(spans, "experiment", exp_id=exp_id)) / n
        self_time = measure.self_seconds(spans)
        out["harness.self_s"] = sum(
            self_time[s["id"]] for s in spans
            if s["name"] in ("sweep", "spec", "attempt")) / n
        first = [r for o in rounds[0].outcomes for r in o.results
                 if isinstance(r, SimResult)]
        out.update(_tier_metrics(rounds[0].info["tier_delta"], first))
        out.update(_invalidations(races, n))
        return out


def _invalidations(races, rounds: int) -> Dict[str, float]:
    """Per-round block and trace invalidations of ``races``.  They are
    host-tagged fields of ``RaceResult``: a count some result lacks is
    left out (absent, not 0)."""
    out: Dict[str, float] = {}
    for field in ("block_invalidations", "trace_invalidations"):
        values = [getattr(race, field, None) for race in races]
        if None not in values:
            out["arch." + field] = sum(values) / rounds
    return out


def _simulate_seconds_by_mode(spans) -> Dict[str, float]:
    """Seconds of the session's ``simulate`` spans, by the mode in the
    label of the ``spec`` span above each (e.g. ``gcc/vcfr@128``)."""
    by_id = {span["id"]: span for span in spans}
    out: Dict[str, float] = {}
    for span in spans:
        if span["name"] != "simulate" or span.get("t1") is None:
            continue
        parent = by_id.get(span.get("parent"))
        while parent is not None and parent["name"] != "spec":
            parent = by_id.get(parent.get("parent"))
        if parent is None:
            continue
        mode = parent["fields"]["label"].split("/")[1].split("@")[0]
        out[mode] = out.get(mode, 0.0) + span["t1"] - span["t0"]
    return out


def _tier_metrics(delta: Dict[str, int], sims) -> Dict[str, float]:
    """Tier metrics from one round's delta of the program's
    ``sim.tier.*`` counters.  A tier that no longer reports leaves its
    metrics out (absent, not 0)."""
    out: Dict[str, float] = {}
    if "sim.tier.blocks.builds" in delta:
        execs = delta.get("sim.tier.blocks.execs", 0)
        out["arch.block_builds"] = delta["sim.tier.blocks.builds"]
        out["arch.block_hit_ratio"] = (
            delta.get("sim.tier.blocks.hits", 0) / execs if execs else 0.0)
    if "sim.tier.traces.builds" in delta:
        entries = delta.get("sim.tier.traces.entries", 0)
        bailouts = delta.get("sim.tier.traces.bailouts", 0)
        insts = sum(r.instructions for r in sims)
        out["arch.trace_builds"] = delta["sim.tier.traces.builds"]
        out["arch.trace_entries"] = entries
        out["arch.trace_bailouts"] = bailouts
        out["arch.trace_bailout_ratio"] = (bailouts / entries if entries
                                           else 0.0)
        out["arch.insts_per_trace_entry"] = insts / entries if entries else 0.0
    return out


class ReproOutcome:
    __slots__ = ("exp_id", "result", "results")

    def __init__(self, exp_id, result, results):
        self.exp_id = exp_id
        self.result = result
        #: simulation/emulation/race/fleet results first produced by
        #: this experiment.
        self.results = results


def _retired(result) -> int:
    """Simulated instructions retired, whatever the result type."""
    run = getattr(result, "run", None)
    if run is not None:  # EmulationResult
        return run.icount
    return result.instructions


WORKLOADS = {cls.name: cls
             for cls in (SuiteBigcode, SuiteLoops, Rotate, Reproduce)}


def _durations(spans, name, **fields) -> List[float]:
    """Durations of the spans called ``name`` whose fields match."""
    return [
        span["t1"] - span["t0"]
        for span in spans
        if span["name"] == name and span.get("t1") is not None
        and all(span["fields"].get(k) == v for k, v in fields.items())
    ]
