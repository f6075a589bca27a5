"""Harness tests: session caching, report formatting, cheap experiments."""

from dataclasses import replace

import pytest

from repro.arch.config import default_config
from repro.harness import (
    ExperimentSession,
    format_report,
    format_result,
    format_table,
)
from repro.harness.experiments import (
    ExperimentResult,
    fig9,
    fig11,
    fleet,
    gadget_window,
    table2,
)
from repro.harness import paper
from repro.harness.report import results_to_dict
from repro.security import AdversarySpec, RaceSpec, RotationPolicy


@pytest.fixture(scope="module")
def session():
    # Small budget: these tests exercise plumbing, not steady-state stats.
    return ExperimentSession(max_instructions=20_000)


class TestSessionCaching:
    def test_program_cached(self, session):
        spec = session.spec("mcf")
        assert session.program_for(spec) is session.program_for(spec)

    def test_sim_cached_per_mode_and_drc(self, session):
        a = session.run(session.spec("mcf", "baseline"))
        b = session.run(session.spec("mcf", "baseline"))
        assert a is b
        v64 = session.run(session.spec("mcf", "vcfr", drc_entries=64))
        v128 = session.run(session.spec("mcf", "vcfr", drc_entries=128))
        assert v64 is not v128

    def test_non_vcfr_ignores_drc_size(self, session):
        a = session.run(session.spec("mcf", "baseline", drc_entries=64))
        b = session.run(session.spec("mcf", "baseline", drc_entries=512))
        assert a is b

    def test_emulation_cached(self, session):
        assert session.emulate("mcf") is session.emulate("mcf")

    def test_modes_agree_architecturally(self, session):
        base = session.run(session.spec("mcf", "baseline"))
        vcfr = session.run(session.spec("mcf", "vcfr"))
        assert base.instructions == vcfr.instructions


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [(1, 22), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].startswith("a")

    def test_format_result_includes_checks(self):
        result = ExperimentResult("figX", "Title", ("c",), rows=[(1,)])
        result.check("something holds", True)
        result.check("something fails", False)
        text = format_result(result)
        assert "[PASS] something holds" in text
        assert "[FAIL] something fails" in text
        assert not result.passed

    def test_format_report_rollup(self):
        ok = ExperimentResult("a", "A", ("x",))
        ok.check("fine", True)
        bad = ExperimentResult("b", "B", ("x",))
        bad.check("broken", False)
        text = format_report({"a": ok, "b": bad})
        assert "1/2 passed" in text
        assert "failing: b" in text


class TestCheapExperiments:
    """Static experiments run fast enough for the unit suite."""

    def test_table2(self, session):
        result = table2(session)
        assert result.passed, result.checks
        assert len(result.rows) == len(paper.SPEC_APPS)

    def test_fig9(self, session):
        result = fig9(session)
        assert result.passed
        assert all(row[1] >= row[2] for row in result.rows)

    def test_fig11(self, session):
        result = fig11(session)
        assert result.passed
        # Every app removes at least 90% of its gadgets.
        assert all(row[3] >= 90.0 for row in result.rows)


class TestKnobInvariance:
    """Host-tuning knobs (execution tiers) never change a published
    table, and the race/fleet experiments run on the session's machine
    model."""

    CONFIGS = {
        "default": None,
        "no-traces": replace(default_config(), tracepath=False),
        "reference-loop": replace(default_config(), fastpath=False),
    }

    def test_race_and_fleet_tables_ignore_tier_knobs(self):
        docs = {}
        for name, config in self.CONFIGS.items():
            session = ExperimentSession(config=config)
            docs[name] = results_to_dict({
                "gadget_window": gadget_window(session),
                "fleet": fleet(session),
            })
        assert docs["default"]["gadget_window"]["passed"]
        assert docs["default"]["fleet"]["passed"]
        assert docs["no-traces"] == docs["default"]
        assert docs["reference-loop"] == docs["default"]

    def test_race_sweep_uses_the_session_config(self):
        # Trace invalidations are host telemetry: a session whose machine
        # has no trace tier must report none, proving its config reached
        # the race.
        spec = RaceSpec(
            policy=RotationPolicy("periodic", period_instructions=5_000),
            adversary=AdversarySpec(disclosure_rate=0.5,
                                    mappings_per_disclosure=12),
            max_instructions=40_000,
        )
        counts = {}
        for name in ("default", "no-traces"):
            session = ExperimentSession(config=self.CONFIGS[name])
            (race,) = session.race_sweep([spec])
            counts[name] = (race.rotations, race.trace_invalidations)
        assert counts["default"][0] == counts["no-traces"][0] > 0
        assert counts["default"][1] > 0
        assert counts["no-traces"][1] == 0


class TestPaperReference:
    def test_table2_reference_shape(self):
        assert paper.TABLE2["gcc"][0] == 149512
        assert paper.TABLE2["xalan"][3] == 15465
        assert set(paper.TABLE2) == set(paper.SPEC_APPS)

    def test_figure_constants(self):
        assert paper.FIG12["avg_speedup"] == 1.63
        assert paper.FIG13[64] == 0.979
        assert paper.FIG14[512] == 0.045
        assert paper.FIG15["avg_power_overhead_pct"] == 0.18
