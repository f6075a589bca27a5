"""Ablation — DRC associativity (paper §IV-B claims direct-mapped suffices).

Compares direct-mapped vs 4-way vs fully-associative 128-entry DRCs on
the translation-heavy workloads and checks the paper's claim that the
direct-mapped design is performance-adequate."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.ablations import drc_associativity


def test_drc_associativity(session, benchmark, show):
    result = run_once(benchmark, drc_associativity, session)
    show(format_result(result))
    gate_result(result)
