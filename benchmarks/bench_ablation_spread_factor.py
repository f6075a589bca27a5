"""Ablation — layout spread factor (entropy) vs performance.

The paper's core claim, quantified: under VCFR entropy is free (IPC is
spread-insensitive) while naive ILR pays for every extra bit."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.ablations import spread_factor


def test_spread_factor(session, benchmark, show):
    result = run_once(benchmark, spread_factor, session)
    show(format_result(result))
    gate_result(result)
