"""Ablation — IL1 next-line prefetcher on/off per execution mode
(Table I's 'instruction prefetch' row, measured)."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.ablations import prefetcher


def test_prefetcher(session, benchmark, show):
    result = run_once(benchmark, prefetcher, session)
    show(format_result(result))
    gate_result(result)
