"""Fig. 13 — VCFR normalized IPC under 64/128/512-entry DRCs.

Paper: 98.9% of baseline at 512 entries, 97.9% at 64."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.experiments import fig13


def test_fig13(session, benchmark, show):
    result = run_once(benchmark, fig13, session)
    show(format_result(result))
    gate_result(result)
