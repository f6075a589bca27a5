"""Fig. 11 — percentage of gadgets removed by randomization.

Regenerates the per-application removal series with the ROPgadget-style
scanner (paper: ~98% average; no payload can be assembled afterwards)."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.experiments import fig11


def test_fig11(session, benchmark, show):
    result = run_once(benchmark, fig11, session)
    show(format_result(result))
    gate_result(result)
