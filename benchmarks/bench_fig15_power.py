"""Fig. 15 — DRC dynamic power overhead (paper: 0.18% of CPU dynamic power)."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.experiments import fig15


def test_fig15(session, benchmark, show):
    result = run_once(benchmark, fig15, session)
    show(format_result(result))
    gate_result(result)
