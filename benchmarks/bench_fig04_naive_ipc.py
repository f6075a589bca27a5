"""Fig. 4 — normalized IPC of straightforward hardware ILR.

Regenerates the per-application normalized-IPC series (paper: average
drops to 0.61-0.66 of baseline)."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.experiments import fig4


def test_fig4(session, benchmark, show):
    result = run_once(benchmark, fig4, session)
    show(format_result(result))
    gate_result(result)
