"""Fig. 3 — impact of naive hardware ILR on the IL1 and L2.

Regenerates the IL1 miss-rate inflation, prefetch-waste increase and L2
pressure increase series (paper: x9.4 avg IL1, one ~558x outlier)."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.experiments import fig3


def test_fig3(session, benchmark, show):
    result = run_once(benchmark, fig3, session)
    show(format_result(result))
    gate_result(result)
