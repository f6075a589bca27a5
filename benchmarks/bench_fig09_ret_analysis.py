"""Fig. 9 — functions with and without ret instructions."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.experiments import fig9


def test_fig9(session, benchmark, show):
    result = run_once(benchmark, fig9, session)
    show(format_result(result))
    gate_result(result)
