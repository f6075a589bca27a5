"""Fig. 14 — DRC miss rates under different DRC sizes.

Paper: 4.5% average at 512 entries, 20.6% at 64."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.experiments import fig14


def test_fig14(session, benchmark, show):
    result = run_once(benchmark, fig14, session)
    show(format_result(result))
    gate_result(result)
