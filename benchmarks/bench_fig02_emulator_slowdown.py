"""Fig. 2 — software-ILR emulator slowdown vs native execution.

Regenerates the per-application slowdown series (paper: hundreds of
times) from the deterministic host-cost emulator and the cycle simulator."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.experiments import fig2


def test_fig2(session, benchmark, show):
    result = run_once(benchmark, fig2, session)
    show(format_result(result))
    gate_result(result)
