"""Fig. 12 — VCFR speedup over straightforward hardware ILR (DRC 128).

Paper: average 1.63x; namd/h264ref/mcf/xalan exceed 2x."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.experiments import fig12


def test_fig12(session, benchmark, show):
    result = run_once(benchmark, fig12, session)
    show(format_result(result))
    gate_result(result)
