"""Table II — static analysis of control flow per application.

Regenerates the direct/indirect transfer and call counts and checks the
shape facts (gcc most direct transfers; xalan most indirect calls)."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.experiments import table2


def test_table2(session, benchmark, show):
    result = run_once(benchmark, table2, session)
    show(format_result(result))
    gate_result(result)
