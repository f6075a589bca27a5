"""Table I — qualitative comparison of the three execution modes.

Regenerates the paper's Table I from measured simulator behaviour and
asserts the four qualitative properties.
"""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.experiments import table1


def test_table1_mode_properties(session, benchmark, show):
    result = run_once(benchmark, table1, session)
    show(format_result(result))
    gate_result(result)
