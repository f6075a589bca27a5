"""Ablation — context-switch sensitivity (§IV-D system-level impact).

The RDR tables are part of the process context; switches flush the DRC.
Measures how VCFR IPC degrades as scheduling quanta shrink."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.ablations import context_switching


def test_context_switching(session, benchmark, show):
    result = run_once(benchmark, context_switching, session)
    show(format_result(result))
    gate_result(result)
