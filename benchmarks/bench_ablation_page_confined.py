"""Ablation — page-confined randomization (§IV-D iTLB mitigation).

Confining the permutation within pages trades entropy for a large
reduction in naive-ILR iTLB misses, as the paper suggests."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.ablations import page_confined_layout


def test_page_confined_layout(session, benchmark, show):
    result = run_once(benchmark, page_confined_layout, session)
    show(format_result(result))
    gate_result(result)
