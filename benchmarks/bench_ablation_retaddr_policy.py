"""Ablation — return-address randomization policy (§IV-A software vs
§IV-C architectural).  Measures randomized-return coverage, residual
failover surface and the IPC cost of each policy."""

from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.ablations import retaddr_policy


def test_retaddr_policy(session, benchmark, show):
    result = run_once(benchmark, retaddr_policy, session)
    show(format_result(result))
    gate_result(result)
