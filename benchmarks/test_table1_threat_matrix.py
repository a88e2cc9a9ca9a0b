"""Table 1 — Threats and Defenses.

Regenerates the paper's threat/defense matrix by executing one concrete
attack per row against TLS, mbTLS, and the baselines, and prints which were
defended. The paper's table is qualitative; the reproduction asserts the
same qualitative outcomes (mbTLS defends everything in its threat model;
the shared-key design and enclave-less outsourcing do not), row for row
against the tier-1 snapshot in ``tests/test_security_properties.py``.
"""

from conftest import emit

from repro.bench.tables import render_table
from repro.bench.threats import run_all_threats, wire_secrecy_mbtls
from test_security_properties import TABLE1_SNAPSHOT


def test_table1_threat_matrix(benchmark):
    outcomes = benchmark.pedantic(run_all_threats, rounds=1, iterations=1)
    rows = [
        [
            outcome.threat,
            outcome.protocol,
            "DEFENDED" if outcome.defended else "VULNERABLE",
            outcome.mechanism,
        ]
        for outcome in outcomes
    ]
    emit(
        render_table(
            "Table 1 — Threats and Defenses (executed attacks)",
            ["threat", "protocol", "outcome", "mechanism"],
            rows,
        )
    )
    matrix = [(outcome.threat, outcome.protocol, outcome.defended) for outcome in outcomes]
    assert matrix == TABLE1_SNAPSHOT


def test_single_threat_scenario_cost(benchmark):
    """Micro-benchmark: cost of one full adversarial scenario run."""
    outcome = benchmark(wire_secrecy_mbtls)
    assert outcome.defended
