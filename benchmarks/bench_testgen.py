"""§6.1: test-case generation throughput.

The paper generates 13,664 test cases from its model in part of an 8-minute
budget.  This benchmark times ANALYZER+TESTGEN for representative pairs;
the full-matrix rate is recorded in EXPERIMENTS.md.

The isomorphism-pattern bench also records TESTGEN's own solver counters
(deterministic, so CI gates them): one-shot checks (none — every
isomorphism probe runs against the path condition asserted once in a
solver scope), scoped probes, and integer components solved versus
answered from a memo.
"""

from repro.analyzer import analyze_pair
from repro.model.posix import PosixState, posix_state_equal, op_by_name
from repro.symbolic.solver import Solver
from repro.testgen import generate_for_pair


def _pipeline(n0, n1, tests_per_path=1, solver=None):
    pair = analyze_pair(
        PosixState, posix_state_equal, op_by_name(n0), op_by_name(n1)
    )
    return generate_for_pair(pair, solver=solver, tests_per_path=tests_per_path)


def test_generate_rename_rename(benchmark):
    cases = benchmark(_pipeline, "rename", "rename")
    assert len(cases) >= 20


def test_generate_read_write(benchmark):
    cases = benchmark.pedantic(
        lambda: _pipeline("read", "write"), iterations=1, rounds=3
    )
    assert len(cases) >= 100


def test_generate_with_isomorphism_patterns(benchmark):
    solvers = []

    def run():
        solvers.append(Solver())
        return _pipeline("link", "unlink", tests_per_path=4, solver=solvers[-1])

    cases = benchmark.pedantic(run, iterations=1, rounds=3)
    assert len(cases) >= 10
    stats = solvers[-1].stats
    benchmark.extra_info["cases"] = len(cases)
    benchmark.extra_info["oneshot_checks"] = stats["oneshot_queries"]
    benchmark.extra_info["scoped_probes"] = stats["scoped_queries"]
    benchmark.extra_info["int_components_solved"] = stats["int_solved"]
    benchmark.extra_info["int_components_memo_hits"] = stats["int_memo_hits"]
    assert stats["oneshot_queries"] == 0
