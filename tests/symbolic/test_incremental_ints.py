"""Equivalence tests for the solver's incremental paths.

* Scoped probing: asserting a base condition once and probing it with
  ``check_asserted(extra)`` must give the verdict of a one-shot
  ``check(base + extra)`` — TESTGEN's isomorphism probing relies on it.
* The integer component index: maintained literal by literal and shared
  copy-on-write across clones, it must partition a theory's integer
  literals exactly as a from-scratch pass would — the same components in
  the same order, each with its literals in assertion order — because the
  search discovers variables in that order and generated models depend on
  it.
"""

from hypothesis import given, settings, strategies as st

from repro.symbolic import terms as T
from repro.symbolic.solver import Solver, _Theory

from tests.symbolic.test_properties import INT_RANGE, formulas

IVARS = [T.var(f"ii{i}", T.INT) for i in range(6)]


def reference_partition(literals: list) -> list[list]:
    """Connected components of ``literals`` over shared variables, from
    scratch: components ordered by their first literal, literals in list
    order, variable-free literals in one trailing component."""
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) is not v:
            v = parent[v]
        return v

    for _, a, b in literals:
        vs = sorted(T.term_variables(a, T.term_variables(b)), key=T.order_key)
        for v in vs[1:]:
            ra, rb = find(vs[0]), find(v)
            if ra is not rb:
                parent[ra] = rb
    groups: dict = {}
    ground = []
    for lit in literals:
        vs = T.term_variables(lit[1], T.term_variables(lit[2]))
        if not vs:
            ground.append(lit)
        else:
            groups.setdefault(find(next(iter(vs))), []).append(lit)
    components = list(groups.values())
    if ground:
        components.append(ground)
    return components


def index_partition(theory: _Theory) -> list[list]:
    return [list(c.literals) for c in theory.ints.ordered()]


int_terms = st.one_of(
    st.sampled_from(IVARS),
    st.integers(-1, 4).map(T.const),
    st.builds(lambda v, c: T.add(v, T.const(c)),
              st.sampled_from(IVARS), st.integers(1, 2)),
)
int_literals = st.tuples(st.sampled_from(["eq", "ne", "lt", "le"]),
                         int_terms, int_terms)
steps = st.lists(
    st.one_of(
        int_literals.map(lambda lit: ("add", lit)),
        st.just(("push",)),
        st.just(("pop",)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(steps)
def test_index_matches_from_scratch_partition(ops):
    # Parallel stacks: theories under test, and the literal lists a
    # from-scratch partition sees for each of them.
    theories = [_Theory()]
    literal_lists: list[list] = [[]]
    for op in ops:
        if op[0] == "push":
            theories.append(theories[-1].clone())
            literal_lists.append(list(literal_lists[-1]))
        elif op[0] == "pop":
            if len(theories) > 1:
                theories.pop()
                literal_lists.pop()
        else:
            theories[-1].add_int(*op[1])
            literal_lists[-1].append(op[1])
        # Every frame, not just the top: a clone's writes must never
        # leak into the snapshot it was taken from.
        for theory, literals in zip(theories, literal_lists):
            assert index_partition(theory) == reference_partition(literals)


def test_clones_share_untouched_components():
    base = _Theory()
    base.add_int("le", IVARS[0], IVARS[1])
    base.add_int("lt", IVARS[2], T.const(3))
    child = base.clone()
    assert child.ints is base.ints
    child.add_int("ne", IVARS[2], IVARS[3])
    assert child.ints is not base.ints
    untouched = base.ints.ordered()[0]
    assert child.ints.ordered()[0] is untouched
    assert [len(c.literals) for c in base.ints.ordered()] == [1, 1]
    assert [len(c.literals) for c in child.ints.ordered()] == [1, 2]


def test_merge_keeps_assertion_order():
    t = _Theory()
    lits = [
        ("le", IVARS[0], T.const(2)),
        ("lt", IVARS[1], T.const(3)),
        ("ne", IVARS[0], T.const(1)),
        ("eq", IVARS[2], T.const(0)),
        ("lt", IVARS[1], IVARS[0]),  # joins the first two components
    ]
    for lit in lits:
        t.add_int(*lit)
    assert index_partition(t) == [
        [lits[0], lits[1], lits[2], lits[4]],
        [lits[3]],
    ]


def test_component_verdicts_are_memoized():
    solver = Solver()
    solver.assert_term(T.lt(IVARS[0], IVARS[1]))
    solver.assert_term(T.lt(IVARS[2], T.const(3)))
    assert solver.check_asserted()
    solved = solver.stats["int_solved"]
    # A new scope touching one component re-solves only that component.
    solver.push()
    solver.assert_term(T.lt(IVARS[1], T.const(2)))
    assert solver.check_asserted()
    assert solver.stats["int_solved"] == solved + 1
    assert solver.stats["int_memo_hits"] >= 1


@settings(max_examples=150, deadline=None)
@given(st.lists(formulas(), min_size=1, max_size=4),
       st.lists(formulas(), max_size=2))
def test_check_asserted_matches_one_shot_check(base, extra):
    scoped = Solver(int_min=INT_RANGE[0], int_max=INT_RANGE[1])
    scoped.push()
    for c in base:
        scoped.assert_term(c)
    got = scoped.check_asserted(extra)
    one_shot = Solver(int_min=INT_RANGE[0], int_max=INT_RANGE[1])
    assert got == one_shot.check(base + extra)
    scoped.pop()
    assert scoped.scope_depth == 0


@settings(max_examples=75, deadline=None)
@given(st.lists(formulas(), min_size=1, max_size=4),
       st.lists(formulas(), min_size=1, max_size=6))
def test_probe_sequences_match_one_shot_checks(base, probes):
    """Many one-literal probes on one asserted base, as TESTGEN issues
    them, each agree with a from-scratch check on a fresh solver."""
    scoped = Solver(int_min=INT_RANGE[0], int_max=INT_RANGE[1])
    scoped.push()
    for c in base:
        scoped.assert_term(c)
    for probe in probes:
        for extra in (probe, T.not_(probe)):
            one_shot = Solver(int_min=INT_RANGE[0], int_max=INT_RANGE[1])
            assert scoped.check_asserted((extra,)) == \
                one_shot.check(base + [extra])
    scoped.pop()
