"""Tests for term canonicalization (the solver memo's key function)."""

import pytest

from repro.symbolic import terms as T

SORT = T.uninterpreted_sort("CanonName")

a = T.var("cn.a", SORT)
b = T.var("cn.b", SORT)
c = T.var("cn.c", SORT)
p = T.var("cn.p", T.BOOL)
q = T.var("cn.q", T.BOOL)
x = T.var("cn.x", T.INT)
y = T.var("cn.y", T.INT)
z = T.var("cn.z", T.INT)


def test_commutative_and_or_collapse():
    assert T.canonical(T.and_(p, q)) is T.canonical(T.and_(q, p))
    assert T.canonical(T.or_(p, q)) is T.canonical(T.or_(q, p))
    lhs = T.and_(T.eq(a, b), T.ne(b, c), T.lt(x, y))
    rhs = T.and_(T.lt(x, y), T.ne(b, c), T.eq(a, b))
    assert lhs is not rhs  # constructors preserve order: distinct terms
    assert T.canonical(lhs) is T.canonical(rhs)


def test_idempotent():
    for t in (
        T.and_(q, p),
        T.or_(T.not_(T.and_(p, q)), T.eq(a, b)),
        T.not_(T.lt(x, y)),
        T.add(T.add(y, T.const(2)), x),
    ):
        once = T.canonical(t)
        assert T.canonical(once) is once


def test_negation_normal_form():
    # !(p & q) -> !p | !q
    nnf = T.canonical(T.not_(T.and_(p, q)))
    assert nnf.kind == T.OR
    assert set(nnf.args) == {T.not_(p), T.not_(q)}
    # !(p | q) -> !p & !q
    nnf = T.canonical(T.not_(T.or_(p, q)))
    assert nnf.kind == T.AND
    # Double negation cancels.
    assert T.canonical(T.not_(T.not_(p))) is p


def test_negated_comparisons_become_positive_atoms():
    # !(x < y) -> y <= x: no NOT wrapper survives on ordered atoms.
    assert T.canonical(T.not_(T.lt(x, y))) is T.le(y, x)
    assert T.canonical(T.not_(T.le(x, y))) is T.lt(y, x)


def test_add_chain_flattening():
    one = T.const(1)
    two = T.const(2)
    lhs = T.add(T.add(x, one), T.add(y, two))
    rhs = T.add(y, T.add(T.const(3), x))
    assert T.canonical(lhs) is T.canonical(rhs)
    # Constants fold away entirely when they cancel.
    assert T.canonical(T.add(T.add(x, one), T.const(-1))) is x
    assert T.canonical(T.add(one, two)) is T.const(3)


def test_ordered_contradiction_detected():
    assert T.canonical(T.and_(T.lt(x, y), T.le(y, x))) is T.false
    assert T.canonical(T.and_(T.lt(x, y), T.lt(y, x))) is T.false
    assert T.canonical(T.and_(T.lt(x, y), T.eq(x, y))) is T.false
    # ...and through nesting/reordering.
    assert T.canonical(T.and_(p, T.le(y, x), q, T.lt(x, y))) is T.false


def test_ordered_tautology_detected():
    assert T.canonical(T.or_(T.lt(x, y), T.le(y, x))) is T.true


def test_complement_detected_after_normalization():
    # p & !(q | !q)-style: constructors already fold, canonical must not
    # regress that.
    assert T.canonical(T.and_(p, T.not_(p))) is T.false
    assert T.canonical(T.or_(p, T.not_(p))) is T.true


def test_ite_condition_polarity_normalized():
    t = T.ite(T.not_(p), a, b)
    u = T.ite(p, b, a)
    assert T.canonical(t) is T.canonical(u)


def test_canonical_preserves_satisfiability():
    from repro.symbolic.solver import Solver

    cases = [
        [T.or_(T.eq(a, b), T.lt(x, T.const(0))), T.ne(a, b)],
        [T.not_(T.and_(T.eq(a, b), T.eq(b, c))), T.eq(a, c)],
        [T.eq(T.add(x, T.const(1)), y), T.eq(T.add(T.const(1), x), y)],
        [T.lt(x, y), T.lt(y, z), T.lt(z, x)],
    ]
    for constraints in cases:
        plain = Solver().check(constraints)
        canon = Solver().check([T.canonical(c) for c in constraints])
        assert plain == canon


def test_order_key_is_structural():
    # Same structure -> same key; different structure -> different key.
    assert T.order_key(T.eq(a, b)) == T.order_key(T.eq(a, b))
    assert T.order_key(T.eq(a, b)) != T.order_key(T.eq(a, c))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_permutations_share_one_canonical_form(n):
    import itertools

    atoms = [T.eq(a, b), T.ne(b, c), T.lt(x, y), T.var("cn.r", T.BOOL)][:n]
    forms = {
        T.canonical(T.and_(*perm)) for perm in itertools.permutations(atoms)
    }
    assert len(forms) == 1


def test_variable_cache_is_bounded_by_the_id_cache_limit(monkeypatch):
    """``cached_variables`` memoizes by term id like the canonical caches,
    and the same safety valve clears it once it outgrows the limit."""
    limit = 8
    monkeypatch.setattr(T, "_CANON_CACHE_LIMIT", limit)
    T._VARS_CACHE.clear()
    xs = [T.var(f"cn.lim{i}", T.INT) for i in range(3 * limit)]
    sums = [T.add(xs[i], xs[i + 1]) for i in range(len(xs) - 1)]
    for i, term in enumerate(sums):
        assert T.cached_variables(term) == {xs[i], xs[i + 1]}
        assert len(T._VARS_CACHE) <= limit + 1
    # Cleared entries recompute to the same answer.
    assert T.term_variables(sums[0]) == {xs[0], xs[1]}
    assert T.cached_variables(T.lt(sums[0], sums[-1])) == {
        xs[0], xs[1], xs[-2], xs[-1]
    }
