"""Hash-consed term AST for the SMT-lite solver.

Terms are immutable and interned: structurally equal terms are the same
Python object, so identity comparison and ``id()``-keyed memoization are
sound.  The language covers exactly what the POSIX model's path conditions
need (see DESIGN.md §5):

* booleans with the usual connectives,
* bounded integers with ``+``/``-`` and ``<``/``<=`` comparisons,
* uninterpreted sorts (file names, byte values) with equality only,
* ``ite`` conditional terms.

Constructor functions (:func:`and_`, :func:`eq`, ...) perform light
simplification — constant folding, flattening, unit elimination — which keeps
path conditions small and makes many feasibility checks decidable without
search.
"""

from __future__ import annotations

from typing import Iterable, Optional


class Sort:
    """A term sort: ``BOOL``, ``INT``, or a named uninterpreted sort."""

    __slots__ = ("name", "_hash")
    _registry: dict[str, "Sort"] = {}

    def __new__(cls, name: str) -> "Sort":
        existing = cls._registry.get(name)
        if existing is not None:
            return existing
        sort = super().__new__(cls)
        sort.name = name
        sort._hash = hash(("Sort", name))
        cls._registry[name] = sort
        return sort

    def __repr__(self) -> str:
        return f"Sort({self.name})"

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Re-enter __new__ on unpickle so sorts stay interned (identity
        # comparison must survive a trip through a worker process).
        return (Sort, (self.name,))

    @property
    def is_uninterpreted(self) -> bool:
        return self not in (BOOL, INT)


BOOL = Sort("Bool")
INT = Sort("Int")


def uninterpreted_sort(name: str) -> Sort:
    """Declare (or fetch) an uninterpreted sort, e.g. ``Filename``."""
    if name in ("Bool", "Int"):
        raise ValueError(f"{name} is reserved for a builtin sort")
    return Sort(name)


# Term kinds.  Kept as plain strings: the solver dispatches on them and the
# set is closed.
VAR = "var"
BCONST = "bconst"
ICONST = "iconst"
UVAL = "uval"
NOT = "not"
AND = "and"
OR = "or"
EQ = "eq"
LT = "lt"
LE = "le"
ADD = "add"
ITE = "ite"


class Term:
    """An interned term.

    ``kind`` is one of the module-level kind constants, ``args`` holds child
    terms, and ``payload`` holds non-term data (variable name, constant
    value, uninterpreted-value index).
    """

    __slots__ = ("kind", "args", "payload", "sort", "_hash")
    _interned: dict[tuple, "Term"] = {}

    def __new__(cls, kind: str, args: tuple["Term", ...], payload, sort: Sort):
        key = (kind, tuple(id(a) for a in args), payload, sort)
        existing = cls._interned.get(key)
        if existing is not None:
            return existing
        term = super().__new__(cls)
        term.kind = kind
        term.args = args
        term.payload = payload
        term.sort = sort
        term._hash = hash(key)
        cls._interned[key] = term
        return term

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __new__ so unpickled terms re-intern: structural
        # equality collapses back to identity in the receiving process.
        return (Term, (self.kind, self.args, self.payload, self.sort))

    # Interning makes default identity-based __eq__ correct.

    def __repr__(self) -> str:
        return term_to_str(self)

    @property
    def is_const(self) -> bool:
        return self.kind in (BCONST, ICONST, UVAL)


def var(name: str, sort: Sort) -> Term:
    """A symbolic variable of the given sort."""
    return Term(VAR, (), name, sort)


def const(value) -> Term:
    """A boolean or integer constant term."""
    if isinstance(value, bool):
        return Term(BCONST, (), value, BOOL)
    if isinstance(value, int):
        return Term(ICONST, (), value, INT)
    raise TypeError(f"no constant for {value!r}")


true = const(True)
false = const(False)


def uval(sort: Sort, index: int) -> Term:
    """A concrete value of an uninterpreted sort (distinct per index).

    Used when TESTGEN pins symbolic file names to concrete ones: ``uval(F, 0)``
    and ``uval(F, 1)`` are distinct by definition.
    """
    if not sort.is_uninterpreted:
        raise ValueError(f"uval requires an uninterpreted sort, got {sort}")
    return Term(UVAL, (), index, sort)


def not_(a: Term) -> Term:
    _expect(a, BOOL)
    if a.kind == BCONST:
        return const(not a.payload)
    if a.kind == NOT:
        return a.args[0]
    return Term(NOT, (a,), None, BOOL)


def and_(*parts: Term) -> Term:
    flat: list[Term] = []
    for p in _flatten(parts, AND):
        _expect(p, BOOL)
        if p is false:
            return false
        if p is true:
            continue
        if not_(p) in flat:
            return false
        if p not in flat:
            flat.append(p)
    if not flat:
        return true
    if len(flat) == 1:
        return flat[0]
    return Term(AND, tuple(flat), None, BOOL)


def or_(*parts: Term) -> Term:
    flat: list[Term] = []
    for p in _flatten(parts, OR):
        _expect(p, BOOL)
        if p is true:
            return true
        if p is false:
            continue
        if not_(p) in flat:
            return true
        if p not in flat:
            flat.append(p)
    if not flat:
        return false
    if len(flat) == 1:
        return flat[0]
    return Term(OR, tuple(flat), None, BOOL)


def implies(a: Term, b: Term) -> Term:
    return or_(not_(a), b)


def eq(a: Term, b: Term) -> Term:
    if a.sort is not b.sort:
        raise TypeError(f"sort mismatch in eq: {a.sort} vs {b.sort}")
    if a is b:
        return true
    if a.is_const and b.is_const:
        return const(a.payload == b.payload)
    if a.sort is BOOL:
        # Encode boolean equality structurally so the solver only sees
        # and/or/not over boolean atoms.
        return or_(and_(a, b), and_(not_(a), not_(b)))
    # Canonicalize argument order for interning.
    if id(a) > id(b):
        a, b = b, a
    return Term(EQ, (a, b), None, BOOL)


def ne(a: Term, b: Term) -> Term:
    return not_(eq(a, b))


def distinct(terms: Iterable[Term]) -> Term:
    """Pairwise disequality of all given terms."""
    items = list(terms)
    parts = []
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            parts.append(ne(a, b))
    return and_(*parts)


def lt(a: Term, b: Term) -> Term:
    _expect(a, INT)
    _expect(b, INT)
    if a.kind == ICONST and b.kind == ICONST:
        return const(a.payload < b.payload)
    if a is b:
        return false
    return Term(LT, (a, b), None, BOOL)


def le(a: Term, b: Term) -> Term:
    _expect(a, INT)
    _expect(b, INT)
    if a.kind == ICONST and b.kind == ICONST:
        return const(a.payload <= b.payload)
    if a is b:
        return true
    return Term(LE, (a, b), None, BOOL)


def add(a: Term, b: Term) -> Term:
    _expect(a, INT)
    _expect(b, INT)
    if a.kind == ICONST and b.kind == ICONST:
        return const(a.payload + b.payload)
    if a.kind == ICONST and a.payload == 0:
        return b
    if b.kind == ICONST and b.payload == 0:
        return a
    return Term(ADD, (a, b), None, INT)


def sub(a: Term, b: Term) -> Term:
    """``a - b`` encoded as ``a + (-1 * b)``; we only need var minus const."""
    _expect(a, INT)
    _expect(b, INT)
    if b.kind == ICONST:
        return add(a, const(-b.payload))
    if a.kind == ICONST and b.kind == ICONST:
        return const(a.payload - b.payload)
    raise NotImplementedError("general subtraction is outside the fragment")


def ite(cond: Term, then: Term, other: Term) -> Term:
    _expect(cond, BOOL)
    if then.sort is not other.sort:
        raise TypeError(f"ite branch sorts differ: {then.sort} vs {other.sort}")
    if cond is true:
        return then
    if cond is false:
        return other
    if then is other:
        return then
    if then.sort is BOOL:
        return or_(and_(cond, then), and_(not_(cond), other))
    return Term(ITE, (cond, then, other), None, then.sort)


# ----------------------------------------------------------------------
# Canonicalization
#
# The constructors simplify *locally* (constant folding, flattening, unit
# elimination) but preserve argument order, so `and_(p, q)` and
# `and_(q, p)` intern to different terms even though they are the same
# constraint.  The solver memoizes on constraint sets; without a canonical
# form, structurally-equal path conditions that merely accumulated their
# conjuncts in different orders miss the cache.  :func:`canonical` closes
# that gap: negation normal form (negations pushed to the atoms, with
# ``!(a < b)`` rewritten to ``b <= a`` so ordered atoms need no negation
# at all), commutative arguments sorted by a deterministic structural
# key, add-chains flattened and re-associated, and cheap contradiction /
# tautology detection over ordered-comparison pairs.

_ORDER_KEY_CACHE: dict[int, tuple] = {}
_CANON_CACHE: dict[int, "Term"] = {}
_CANON_NEG_CACHE: dict[int, "Term"] = {}
_VARS_CACHE: dict[int, frozenset] = {}

#: Safety valve for the four id-keyed caches above.  Their natural bound
#: is the interning table (one entry per distinct term, which the
#: ``_interned`` registry keeps alive, so ids never go stale) — but a
#: pathological sweep that interns tens of millions of terms would drag
#: the caches along with it.  Past this size they are simply cleared;
#: every entry is recomputable.
_CANON_CACHE_LIMIT = 1_000_000
_ID_CACHES = (_ORDER_KEY_CACHE, _CANON_CACHE, _CANON_NEG_CACHE, _VARS_CACHE)


def _enforce_cache_limit() -> None:
    for cache in _ID_CACHES:
        if len(cache) > _CANON_CACHE_LIMIT:
            cache.clear()


def order_key(t: Term) -> tuple:
    """Deterministic structural sort key (stable across processes, unlike
    ``id()``-based ordering)."""
    hit = _ORDER_KEY_CACHE.get(id(t))
    if hit is None:
        hit = (
            t.kind,
            t.sort.name,
            repr(t.payload),
            tuple(order_key(a) for a in t.args),
        )
        _enforce_cache_limit()
        _ORDER_KEY_CACHE[id(t)] = hit
    return hit


def canonical(t: Term) -> Term:
    """The canonical form of ``t``: NNF, sorted commutative arguments,
    flattened add-chains, folded constants.  Idempotent; equal-modulo-
    commutativity constraints map to one interned term."""
    hit = _CANON_CACHE.get(id(t))
    if hit is not None:
        return hit
    k = t.kind
    if k == NOT:
        result = _canonical_negated(t.args[0])
    elif k == AND:
        result = _canon_junction(AND, and_, t.args, negate=False)
    elif k == OR:
        result = _canon_junction(OR, or_, t.args, negate=False)
    elif k == EQ:
        result = eq(canonical(t.args[0]), canonical(t.args[1]))
    elif k == LT:
        result = lt(canonical(t.args[0]), canonical(t.args[1]))
    elif k == LE:
        result = le(canonical(t.args[0]), canonical(t.args[1]))
    elif k == ADD:
        result = _canon_add(t)
    elif k == ITE:
        cond = canonical(t.args[0])
        then, other = canonical(t.args[1]), canonical(t.args[2])
        if cond.kind == NOT:
            cond, then, other = cond.args[0], other, then
        result = ite(cond, then, other)
    else:
        result = t
    _enforce_cache_limit()
    _CANON_CACHE[id(t)] = result
    # Canonicalization is idempotent by construction; pin the result so
    # re-canonicalizing it is a dict hit.
    _CANON_CACHE.setdefault(id(result), result)
    return result


def _canonical_negated(t: Term) -> Term:
    """Canonical form of ``not t`` with the negation pushed inward."""
    hit = _CANON_NEG_CACHE.get(id(t))
    if hit is not None:
        return hit
    k = t.kind
    if k == NOT:
        result = canonical(t.args[0])
    elif k == AND:
        result = _canon_junction(OR, or_, t.args, negate=True)
    elif k == OR:
        result = _canon_junction(AND, and_, t.args, negate=True)
    elif k == LT:
        # !(a < b)  <=>  b <= a: ordered atoms never carry a negation.
        result = le(canonical(t.args[1]), canonical(t.args[0]))
    elif k == LE:
        result = lt(canonical(t.args[1]), canonical(t.args[0]))
    else:
        result = not_(canonical(t))
    _enforce_cache_limit()
    _CANON_NEG_CACHE[id(t)] = result
    _CANON_CACHE.setdefault(id(result), result)
    return result


def _canon_junction(kind: str, ctor, args, negate: bool) -> Term:
    parts = [
        _canonical_negated(a) if negate else canonical(a) for a in args
    ]
    joined = ctor(*parts)
    if joined.kind != kind:
        return joined
    members = sorted(joined.args, key=order_key)
    # Ordered-comparison contradictions (AND) / tautologies (OR) that the
    # complement check in the constructors cannot see syntactically:
    # a < b conflicts with b <= a, b < a, and a == b; a < b joined with
    # b <= a covers everything.
    mset = set(members)
    for m in members:
        if m.kind != LT:
            continue
        a, b = m.args
        if kind == AND:
            if le(b, a) in mset or lt(b, a) in mset or eq(a, b) in mset:
                return false
        else:
            if le(b, a) in mset:
                return true
    if tuple(members) == joined.args:
        return joined
    return Term(kind, tuple(members), None, BOOL)


def _canon_add(t: Term) -> Term:
    constant = 0
    leaves: list[Term] = []
    stack = [t]
    while stack:
        n = stack.pop()
        if n.kind == ADD:
            stack.extend(n.args)
            continue
        n = canonical(n)
        if n.kind == ICONST:
            constant += n.payload
        elif n.kind == ADD:
            stack.extend(n.args)
        else:
            leaves.append(n)
    leaves.sort(key=order_key)
    result: Optional[Term] = None
    for leaf in leaves:
        result = leaf if result is None else Term(ADD, (result, leaf), None, INT)
    if result is None:
        return const(constant)
    if constant:
        result = Term(ADD, (result, const(constant)), None, INT)
    return result


def cached_variables(term: Term) -> frozenset:
    """All variable terms appearing in ``term`` (memoized; terms are interned)."""
    hit = _VARS_CACHE.get(id(term))
    if hit is not None:
        return hit
    if term.kind == VAR:
        result = frozenset((term,))
    elif not term.args:
        result = frozenset()
    else:
        result = frozenset().union(*[cached_variables(a) for a in term.args])
    _enforce_cache_limit()
    _VARS_CACHE[id(term)] = result
    return result


def term_variables(term: Term, acc: Optional[set] = None) -> set:
    """All variable terms appearing in ``term``."""
    if acc is None:
        return set(cached_variables(term))
    acc.update(cached_variables(term))
    return acc


def substitute(term: Term, mapping: dict[Term, Term]) -> Term:
    """Replace variables per ``mapping``, rebuilding with simplification."""
    cache: dict[int, Term] = {}

    def walk(t: Term) -> Term:
        hit = cache.get(id(t))
        if hit is not None:
            return hit
        if t in mapping:
            result = mapping[t]
        elif not t.args:
            result = t
        else:
            kids = tuple(walk(a) for a in t.args)
            result = _rebuild(t, kids)
        cache[id(t)] = result
        return result

    return walk(term)


def _rebuild(t: Term, kids: tuple[Term, ...]) -> Term:
    if kids == t.args:
        return t
    if t.kind == NOT:
        return not_(kids[0])
    if t.kind == AND:
        return and_(*kids)
    if t.kind == OR:
        return or_(*kids)
    if t.kind == EQ:
        return eq(kids[0], kids[1])
    if t.kind == LT:
        return lt(kids[0], kids[1])
    if t.kind == LE:
        return le(kids[0], kids[1])
    if t.kind == ADD:
        return add(kids[0], kids[1])
    if t.kind == ITE:
        return ite(kids[0], kids[1], kids[2])
    raise AssertionError(f"unexpected kind {t.kind}")


def term_to_str(t: Term) -> str:
    if t.kind == VAR:
        return str(t.payload)
    if t.kind in (BCONST, ICONST):
        return str(t.payload)
    if t.kind == UVAL:
        return f"{t.sort.name}#{t.payload}"
    if t.kind == NOT:
        return f"!{_paren(t.args[0])}"
    if t.kind == AND:
        return " & ".join(_paren(a) for a in t.args)
    if t.kind == OR:
        return " | ".join(_paren(a) for a in t.args)
    if t.kind == EQ:
        return f"{_paren(t.args[0])} == {_paren(t.args[1])}"
    if t.kind == LT:
        return f"{_paren(t.args[0])} < {_paren(t.args[1])}"
    if t.kind == LE:
        return f"{_paren(t.args[0])} <= {_paren(t.args[1])}"
    if t.kind == ADD:
        return f"{_paren(t.args[0])} + {_paren(t.args[1])}"
    if t.kind == ITE:
        cond, a, b = t.args
        return f"ite({term_to_str(cond)}, {term_to_str(a)}, {term_to_str(b)})"
    raise AssertionError(f"unexpected kind {t.kind}")


def _paren(t: Term) -> str:
    s = term_to_str(t)
    if t.args and t.kind not in (NOT, ITE):
        return f"({s})"
    return s


def _flatten(parts: Iterable[Term], kind: str) -> Iterable[Term]:
    for p in parts:
        if p.kind == kind:
            yield from p.args
        else:
            yield p


def _expect(t: Term, sort: Sort) -> None:
    if t.sort is not sort:
        raise TypeError(f"expected {sort.name} term, got {t.sort.name}: {t!r}")
