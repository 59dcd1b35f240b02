"""SMT-lite solver for the fragment used by the POSIX model.

The original Commuter delegates to Z3.  The path conditions our ANALYZER
produces live in a small decidable fragment (DESIGN.md §5):

* boolean structure (``and``/``or``/``not``, ``ite`` on any sort),
* equality and disequality over uninterpreted sorts,
* equality and order comparisons over *bounded* integers built from
  variables, constants and addition.

The solver does DPLL-style splitting on the boolean structure, maintains a
union-find (congruence closure without function symbols — the model never
produces uninterpreted functions) for uninterpreted equalities, and decides
integer literals by backtracking search over bounded domains with
forward-checking.  Satisfiable queries yield a :class:`Model` that assigns
every relevant variable a concrete Python value.

Two query styles share one memo:

* **One-shot** — :meth:`Solver.check` / :meth:`Solver.model` solve a full
  constraint list from scratch.  TESTGEN builds each model this way, with
  the search order kept exactly as it was before scoped solving, so
  generated test cases stay byte-identical.
* **Scoped** — :meth:`Solver.push` / :meth:`Solver.assert_term` /
  :meth:`Solver.check_asserted` / :meth:`Solver.pop` maintain a persistent
  assertion stack.  Each scope snapshots the union-find, boolean valuation,
  and integer domain bounds, so the engine's depth-first path exploration
  asserts one branch literal per decision instead of re-submitting the whole
  path condition; a pop restores the parent snapshot in O(1).  Literal
  assertion detects contradictions eagerly (union-find merge failures,
  boolean flips, emptied integer domains), so most UNSAT branches never
  reach a search.  TESTGEN's isomorphism probing works this way too: the
  path condition is asserted once and each probe adds one equality.

Integer literals are kept partitioned into connected components over
shared variables as they are asserted (:class:`_IntIndex`), shared
copy-on-write between scope snapshots and DPLL branches; each component
memoizes its key and verdict, so a check re-solves only the components
its newest literals touched.

Queries are memoized on the *canonical* constraint set
(:func:`repro.symbolic.terms.canonical`), so structurally-equal conditions
that accumulated their conjuncts in different orders share one entry; path
exploration re-checks many shared prefixes, so the cache is load-bearing
for ANALYZER performance.  The memo is a bounded LRU
(``cache_size``, default :data:`DEFAULT_CACHE_SIZE` entries) so a long
sweep cannot grow it monotonically.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from repro.symbolic import terms as T
from repro.symbolic.terms import Term

#: Default bound on the check/int-component memo caches (entries per cache).
DEFAULT_CACHE_SIZE = 4096


class SolverError(Exception):
    """Raised when a constraint falls outside the supported fragment."""


class UVal:
    """A concrete value of an uninterpreted sort in a model.

    Instances compare by ``(sort, index)``; distinct indices are distinct
    values.  TESTGEN later maps these to concrete names like ``"f0"``.
    """

    __slots__ = ("sort", "index")

    def __init__(self, sort: T.Sort, index: int):
        self.sort = sort
        self.index = index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UVal)
            and self.sort is other.sort
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((self.sort, self.index))

    def __repr__(self) -> str:
        return f"{self.sort.name}#{self.index}"


class Model:
    """A satisfying assignment: maps variable terms to Python values."""

    def __init__(self, assignment: dict[Term, object]):
        self._assignment = dict(assignment)

    def __getitem__(self, v: Term):
        return self._assignment[v]

    def get(self, v: Term, default=None):
        return self._assignment.get(v, default)

    def __contains__(self, v: Term) -> bool:
        return v in self._assignment

    def variables(self) -> list[Term]:
        return list(self._assignment)

    def eval(self, term: Term):
        """Evaluate ``term`` to a concrete value under this model.

        Unassigned variables get deterministic defaults (``False``, ``0``, or
        a fresh uninterpreted value), so evaluation is total.
        """
        k = term.kind
        if k == T.VAR:
            if term in self._assignment:
                return self._assignment[term]
            return self._default(term)
        if k in (T.BCONST, T.ICONST):
            return term.payload
        if k == T.UVAL:
            return UVal(term.sort, term.payload)
        if k == T.NOT:
            return not self.eval(term.args[0])
        if k == T.AND:
            return all(self.eval(a) for a in term.args)
        if k == T.OR:
            return any(self.eval(a) for a in term.args)
        if k == T.EQ:
            return self.eval(term.args[0]) == self.eval(term.args[1])
        if k == T.LT:
            return self.eval(term.args[0]) < self.eval(term.args[1])
        if k == T.LE:
            return self.eval(term.args[0]) <= self.eval(term.args[1])
        if k == T.ADD:
            return self.eval(term.args[0]) + self.eval(term.args[1])
        if k == T.ITE:
            cond, a, b = term.args
            return self.eval(a) if self.eval(cond) else self.eval(b)
        raise SolverError(f"cannot evaluate kind {k}")

    def _default(self, v: Term):
        if v.sort is T.BOOL:
            return False
        if v.sort is T.INT:
            return 0
        # Deterministic fresh value: index derived from the variable name so
        # unconstrained names stay distinct from each other and from small
        # model-assigned indices.
        return UVal(v.sort, 1000 + (hash(v.payload) & 0xFFFF))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{v.payload}={self._assignment[v]!r}" for v in self._assignment
        )
        return f"Model({parts})"


class _LRU:
    """Bounded mapping with least-recently-used eviction.

    ``maxsize`` of 0 (or None) disables the bound — useful for short
    exploratory sessions; the pipeline always passes a bound.
    """

    __slots__ = ("maxsize", "_data")

    def __init__(self, maxsize: Optional[int]):
        self.maxsize = maxsize if maxsize and maxsize > 0 else 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        data = self._data
        try:
            value = data[key]
        except KeyError:
            return default
        data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if self.maxsize and len(data) > self.maxsize:
            data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()


class _IntComponent:
    """One connected component of integer literals: every literal shares a
    variable, directly or transitively, with another in the component.

    Immutable once built — scope snapshots and DPLL branches share one
    instance until a new literal touches the component.  ``literals``
    keep global assertion order (``seqs`` holds each literal's position
    in it), which is the order the search discovers variables in, so a
    component solves exactly as a from-scratch partition would.  The
    frozenset memo ``key`` and the search ``verdict`` (an assignment, or
    None when unsatisfiable) are filled on first check and then reused by
    every theory sharing the component.
    """

    __slots__ = ("literals", "seqs", "key", "verdict")

    def __init__(self, literals: tuple, seqs: tuple):
        self.literals = literals
        self.seqs = seqs
        self.key: Optional[frozenset] = None
        self.verdict = _MISSING

    @staticmethod
    def merge(parts: list, lit: tuple, seq: int) -> "_IntComponent":
        """``parts`` joined by ``lit``, the newest literal (so it goes last)."""
        if not parts:
            return _IntComponent((lit,), (seq,))
        if len(parts) == 1:
            part = parts[0]
            return _IntComponent(part.literals + (lit,), part.seqs + (seq,))
        entries = sorted(
            itertools.chain.from_iterable(
                zip(part.seqs, part.literals) for part in parts
            ),
            key=itemgetter(0),
        )
        entries.append((seq, lit))
        seqs, literals = zip(*entries)
        return _IntComponent(literals, seqs)


class _IntIndex:
    """The integer literals of one theory, partitioned into components.

    A union-find over integer variables, kept flat (``root`` maps every
    variable straight to its component's root, relabelling the smaller
    side on a merge) so lookups never write and a shared index stays
    valid for every theory reading it.  Updated as each literal is
    asserted, so a check walks the already-built components instead of
    re-partitioning the whole literal set.
    """

    __slots__ = ("root", "components", "ground", "count", "_ordered")

    def __init__(self):
        self.root: dict[Term, Term] = {}
        self.components: dict[Term, _IntComponent] = {}
        #: Variable-free literals, checked together after the components.
        self.ground: Optional[_IntComponent] = None
        self.count = 0
        self._ordered: Optional[tuple] = ()

    def copy(self) -> "_IntIndex":
        other = _IntIndex.__new__(_IntIndex)
        other.root = dict(self.root)
        other.components = dict(self.components)
        other.ground = self.ground
        other.count = self.count
        other._ordered = self._ordered
        return other

    def add(self, lit: tuple) -> None:
        seq = self.count
        self.count = seq + 1
        self._ordered = None
        _, a, b = lit
        lit_vars = T.cached_variables(a) | T.cached_variables(b)
        if not lit_vars:
            parts = [] if self.ground is None else [self.ground]
            self.ground = _IntComponent.merge(parts, lit, seq)
            return
        root_of = self.root
        components = self.components
        roots: list[Term] = []
        for v in lit_vars:
            r = root_of.get(v)
            if r is not None and r not in roots:
                roots.append(r)
        # The largest component survives; the others' variables relabel.
        survivor = (
            max(roots, key=lambda r: len(components[r].literals))
            if roots else next(iter(lit_vars))
        )
        parts = [components.pop(r) for r in roots]
        for r, part in zip(roots, parts):
            if r is survivor:
                continue
            for _, x, y in part.literals:
                for v in T.cached_variables(x) | T.cached_variables(y):
                    root_of[v] = survivor
        components[survivor] = _IntComponent.merge(parts, lit, seq)
        for v in lit_vars:
            root_of[v] = survivor

    def ordered(self) -> tuple:
        """Components in order of their first literal, ground last — the
        order a from-scratch partition of the literal list yields."""
        if self._ordered is None:
            ordered = sorted(self.components.values(), key=_first_seq)
            if self.ground is not None:
                ordered.append(self.ground)
            self._ordered = tuple(ordered)
        return self._ordered


def _first_seq(component: _IntComponent) -> int:
    return component.seqs[0]


class _Theory:
    """Accumulated literal state during a DPLL branch or solver scope.

    ``domains`` carries the per-scope integer pruning state: for every
    integer variable bounded by a single-variable literal asserted so far,
    the surviving ``(lo, hi, excluded)`` window.  An emptied window is an
    eager UNSAT — no search needed.

    ``ints`` is the integer component index, shared copy-on-write: a
    clone reads its parent's index until it asserts an integer literal of
    its own, and even then copies only the variable and component maps,
    never the components themselves.
    """

    __slots__ = (
        "bools", "parent", "rank", "diseq", "ints", "ints_owned", "domains",
    )

    def __init__(self):
        self.bools: dict[Term, bool] = {}
        self.parent: dict[Term, Term] = {}
        self.rank: dict[Term, int] = {}
        self.diseq: list[tuple[Term, Term]] = []
        self.ints = _IntIndex()
        self.ints_owned = True
        self.domains: dict[Term, tuple[int, int, frozenset]] = {}

    def clone(self) -> "_Theory":
        t = _Theory.__new__(_Theory)
        t.bools = dict(self.bools)
        t.parent = dict(self.parent)
        t.rank = dict(self.rank)
        t.diseq = list(self.diseq)
        t.ints = self.ints
        t.ints_owned = self.ints_owned = False
        t.domains = dict(self.domains)
        return t

    def add_int(self, op: str, a: Term, b: Term) -> None:
        if not self.ints_owned:
            self.ints = self.ints.copy()
            self.ints_owned = True
        self.ints.add((op, a, b))

    def find(self, x: Term) -> Term:
        root = x
        while self.parent.get(root, root) is not root:
            root = self.parent[root]
        # Path compression.
        while self.parent.get(x, x) is not x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: Term, b: Term) -> bool:
        """Merge classes of a and b; False on contradiction with a diseq."""
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return True
        # Two distinct concrete uninterpreted values can never be equal.
        if ra.kind == T.UVAL and rb.kind == T.UVAL:
            return False
        if self.rank.get(ra, 0) < self.rank.get(rb, 0):
            ra, rb = rb, ra
        # Keep concrete values as roots so classes stay pinned to them.
        if rb.kind == T.UVAL:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank.get(ra, 0) == self.rank.get(rb, 0):
            self.rank[ra] = self.rank.get(ra, 0) + 1
        return self._diseq_consistent()

    def _diseq_consistent(self) -> bool:
        return all(self.find(a) is not self.find(b) for a, b in self.diseq)

    def add_diseq(self, a: Term, b: Term) -> bool:
        if self.find(a) is self.find(b):
            return False
        self.diseq.append((a, b))
        return True

    def narrow(self, v: Term, op: str, c: int, lo0: int, hi0: int) -> bool:
        """Intersect ``v``'s domain window with ``v <op> c``; False when the
        window empties (eager UNSAT for the owning scope)."""
        lo, hi, excluded = self.domains.get(v, (lo0, hi0, frozenset()))
        if op == "ne":
            excluded = excluded | {c}
        else:
            lo, hi = _shrink_window(op, c, lo, hi)
        self.domains[v] = (lo, hi, excluded)
        if lo > hi:
            return False
        if len(excluded) >= hi - lo + 1:
            return any(x not in excluded for x in range(lo, hi + 1))
        return True


class _Scope:
    """One frame of the scoped assertion stack."""

    __slots__ = ("theory", "complex", "unsat", "key")

    def __init__(self, theory: _Theory, unsat: bool, key: frozenset):
        self.theory = theory
        self.complex: list[Term] = []
        self.unsat = unsat
        self.key = key


class Solver:
    """Satisfiability checks and model construction with memoization."""

    def __init__(
        self,
        int_min: int = -1,
        int_max: int = 16,
        cache_size: Optional[int] = DEFAULT_CACHE_SIZE,
    ):
        self.int_min = int_min
        self.int_max = int_max
        self.cache_size = cache_size
        self._check_cache = _LRU(cache_size)
        # Integer-component verdicts: one memo for satisfiability queries,
        # one for model construction.  A component's assignment depends on
        # the literal order it was first solved in, so keeping the two
        # apart means no probe ever decides which assignment a model gets.
        self._int_cache = _LRU(cache_size)
        self._model_int_cache = _LRU(cache_size)
        self.stats = {
            "checks": 0,
            "cache_hits": 0,
            "oneshot_queries": 0,
            "scoped_queries": 0,
            "int_nodes": 0,
            "int_solved": 0,
            "int_memo_hits": 0,
            "decisions": 0,
            "scope_asserts": 0,
            "scope_pushes": 0,
            "max_scope_depth": 0,
        }
        self._scopes: list[_Scope] = [
            _Scope(_Theory(), unsat=False, key=frozenset())
        ]

    # ------------------------------------------------------------------
    # One-shot API

    def check(self, constraints: Iterable[Term]) -> bool:
        """True when the conjunction of ``constraints`` is satisfiable."""
        self.stats["oneshot_queries"] += 1
        formulas = _prepare(T.canonical(c) for c in constraints)
        if formulas is None:
            return False
        key = frozenset(formulas)
        hit = self._check_cache.get(key, _MISSING)
        if hit is not _MISSING:
            self.stats["cache_hits"] += 1
            return hit
        self.stats["checks"] += 1
        result = self._solve(list(formulas), _Theory(), want_model=False) is not None
        self._check_cache.put(key, result)
        return result

    def model(self, constraints: Iterable[Term]) -> Optional[Model]:
        """A satisfying :class:`Model`, or None when unsatisfiable.

        Deliberately *not* canonicalized: model construction order decides
        which satisfying assignment is found, and TESTGEN's generated cases
        must stay byte-identical to the pre-incremental pipeline.
        """
        formulas = _prepare(constraints)
        if formulas is None:
            return None
        theory = self._solve(list(formulas), _Theory(), want_model=True)
        if theory is None:
            return None
        return self._build_model(theory)

    # ------------------------------------------------------------------
    # Scoped API (incremental path exploration)

    @property
    def scope_depth(self) -> int:
        """Number of scopes above the base frame."""
        return len(self._scopes) - 1

    def push(self) -> None:
        """Open a scope: subsequent assertions are undone by :meth:`pop`.

        The new scope snapshots the parent's union-find, boolean valuation,
        and integer domain windows, so assertion work done in the parent is
        never redone.
        """
        top = self._scopes[-1]
        self._scopes.append(_Scope(top.theory.clone(), top.unsat, top.key))
        self.stats["scope_pushes"] += 1
        depth = self.scope_depth
        if depth > self.stats["max_scope_depth"]:
            self.stats["max_scope_depth"] = depth

    def pop(self) -> None:
        """Close the current scope, restoring the parent snapshot."""
        if len(self._scopes) == 1:
            raise SolverError("cannot pop the base scope")
        self._scopes.pop()

    def reset_scopes(self) -> None:
        """Drop every scope and all base assertions; caches survive."""
        self._scopes = [_Scope(_Theory(), unsat=False, key=frozenset())]

    def assert_term(self, constraint: Term) -> bool:
        """Add ``constraint`` to the current scope.

        Returns False when the scope is now known unsatisfiable (eager
        detection: boolean flips, union-find merge conflicts, emptied
        integer domains).  True does *not* promise satisfiability —
        :meth:`check_asserted` gives the full verdict.
        """
        self.stats["scope_asserts"] += 1
        scope = self._scopes[-1]
        c = T.canonical(constraint)
        if c is not T.true:
            scope.key = scope.key | frozenset((c,))
        if scope.unsat:
            return False
        self._absorb(c, scope)
        return not scope.unsat

    def _absorb(self, c: Term, scope: _Scope) -> None:
        if c is T.true:
            return
        if c is T.false:
            scope.unsat = True
            return
        if c.kind == T.AND:
            for part in c.args:
                self._absorb(part, scope)
                if scope.unsat:
                    return
            return
        if _is_plain_literal(c):
            self.stats["decisions"] += 1
            if not self._assert_literal(c, scope.theory):
                scope.unsat = True
                return
            bound = _literal_bound(c)
            if bound is not None:
                v, op, value = bound
                if not scope.theory.narrow(
                    v, op, value, self.int_min, self.int_max
                ):
                    scope.unsat = True
            return
        scope.complex.append(c)

    def check_asserted(
        self, extra: Sequence[Term] = (), depth: Optional[int] = None
    ) -> bool:
        """Satisfiability of the scoped assertion stack plus ``extra``.

        The verdict equals ``check(all asserted ++ extra)`` — and shares
        its memo entry with it — but only the non-literal residue is
        re-solved: literal assertions live in the scope snapshots and
        integer components are memoized individually.

        ``depth`` queries against an inner frame (``0`` = base scope)
        while leaving deeper scopes untouched — the engine uses this to
        probe mid-prefix without discarding a previous run's suffix
        snapshots it may still reuse.
        """
        self.stats["scoped_queries"] += 1
        if depth is None:
            scope = self._scopes[-1]
            frames = self._scopes
        else:
            if not 0 <= depth <= self.scope_depth:
                raise SolverError(
                    f"depth {depth} outside scope stack (0..{self.scope_depth})"
                )
            scope = self._scopes[depth]
            frames = self._scopes[: depth + 1]
        if scope.unsat:
            return False
        extras = []
        for t in extra:
            c = T.canonical(t)
            if c is T.false:
                return False
            if c is not T.true:
                extras.append(c)
        key = scope.key | frozenset(extras)
        hit = self._check_cache.get(key, _MISSING)
        if hit is not _MISSING:
            self.stats["cache_hits"] += 1
            return hit
        self.stats["checks"] += 1
        pending = [f for s in frames for f in s.complex]
        pending.extend(extras)
        if pending:
            result = (
                self._solve(pending, scope.theory.clone(), want_model=False)
                is not None
            )
        else:
            result = self._int_check(scope.theory, self._int_cache)
        self._check_cache.put(key, result)
        return result

    # ------------------------------------------------------------------
    # DPLL core

    def _solve(
        self, pending: list[Term], theory: _Theory, want_model: bool
    ) -> Optional[_Theory]:
        while pending:
            f = pending.pop()
            f = _lift_ite(f)
            k = f.kind
            self.stats["decisions"] += 1
            if f is T.true:
                continue
            if f is T.false:
                return None
            if k == T.AND:
                pending.extend(f.args)
                continue
            if k == T.OR:
                # Split: try each disjunct in its own branch.
                for d in f.args:
                    result = self._solve(
                        pending + [d], theory.clone(), want_model
                    )
                    if result is not None:
                        return result
                return None
            if k == T.ITE:
                cond, a, b = f.args
                for guard, branch in ((cond, a), (T.not_(cond), b)):
                    result = self._solve(
                        pending + [guard, branch], theory.clone(), want_model
                    )
                    if result is not None:
                        return result
                return None
            if k == T.NOT and f.args[0].kind in (T.AND, T.OR, T.ITE):
                pending.append(_push_negation(f.args[0]))
                continue
            if not self._assert_literal(f, theory):
                return None
        cache = self._model_int_cache if want_model else self._int_cache
        if not self._int_check(theory, cache):
            return None
        return theory

    def _assert_literal(self, f: Term, theory: _Theory) -> bool:
        positive = True
        if f.kind == T.NOT:
            positive = False
            f = f.args[0]
        k = f.kind
        if k == T.VAR and f.sort is T.BOOL:
            prev = theory.bools.get(f)
            if prev is not None and prev != positive:
                return False
            theory.bools[f] = positive
            return True
        if k == T.EQ:
            a, b = f.args
            if a.sort is T.INT:
                theory.add_int("eq" if positive else "ne", a, b)
                return True
            if positive:
                return theory.union(a, b)
            return theory.add_diseq(a, b)
        if k == T.LT:
            a, b = f.args
            # not (a < b)  <=>  b <= a
            if positive:
                theory.add_int("lt", a, b)
            else:
                theory.add_int("le", b, a)
            return True
        if k == T.LE:
            a, b = f.args
            if positive:
                theory.add_int("le", a, b)
            else:
                theory.add_int("lt", b, a)
            return True
        raise SolverError(f"unsupported literal: {f!r}")

    # ------------------------------------------------------------------
    # Integer theory: bounded backtracking with forward checking.
    #
    # Path conditions accumulate many independent integer facts (bounds on
    # unrelated inode fields, offsets, fds), so the literals are kept split
    # into connected components over shared variables (:class:`_IntIndex`,
    # maintained as literals are asserted); each component is solved
    # separately and memoized — re-checks of grown path conditions reuse
    # every unchanged component without even rebuilding its key.

    def _int_check(
        self, theory: _Theory, cache: _LRU, assign_out: Optional[dict] = None
    ) -> bool:
        stats = self.stats
        for component in theory.ints.ordered():
            verdict = component.verdict
            if verdict is _MISSING:
                key = component.key
                if key is None:
                    key = component.key = frozenset(component.literals)
                verdict = cache.get(key, _MISSING)
                if verdict is _MISSING:
                    verdict = self._solve_int_component(component.literals)
                    cache.put(key, verdict)
                    stats["int_solved"] += 1
                else:
                    stats["int_memo_hits"] += 1
                component.verdict = verdict
            else:
                stats["int_memo_hits"] += 1
            if verdict is None:
                return False
            if assign_out is not None:
                assign_out.update(verdict)
        return True

    def _solve_int_component(
        self, literals: Sequence
    ) -> Optional[dict[Term, int]]:
        variables: list[Term] = []
        seen = set()
        by_var: dict[Term, list] = {}
        lit_infos = []
        for lit in literals:
            lit_vars = frozenset(T.term_variables(lit[1], T.term_variables(lit[2])))
            lit_infos.append((lit, lit_vars))
            for v in sorted(lit_vars, key=T.order_key):
                if v not in seen:
                    seen.add(v)
                    variables.append(v)
                    by_var[v] = []
            for v in lit_vars:
                by_var[v].append((lit, lit_vars))
        # Ground literals (no variables) must hold outright.
        for lit, lit_vars in lit_infos:
            if not lit_vars and not _eval_ground(lit):
                return None
        # Domain narrowing from single-variable bound literals.
        domains = {v: self._narrow_domain(v, by_var[v]) for v in variables}
        if any(not d for d in domains.values()):
            return None
        # Assign most-constrained variables first: fail fast.  The insertion
        # order above is deterministic (structural keys), so ties — and with
        # them ``int_nodes`` counts — are stable across processes.
        variables.sort(key=lambda v: (len(domains[v]), -len(by_var[v])))
        assignment: dict[Term, int] = {}

        def satisfied(lit, lit_vars) -> Optional[bool]:
            if not all(v in assignment for v in lit_vars):
                return None
            op, a, b = lit
            va = _int_eval(a, assignment)
            vb = _int_eval(b, assignment)
            if op == "eq":
                return va == vb
            if op == "ne":
                return va != vb
            if op == "lt":
                return va < vb
            return va <= vb

        def backtrack(i: int) -> bool:
            self.stats["int_nodes"] += 1
            if i == len(variables):
                return True
            v = variables[i]
            for value in domains[v]:
                assignment[v] = value
                ok = True
                for lit, lit_vars in by_var[v]:
                    if satisfied(lit, lit_vars) is False:
                        ok = False
                        break
                if ok and backtrack(i + 1):
                    return True
                del assignment[v]
            return False

        if not backtrack(0):
            return None
        return dict(assignment)

    def _narrow_domain(self, v: Term, lits: list) -> list[int]:
        lo, hi = self.int_min, self.int_max
        excluded: set[int] = set()
        for lit, lit_vars in lits:
            if len(lit_vars) != 1:
                continue
            bound = _single_var_bound(lit, v)
            if bound is None:
                continue
            op, c = bound
            if op == "ne":
                excluded.add(c)
            else:
                lo, hi = _shrink_window(op, c, lo, hi)
        return [x for x in range(lo, hi + 1) if x not in excluded]

    # ------------------------------------------------------------------
    # Model construction

    def _build_model(self, theory: _Theory) -> Model:
        assignment: dict[Term, object] = {}
        for v, val in theory.bools.items():
            assignment[v] = val
        int_assignment: dict[Term, int] = {}
        if not self._int_check(
            theory, self._model_int_cache, assign_out=int_assignment
        ):
            raise AssertionError("theory was satisfiable a moment ago")
        assignment.update(int_assignment)
        # Group uninterpreted terms into equivalence classes per sort and
        # give each class a distinct concrete value, honoring pinned UVALs.
        classes: dict[Term, list[Term]] = {}
        for t in itertools.chain(theory.parent, (a for d in theory.diseq for a in d)):
            classes.setdefault(theory.find(t), []).append(t)
        next_index: dict[T.Sort, int] = {}
        for root in sorted(classes, key=_class_sort_key):
            members = classes[root]
            sort = root.sort
            if root.kind == T.UVAL:
                value = UVal(sort, root.payload)
                next_index[sort] = max(next_index.get(sort, 0), root.payload + 1)
            else:
                idx = next_index.get(sort, 0)
                value = UVal(sort, idx)
                next_index[sort] = idx + 1
            for m in members:
                if m.kind == T.VAR:
                    assignment[m] = value
            if root.kind == T.VAR:
                assignment[root] = value
        return Model(assignment)


def _class_sort_key(root: Term):
    # Stable ordering: pinned values first (by index), then variables by name.
    if root.kind == T.UVAL:
        return (root.sort.name, 0, root.payload, "")
    return (root.sort.name, 1, 0, str(root.payload))


_MISSING = object()


def _shrink_window(op: str, c: int, lo: int, hi: int) -> tuple[int, int]:
    """Intersect the interval ``[lo, hi]`` with ``value <op> c``.

    The single encoding of comparison semantics shared by the per-scope
    domain windows (:meth:`_Theory.narrow`) and the search-time domain
    materialization (:meth:`Solver._narrow_domain`).  ``ne`` is handled by
    the callers' exclusion sets, not an interval.
    """
    if op == "eq":
        return max(lo, c), min(hi, c)
    if op == "lt":
        return lo, min(hi, c - 1)
    if op == "le":
        return lo, min(hi, c)
    if op == "gt":
        return max(lo, c + 1), hi
    if op == "ge":
        return max(lo, c), hi
    raise SolverError(f"unknown bound op: {op}")


def _is_plain_literal(c: Term) -> bool:
    """True when ``c`` can be absorbed into a theory directly: a (possibly
    negated) boolean variable or atom, with no embedded non-boolean ``ite``
    waiting to be lifted."""
    k = c.kind
    if k == T.NOT:
        inner = c.args[0]
        if inner.kind == T.VAR:
            return inner.sort is T.BOOL
        return inner.kind == T.EQ and _find_ite(inner) is None
    if k == T.VAR:
        return c.sort is T.BOOL
    if k in (T.EQ, T.LT, T.LE):
        return _find_ite(c) is None
    return False


def _literal_bound(c: Term):
    """``(variable, op, constant)`` when the literal bounds a single integer
    variable, else None — feeds the per-scope domain windows."""
    positive = True
    if c.kind == T.NOT:
        positive = False
        c = c.args[0]
    if c.kind not in (T.EQ, T.LT, T.LE):
        return None
    a, b = c.args
    if a.sort is not T.INT:
        return None
    op = {T.EQ: "eq", T.LT: "lt", T.LE: "le"}[c.kind]
    if not positive:
        # Canonical forms only negate eq; lt/le negations are rewritten.
        if op != "eq":
            return None
        op = "ne"
    lit_vars = T.term_variables(a, T.term_variables(b))
    if len(lit_vars) != 1:
        return None
    v = next(iter(lit_vars))
    bound = _single_var_bound((op, a, b), v)
    if bound is None:
        return None
    return (v, bound[0], bound[1])


def _eval_ground(lit) -> bool:
    op, a, b = lit
    va = _int_eval(a, {})
    vb = _int_eval(b, {})
    if op == "eq":
        return va == vb
    if op == "ne":
        return va != vb
    if op == "lt":
        return va < vb
    return va <= vb


def _linearize(t: Term, v: Term):
    """(coefficient of v, constant) for a term over at most the variable v,
    or None if other variables appear."""
    if t.kind == T.ICONST:
        return (0, t.payload)
    if t.kind == T.VAR:
        return (1, 0) if t is v else None
    if t.kind == T.ADD:
        left = _linearize(t.args[0], v)
        right = _linearize(t.args[1], v)
        if left is None or right is None:
            return None
        return (left[0] + right[0], left[1] + right[1])
    return None


_FLIPPED = {"lt": "gt", "le": "ge", "eq": "eq", "ne": "ne"}


def _single_var_bound(lit, v: Term):
    """Normalize a single-variable literal to ``v <op> constant``."""
    op, a, b = lit
    la = _linearize(a, v)
    lb = _linearize(b, v)
    if la is None or lb is None:
        return None
    coeff = la[0] - lb[0]
    rhs = lb[1] - la[1]
    if coeff == 1:
        return (op, rhs)
    if coeff == -1:
        return (_FLIPPED[op], -rhs)
    return None


def _int_eval(t: Term, assignment: dict[Term, int]) -> int:
    if t.kind == T.ICONST:
        return t.payload
    if t.kind == T.VAR:
        return assignment[t]
    if t.kind == T.ADD:
        return _int_eval(t.args[0], assignment) + _int_eval(t.args[1], assignment)
    raise SolverError(f"unsupported integer term: {t!r}")


def _push_negation(f: Term) -> Term:
    """One-level De Morgan / ITE negation push for the DPLL loop."""
    if f.kind == T.AND:
        return T.or_(*[T.not_(a) for a in f.args])
    if f.kind == T.OR:
        return T.and_(*[T.not_(a) for a in f.args])
    if f.kind == T.ITE:
        cond, a, b = f.args
        return Term(T.ITE, (cond, T.not_(a), T.not_(b)), None, T.BOOL)
    raise AssertionError(f"unexpected kind {f.kind}")


def _prepare(constraints: Iterable[Term]) -> Optional[tuple[Term, ...]]:
    """Normalize the constraint list; None when trivially unsatisfiable."""
    out = []
    for c in constraints:
        if c is T.false:
            return None
        if c is T.true:
            continue
        out.append(c)
    return tuple(out)


def _lift_ite(f: Term) -> Term:
    """Rewrite a boolean formula containing embedded ``ite`` terms.

    Finds the first non-boolean ``ite`` subterm and splits on its condition:
    ``P[ite(c,a,b)]`` becomes ``ite(c, P[a], P[b])`` with a *boolean* ite,
    which the DPLL loop then splits on.  Boolean-sorted ites never occur
    (the constructors encode them with and/or).
    """
    target = _find_ite(f)
    if target is None:
        return f
    cond = target.args[0]
    then = T.substitute(f, {target: target.args[1]})
    other = T.substitute(f, {target: target.args[2]})
    # Represent as a boolean split the DPLL loop understands.
    return Term(T.ITE, (cond, then, other), None, T.BOOL)


_ITE_FREE: set[int] = set()


def _find_ite(f: Term) -> Optional[Term]:
    if id(f) in _ITE_FREE:
        return None
    stack = list(f.args)
    seen = set()
    while stack:
        t = stack.pop()
        if id(t) in seen or id(t) in _ITE_FREE:
            continue
        seen.add(id(t))
        if t.kind == T.ITE and t.sort is not T.BOOL:
            return t
        stack.extend(t.args)
    _ITE_FREE.add(id(f))
    return None
