"""Isomorphism-grouped model enumeration (the core of TESTGEN, §5.2).

A path condition can have infinitely many satisfying assignments — e.g.
infinitely many fd numbers that return EBADF — so TESTGEN "partitions most
values in isomorphism groups and considers two assignments equivalent if
each group has the same pattern of equal and distinct values in both
assignments."

:func:`enumerate_models` yields one model per distinct pattern: after each
model, the observed pattern (which group members are equal, which distinct,
and for pinned anchors, equal-to-which-constant) is negated and added as a
blocking constraint until the condition is exhausted.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.symbolic import terms as T
from repro.symbolic.solver import Model, Solver
from repro.symbolic.terms import Term


class IsomorphismGroups:
    """Named groups of terms whose equality pattern defines test identity."""

    def __init__(self):
        self._groups: list[tuple[str, list[Term]]] = []

    def add(self, name: str, members: Iterable[Term]) -> None:
        unique: list[Term] = []
        for m in members:
            if m not in unique:
                unique.append(m)
        if len(unique) > 1:
            self._groups.append((name, unique))

    def names(self) -> list[str]:
        return [name for name, _ in self._groups]

    def all_pairs(self) -> list[tuple[Term, Term]]:
        pairs = []
        for _, members in self._groups:
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    if a.sort is b.sort:
                        pairs.append((a, b))
        return pairs

    def free_pairs(
        self, solver: Solver, constraints: list[Term], cap: int = 12
    ) -> list[tuple[Term, Term]]:
        """Pairs whose equality the constraints leave open.

        Only these pairs can distinguish isomorphism patterns; pairs already
        decided by the path condition would bloat blocking clauses without
        ever changing the pattern.

        The constraints are asserted once in a fresh solver scope, and each
        probe adds only its one equality literal on top
        (:meth:`Solver.check_asserted`), so the shared condition is
        canonicalized and absorbed once rather than once per probe.  The
        scope sits on top of whatever ``solver`` already asserts (TESTGEN's
        solver asserts nothing) and is popped before returning.
        """
        free = []
        solver.push()
        try:
            for c in constraints:
                solver.assert_term(c)
            for a, b in self.all_pairs():
                equal = T.eq(a, b)
                if not solver.check_asserted((equal,)):
                    continue
                if not solver.check_asserted((T.not_(equal),)):
                    continue
                free.append((a, b))
                if len(free) >= cap:
                    break
        finally:
            solver.pop()
        return free

    def pattern_constraint(
        self, model: Model, pairs: Optional[list] = None
    ) -> Term:
        """The formula pinning the model's equal/distinct pattern."""
        parts: list[Term] = []
        for a, b in self.all_pairs() if pairs is None else pairs:
            if model.eval(a) == model.eval(b):
                parts.append(T.eq(a, b))
            else:
                parts.append(T.ne(a, b))
        return T.and_(*parts)

    def pattern_key(self, model: Model) -> tuple:
        """A hashable fingerprint of the model's pattern (for dedup)."""
        key = []
        for name, members in self._groups:
            values = [model.eval(m) for m in members]
            canon: dict = {}
            shape = []
            for v in values:
                rep = canon.setdefault(_freeze(v), len(canon))
                shape.append(rep)
            key.append((name, tuple(shape)))
        return tuple(key)

    def __len__(self) -> int:
        return len(self._groups)


def _freeze(v):
    return repr(v)


def enumerate_models(
    solver: Solver,
    constraints: Iterable[Term],
    groups: IsomorphismGroups,
    limit: int = 64,
) -> Iterator[Model]:
    """Yield models with pairwise-distinct isomorphism patterns.

    Stops when no new pattern satisfies the constraints or ``limit`` models
    have been produced (the original TESTGEN similarly stops when the SMT
    solver fails; our solver is complete on this fragment, so the limit is a
    cost guard, not a correctness hedge).
    """
    blocked: list[Term] = list(constraints)
    produced = 0
    seen: set = set()
    free_pairs: Optional[list] = None
    while produced < limit:
        model = solver.model(blocked)
        if model is None:
            return
        key = groups.pattern_key(model)
        if key in seen:
            # The blocking constraint should prevent this; guard against a
            # degenerate group set (e.g. no groups at all).
            return
        seen.add(key)
        yield model
        produced += 1
        if len(groups) == 0 or produced >= limit:
            return  # no further model is wanted: skip the probing
        if free_pairs is None:
            free_pairs = groups.free_pairs(solver, blocked)
            if not free_pairs:
                return  # the condition admits exactly one pattern
        blocked.append(
            T.not_(groups.pattern_constraint(model, free_pairs))
        )
