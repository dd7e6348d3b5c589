"""Exact rational linear programming: two-phase primal simplex.

Variables are unrestricted in sign by default and split internally.
Bland's pivot rule is used throughout, so every solve terminates and the
result is deterministic for identical input. All outcomes (Optimal,
Unbounded, Infeasible) are returned as values, never raised.

The tableau is held in the integer rows of ``linalg`` (``_Row``, pivoted
by ``_pivot``, the package's one elimination): each row, and the
reduced-cost row, is a list of int numerators over one positive int
denominator, divided by the gcd of all of them after every update; rows
and costs are read from the vectors' ``num``/``den``. Rows are never
rescaled, so the stored values are exactly those of a ``Fraction``
tableau: Bland's rule reads the same signs and, by cross-multiplication,
the same ratios, and takes the same pivots. ``Fraction``s are built only
for the value and the duals, and the duals only when they are read.

A ``Session`` holds one constraint system after phase 1, so callers that
optimize several objectives over the same system (or only need a feasible
point) pay for phase 1 once; ``lp_solve`` is a session with one objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable

from .errors import InternalInvariantError
from .linalg import QVector, _eliminate, _nonzero, _pivot, _Row, qparse

LE, GE, EQ = "<=", ">=", "=="
_RELATIONS = (LE, GE, EQ)


@dataclass(frozen=True)
class Constraint:
    row: QVector
    rel: str
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in _RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True)
class LinearProgram:
    n: int
    objective: QVector
    sense: str = "min"
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if self.objective.dim != self.n:
            raise ValueError("objective length must equal the variable count")
        for c in self.constraints:
            if c.row.dim != self.n:
                raise ValueError("constraint row length must equal the variable count")


@dataclass(frozen=True)
class Optimal:
    value: Fraction
    point: QVector
    # (session, final tableau, final basis, reduced-cost row) of the solve;
    # see Session.minimize, Session.price and lp_solve.
    _final: tuple = field(compare=False, repr=False)

    @cached_property
    def dual(self) -> tuple[Fraction, ...]:
        """Constraint multipliers y with A^T y = objective and y . rhs = value.

        The artificial marker columns hold the row transform, so -reduced
        there is c_B B^{-1} per original row. The split variables force
        A^T y = c, and slack-column optimality gives the signs, also when
        redundant rows were dropped.
        """
        session, _, _, reduced = self._final
        rnum, art0 = reduced.num, session._art0
        return tuple(
            Fraction(rnum[art0 + i] if flip else -rnum[art0 + i], reduced.den)
            for i, flip in enumerate(session._flipped)
        )


@dataclass(frozen=True)
class Unbounded:
    ray: QVector


@dataclass(frozen=True)
class Infeasible:
    pass


LPResult = Optimal | Unbounded | Infeasible


def constraint(row, rel, rhs) -> Constraint:
    """Convenience constructor coercing entries to rationals."""
    return Constraint(QVector(row), rel, qparse(rhs))


def lp_solve(p: LinearProgram) -> LPResult:
    """Solve exactly; deterministic via Bland's rule.

    Optimal carries the attaining point and dual multipliers for the rows
    as given (for 'min': >= rows get dual >= 0, <= rows dual <= 0, == rows
    free; signs flip for 'max'). Unbounded carries a feasible recession
    direction that strictly improves the objective.
    """
    session = Session(p.n, p.constraints)
    if p.sense == "min":
        return session.minimize(p.objective)
    res = session.minimize(-p.objective)
    if isinstance(res, Optimal):
        # The negated reduced row is that of the objective as given: duals flip sign.
        *kept, reduced = res._final
        return Optimal(-res.value, res.point, (*kept, _Row([-e for e in reduced.num], reduced.den)))
    return res


class Session:
    """One constraint system, x free: the tableau is built and phase 1 run once.

    ``rows[i] . x (rel) rhs`` for each ``Constraint``. Every ``minimize``
    runs phase 2 on a copy of the phase-1 tableau and basis, never from an
    earlier optimum, so each result is exactly that of a separate
    ``lp_solve``: phase 1 does not read the objective, and Bland's rule is
    deterministic. The session keeps no per-call state: each ``Optimal``
    carries its final tableau and basis, where ``price`` reads other minima.
    """

    def __init__(self, n: int, constraints: Iterable[Constraint]):
        constraints = tuple(constraints)
        if any(c.row.dim != n for c in constraints):
            raise ValueError("constraint row length must equal the variable count")
        m = len(constraints)
        # Columns: x+ (n), x- (n), one slack/surplus per inequality row, then
        # one artificial per row (kept in the tableau as dual markers).
        nslack = sum(1 for c in constraints if c.rel != EQ)
        ncols = 2 * n + nslack + m
        art0 = 2 * n + nslack
        self.n, self._ncols, self._art0 = n, ncols, art0

        tableau, basis, flipped = [], [], []
        slack_idx = 2 * n
        for i, con in enumerate(constraints):
            den = lcm(con.row.den, con.rhs.denominator)
            a = [e * (den // con.row.den) for e in con.row.num]
            a.append(con.rhs.numerator * (den // con.rhs.denominator))
            rel = con.rel
            # Normalize to a nonnegative right-hand side.
            flip = a[n] < 0
            if flip:
                a = [-e for e in a]
                rel = LE if rel == GE else (GE if rel == LE else EQ)
            num = [0] * (ncols + 1)
            num[:n] = a[:n]
            num[n : 2 * n] = [-e for e in a[:n]]
            if rel != EQ:
                num[slack_idx] = den if rel == LE else -den
                slack_idx += 1
            num[art0 + i] = den
            num[ncols] = a[n]
            tableau.append(_Row(num, den))
            basis.append(slack_idx - 1 if rel == LE else art0 + i)
            flipped.append(flip)
        self._tableau, self._basis, self._flipped = tableau, basis, flipped

        # Phase 1: minimize the sum of artificial variables.
        self.feasible = True
        if any(b >= art0 for b in basis):
            status, reduced = _run(tableau, basis, _Row([0] * art0 + [1] * m + [0], 1), ncols)
            if status != "optimal":
                raise InternalInvariantError("phase 1 cannot be unbounded")
            # The right-hand-side entry of the reduced row is minus the objective.
            self.feasible = not reduced.num[ncols]
            if self.feasible:
                _drive_out_artificials(tableau, basis, art0)

    def feasible_point(self) -> QVector | None:
        """The point phase 1 left, or None when the system is infeasible."""
        if not self.feasible:
            return None
        return _split_vector(self._tableau, self._basis, self.n, self._ncols, 1)

    def minimize(self, objective: QVector) -> LPResult:
        """Minimize objective . x by phase 2 from the phase-1 basis."""
        n, ncols, art0 = self.n, self._ncols, self._art0
        if objective.dim != n:
            raise ValueError("objective length must equal the variable count")
        if not self.feasible:
            return Infeasible()
        tableau = [_Row(list(row.num), row.den) for row in self._tableau]
        basis = list(self._basis)
        # Phase 2: original (split) objective; artificials may not re-enter.
        status, info = _run(tableau, basis, self._cost(objective), art0)
        if status == "unbounded":
            # The entering variable rises by 1, each basic one by minus its entry there.
            return Unbounded(_split_vector(tableau, basis, n, info, -1, info))
        x = _split_vector(tableau, basis, n, ncols, 1)
        # The right-hand-side entry of the reduced row is minus the objective.
        return Optimal(Fraction(-info.num[ncols], info.den), x, (self, tableau, basis, info))

    def price(self, res: Optimal, objective: QVector) -> Fraction | None:
        """``minimize(objective).value`` when ``res``'s final basis is optimal for it, else None.

        Re-pricing at an optimal basis (Chvatal 1983, Linear Programming, ch. 10):
        no reduced cost below the artificial columns may be negative.
        """
        session, tableau, basis, _ = res._final
        if session is not self or objective.dim != self.n:
            raise ValueError("price needs this session's optimum and an objective of length n")
        reduced = _priced(tableau, basis, self._cost(objective))
        if any(e < 0 for e in reduced.num[: self._art0]):
            return None
        return Fraction(-reduced.num[-1], reduced.den)

    def _cost(self, objective: QVector) -> _Row:
        """The objective on the split columns x+ and x-, zero elsewhere."""
        cnum = list(objective.num)
        return _Row(cnum + [-e for e in cnum] + [0] * (self._ncols - 2 * self.n + 1), objective.den)


def _split_vector(tableau, basis, n, col, sign, enter=-1) -> QVector:
    """x+ - x-: basic split variables at ``sign`` times their rows' ``col``, ``enter`` at 1."""
    rows = [(row, b) for row, b in zip(tableau, basis) if b < 2 * n]
    den = lcm(*(row.den for row, _ in rows))
    split = [den * (j == enter) for j in range(2 * n)]
    for row, b in rows:
        split[b] = sign * row.num[col] * (den // row.den)
    return QVector._of([split[j] - split[n + j] for j in range(n)], den)


def _run(tableau, basis, cost, banned_from):
    """Bland-rule simplex iterations for one phase; columns from
    ``banned_from`` on may not enter.

    Returns ("optimal", reduced_cost_row) or ("unbounded", entering_column).
    """
    reduced = _priced(tableau, basis, cost)
    while True:
        enter = -1
        num = reduced.num
        for j in range(banned_from):
            if num[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", reduced
        # Ratio test on rhs / a, compared by cross-multiplication (a > 0, the
        # row denominators cancel); ties broken by smallest basic variable
        # index (Bland).
        leave = -1
        best_r = best_a = 0
        for i, row in enumerate(tableau):
            a = row.num[enter]
            if a > 0:
                r = row.num[-1]
                if leave < 0:
                    leave, best_r, best_a = i, r, a
                    continue
                lhs, rhs = r * best_a, best_r * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_r, best_a = i, r, a
        if leave < 0:
            return "unbounded", enter
        _pivot(tableau, reduced, leave, enter)
        basis[leave] = enter


def _priced(tableau, basis, cost) -> _Row:
    """The reduced-cost row of ``cost``: the basic columns priced out (each holds 1 in its row)."""
    reduced = _Row(list(cost.num), cost.den)
    for row, b in zip(tableau, basis):
        if reduced.num[b]:
            _eliminate(reduced, row, b, _nonzero(row))
    return reduced


def _drive_out_artificials(tableau, basis, art0):
    """Pivot basic artificials out after phase 1; drop redundant rows."""
    i = 0
    while i < len(tableau):
        if basis[i] >= art0:
            num = tableau[i].num
            pivot_col = -1
            for j in range(art0):
                if num[j]:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, None, i, pivot_col)
                basis[i] = pivot_col
            else:
                del tableau[i]
                del basis[i]
                continue
        i += 1
