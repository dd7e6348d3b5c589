"""Exact rational linear programming: two-phase primal simplex, dual simplex re-solves.

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
for the value, and for the duals and Farkas vectors when they are read.

A ``Session`` holds one constraint system after phase 1, so callers that
optimize several objectives over the same system (or only need a feasible
point) pay for phase 1 once; ``lp_solve`` is a session with one objective.
``Session.resolve`` answers the same rows at new right-hand sides without
phase 1: the artificial marker columns hold B^-1, so the new right-hand
side column is B^-1 b', and a Bland-rule dual simplex (Chvatal 1983,
Linear Programming, ch. 10) restores primal feasibility while the basis
stays dual feasible. An infeasible session keeps a Farkas vector, which
refutes a later right-hand side with one dot product; ``Warm`` keeps the
latest basis and Farkas vector for a caller that solves one system at
many right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

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
    # (the session's row flips, multipliers w of its rows as flipped).
    _proof: tuple = field(default=(), compare=False, repr=False)

    @cached_property
    def farkas(self) -> tuple[Fraction, ...]:
        """Constraint multipliers y of the rows as given that prove infeasibility.

        y^T A = 0, y >= 0 on >= rows, y <= 0 on <= rows (== rows free) and
        y . rhs > 0: any x would give 0 = y^T A x >= y . rhs > 0. Undoing a
        row's flip negates its multiplier.
        """
        flipped, w = self._proof
        return tuple(Fraction(-e if flip else e, w.den) for e, flip in zip(w.num, flipped))


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
    earlier optimum (unless given one as ``start``), so each result is
    exactly that of a separate ``lp_solve``: phase 1 does not read the
    objective, and Bland's rule is deterministic. The session keeps no
    per-call state: each ``Optimal`` carries its final tableau and basis,
    where ``price`` reads other minima and ``resolve`` starts.

    A feasible session keeps the rows that phase 1 dropped as redundant
    (their artificial columns hold w with w^T A = 0, so a new right-hand
    side b' needs w . b' = 0); an infeasible one keeps a Farkas vector.
    ``dual_pivots`` counts the pivots ``resolve`` made to reach it.
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
        self._dropped, self._farkas, self.dual_pivots = [], None, 0

        # Phase 1: minimize the sum of artificial variables.
        self.feasible = True
        if any(b >= art0 for b in basis):
            status, reduced = _run(tableau, basis, _Row([0] * art0 + [1] * m + [0], 1), ncols)
            if status != "optimal":
                raise InternalInvariantError("phase 1 cannot be unbounded")
            # The right-hand-side entry of the reduced row is minus the objective.
            self.feasible = not reduced.num[ncols]
            if self.feasible:
                self._dropped = _drive_out_artificials(tableau, basis, art0)
            else:
                # The artificial columns cost 1, so their reduced costs are
                # 1 - w with w = c_B B^-1, the phase-1 duals: w^T A <= 0 on the
                # structural columns, and w . b is the positive optimum.
                rnum, rden = reduced.num, reduced.den
                self._farkas = _Row([rden - e for e in rnum[art0:ncols]], rden)
                self._tableau = self._basis = None

    def feasible_point(self) -> QVector | None:
        """The point phase 1 (or ``resolve``) left, or None when the system is infeasible."""
        if not self.feasible:
            return None
        return _split_vector(self._tableau, self._basis, self.n, self._ncols, 1)

    def minimize(self, objective: QVector, start: Optimal | None = None) -> LPResult:
        """Minimize objective . x by phase 2 from the phase-1 basis, or from ``start``'s.

        ``start`` is an optimum of this session; its final basis is primal
        feasible, so phase 2 may start there. The value is the same from
        either basis; the point may differ where the minimum is not unique.
        """
        n, ncols, art0 = self.n, self._ncols, self._art0
        if objective.dim != n:
            raise ValueError("objective length must equal the variable count")
        if not self.feasible:
            return Infeasible((self._flipped, self._farkas))
        source, basis, _ = self._start(start)
        tableau = [_Row(list(row.num), row.den) for row in source]
        basis = list(basis)
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
        tableau, basis, _ = self._start(res)
        if objective.dim != self.n:
            raise ValueError("objective length must equal the variable count")
        reduced = _priced(tableau, basis, self._cost(objective))
        if any(e < 0 for e in reduced.num[: self._art0]):
            return None
        return Fraction(-reduced.num[-1], reduced.den)

    def refutes(self, rhs) -> bool:
        """Whether this session's Farkas vector w proves the rows infeasible at ``rhs`` too.

        w^T A <= 0 does not read the right-hand side, so w . rhs > 0 is enough.
        """
        if self.feasible:
            return False
        return sum(map(mul, self._farkas.num, self._flipped_rhs(rhs)[0])) > 0

    def resolve(self, rhs, start: Optimal | None = None) -> Session:
        """This feasible system's rows at the right-hand sides ``rhs``, without phase 1.

        Verdicts and optimal values equal those of a cold
        ``Session(n, rows with rhs)``; points may differ where they are not
        unique. The new right-hand side column is B^-1 b', read off the
        artificial columns with this session's flips, and b' is checked
        against the dropped rows. Then a Bland-rule dual simplex runs from
        ``start``'s basis (an optimum of this session, kept optimal for its
        objective) or from this session's (with zero costs). An infeasible
        result carries the Farkas vector of the row the dual simplex cannot
        pivot on, or of the violated dropped row.
        """
        rhs = tuple(rhs)
        if not self.feasible or len(rhs) != len(self._flipped):
            raise ValueError("resolve needs a feasible session and one right-hand side per constraint")
        b, den = self._flipped_rhs(rhs)
        art0, ncols = self._art0, self._ncols
        for row in self._dropped:
            s = sum(map(mul, row.num[art0:ncols], b))
            if s:
                return self._derived(farkas=_Row([e if s > 0 else -e for e in row.num[art0:ncols]], row.den))
        source, basis, reduced = self._start(start)
        tableau = []
        for row in source:
            num, rden = row.num, row.den
            v = sum(map(mul, num[art0:ncols], b))
            num = num[:ncols] if den == 1 else [e * den for e in num[:ncols]]
            num.append(v)
            rden *= den
            g = gcd(rden, *num)
            tableau.append(_Row(num if g == 1 else [e // g for e in num], rden // g))
        basis = list(basis)
        reduced = _Row([0] * (ncols + 1), 1) if reduced is None else _Row(list(reduced.num), reduced.den)
        leave, pivots = _dual_run(tableau, basis, reduced, art0)
        if leave >= 0:
            # Row leave reads -w^T A >= 0 on the structural columns and -w . b < 0.
            row = tableau[leave]
            return self._derived(farkas=_Row([-e for e in row.num[art0:ncols]], row.den), pivots=pivots)
        return self._derived(tableau, basis, pivots=pivots)

    def _start(self, start: Optimal | None) -> tuple:
        """(tableau, basis, reduced row) of ``start``, an optimum of this session, or (this session's, None)."""
        if start is None:
            return self._tableau, self._basis, None
        session, tableau, basis, reduced = start._final
        if session is not self:
            raise ValueError("the start must be an optimum of this session")
        return tableau, basis, reduced

    def _derived(self, tableau=None, basis=None, farkas=None, pivots=0) -> Session:
        """A session on this one's rows and flips: at ``tableau`` and ``basis``, or infeasible by ``farkas``."""
        new = object.__new__(Session)
        new.n, new._ncols, new._art0 = self.n, self._ncols, self._art0
        new._flipped, new._dropped = self._flipped, self._dropped
        new._tableau, new._basis, new._farkas = tableau, basis, farkas
        new.feasible, new.dual_pivots = farkas is None, pivots
        return new

    def _flipped_rhs(self, rhs) -> tuple[list[int], int]:
        """``rhs`` as int numerators over their least common denominator, with this session's flips."""
        # A list, not a generator: a tuple built from a generator is resized,
        # which moves freed tuples between CPython's per-size free lists and
        # grows the heap over many calls.
        den = lcm(*[v.denominator for v in rhs])
        return [
            (-v.numerator if flip else v.numerator) * (den // v.denominator)
            for v, flip in zip(rhs, self._flipped)
        ], den

    def _cost(self, objective: QVector) -> _Row:
        """The objective on the split columns x+ and x-, zero elsewhere."""
        cnum = list(objective.num)
        return _Row(cnum + [-e for e in cnum] + [0] * (self._ncols - 2 * self.n + 1), objective.den)


class Warm:
    """The latest states of one constraint matrix across right-hand sides.

    ``session`` takes the cheapest exact route: the latest Farkas vector
    when it refutes the new right-hand sides, else ``resolve`` from
    ``start``, else a cold ``Session``; a fresh ``Warm`` builds exactly the
    cold session. The caller sets ``start``: a feasible session, or an
    optimum of one (kept dual feasible for its objective), and
    ``certified`` when that basis is optimal for every objective it reads
    there.
    """

    __slots__ = ("start", "certified", "refuter")

    def __init__(self):
        self.start: Session | Optimal | None = None
        self.certified = False
        self.refuter: Session | None = None

    def session(self, n: int, constraints: Sequence[Constraint]) -> Session:
        rhs = [c.rhs for c in constraints]
        if self.refuter is not None and self.refuter.refutes(rhs):
            return self.refuter
        start = self.start
        if start is None:
            session = Session(n, constraints)
        elif isinstance(start, Optimal):
            session = start._final[0].resolve(rhs, start)
        else:
            session = start.resolve(rhs)
        if not session.feasible:
            self.refuter = session
        return session


def _split_vector(tableau, basis, n, col, sign, enter=-1) -> QVector:
    """x+ - x-: basic split variables at ``sign`` times their rows' ``col``, ``enter`` at 1."""
    rows = [(row, b) for row, b in zip(tableau, basis) if b < 2 * n]
    den = lcm(*[row.den for row, _ in rows])  # a list: see Session._flipped_rhs
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


def _dual_run(tableau, basis, reduced, banned_from) -> tuple[int, int]:
    """Bland-rule dual simplex from a basis dual feasible for ``reduced``.

    Leaving: the negative row with the smallest basic variable. Entering,
    before ``banned_from``: the least reduced / -entry over the row's
    negative entries, ties to the smallest column. Returns (-1, pivots)
    once primal feasible, or (row, pivots) for a negative row with no
    negative entry, which proves infeasibility.
    """
    pivots = 0
    while True:
        leave = -1
        for i, row in enumerate(tableau):
            if row.num[-1] < 0 and (leave < 0 or basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            return -1, pivots
        num, rnum = tableau[leave].num, reduced.num
        enter = -1
        best_r = best_a = 0
        for j in range(banned_from):
            a = num[j]
            if a < 0 and (enter < 0 or rnum[j] * best_a < best_r * -a):
                enter, best_r, best_a = j, rnum[j], -a
        if enter < 0:
            return leave, pivots
        _pivot(tableau, reduced, leave, enter)
        basis[leave] = enter
        pivots += 1


def _priced(tableau, basis, cost) -> _Row:
    """The reduced-cost row of ``cost``: the basic columns priced out (each holds 1 in its row)."""
    reduced = _Row(list(cost.num), cost.den)
    for row, b in zip(tableau, basis):
        if reduced.num[b]:
            _eliminate(reduced, row, b, _nonzero(row))
    return reduced


def _drive_out_artificials(tableau, basis, art0) -> list[_Row]:
    """Pivot basic artificials out after phase 1; drop redundant rows and return them."""
    dropped = []
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
                dropped.append(tableau.pop(i))
                del basis[i]
                continue
        i += 1
    return dropped
