"""Exact rational linear programming: Bland-rule dual simplex phase 1, primal phase 2.

Variables are unrestricted in sign. Each one has a single tableau column,
a free column: it enters the basis at most once and never leaves
(Maros 2003, Computational Techniques of the Simplex Method, ch. 9).
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

Each ``>=`` row is negated, so every row reads a . x + u = b with its own
unit column u at coefficient +1: a slack u >= 0 for a ``<=``/``>=`` row,
a marker fixed at 0 for a ``==`` row. The unit columns hold B^-1. Each
``==`` row first pivots in its first free column with a nonzero entry,
which brings the ``==`` rows to reduced echelon form, the presolve of
Andersen & Andersen 1995 (Presolving in linear programming, Math.
Programming 71); a ``==`` row left with none reads 0 = u . e and is kept
aside as a check of the right-hand side. The basis is then dual feasible
for the zero objective, so phase 1 is a Bland-rule dual simplex
(Chvatal 1983, Linear Programming, ch. 10; finite by Bland 1977, New
finite pivoting rules for the simplex method); no artificial column is
needed. A ``Session`` holds one constraint system after phase 1, so
callers that optimize several objectives over the same system (or only
need a feasible point) pay for phase 1 once; ``lp_solve`` is a session
with one objective. ``Session.resolve`` answers the same rows at new
right-hand sides, given as one ``QVector``, by the same dual simplex: the
new right-hand side column is B^-1 b', and with zero costs every basis
is dual feasible, so it starts from the basis of any session, an
infeasible one included. An infeasible session keeps its tableau, its
basis and a Farkas vector, which refutes a later right-hand side with
one dot product. ``Warm`` keeps the latest states for a caller that
solves one system at many right-hand sides: a trial passes only its
right-hand sides, and the rows are built once, for the one cold session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable

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
    # The state of the solve, read by Session.minimize, price, resolve and
    # the duals: (session, final tableau, final basis, reduced-cost row).
    _final: tuple = field(compare=False, repr=False)

    @cached_property
    def dual(self) -> tuple[Fraction, ...]:
        """Constraint multipliers y with A^T y = objective and y . rhs = value."""
        return self._final[0]._dual(self._final[3])


@dataclass(frozen=True)
class Unbounded:
    ray: QVector


@dataclass(frozen=True)
class Infeasible:
    # The session's Farkas vector y, a QVector over the rows as given.
    _proof: QVector | None = field(default=None, compare=False, repr=False)

    @cached_property
    def farkas(self) -> tuple[Fraction, ...]:
        """Constraint multipliers y of the rows as given that prove infeasibility.

        y^T A = 0, y >= 0 on >= rows, y <= 0 on <= rows (== rows free) and
        y . rhs > 0: any x would give 0 = y^T A x >= y . rhs > 0.
        """
        return self._proof.entries


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
    return session._negated(res) if isinstance(res, Optimal) else res


class Session:
    """One constraint system, x free: the tableau is built and phase 1 run once.

    ``rows[i] . x (rel) rhs`` for each ``Constraint``. Every ``minimize``
    runs phase 2 on a copy of the phase-1 tableau and basis, never from an
    earlier optimum (unless given one as ``start``), so each result is
    exactly that of a separate ``lp_solve``: phase 1 does not read the
    objective, and Bland's rule is deterministic. The session keeps no
    per-call state: each ``Optimal`` carries its final tableau and basis,
    where ``price`` reads other minima and ``resolve`` starts.

    Columns: x (n free columns), one unit column per row (the row's slack
    or, for a ``==`` row, its marker), then the right-hand side. Points
    are read off the rows whose basic variable is free; duals, Farkas
    vectors and B^-1 off the unit columns. Markers never enter, and rows
    whose basic variable is free never leave. A ``==`` row that pivots in
    no free column is kept aside (``_aside``): its unit part u has
    u^T E = 0, so the system is infeasible by u exactly when u . e != 0.

    An infeasible session keeps its tableau and basis, where ``resolve``
    starts as from a feasible one, and a Farkas vector of the rows as
    given. ``dual_pivots`` counts the pivots the dual simplex made to
    reach its verdict: phase 1's in a cold session, ``resolve``'s in a
    re-solved one.
    """

    def __init__(self, n: int, constraints: Iterable[Constraint]):
        constraints = tuple(constraints)
        if any(c.row.dim != n for c in constraints):
            raise ValueError("constraint row length must equal the variable count")
        m = len(constraints)
        ncols = n + m
        self.n, self._ncols = n, ncols
        self._flipped = [c.rel == GE for c in constraints]
        self._slacks = [n + i for i, c in enumerate(constraints) if c.rel != EQ]
        tableau = []
        for i, (con, flip) in enumerate(zip(constraints, self._flipped)):
            den = lcm(con.row.den, con.rhs.denominator)
            sign = -1 if flip else 1
            num = [sign * e * (den // con.row.den) for e in con.row.num]
            num += [0] * m
            num.append(sign * con.rhs.numerator * (den // con.rhs.denominator))
            num[n + i] = den
            tableau.append(_Row(num, den))
        basis = list(range(n, ncols))
        for i, con in enumerate(constraints):
            if con.rel == EQ:
                num = tableau[i].num
                enter = next((j for j in range(n) if num[j]), -1)
                if enter >= 0:
                    _pivot(tableau, None, i, enter)
                basis[i] = enter
        # A == row with no free column to pivot in (basis -1) is kept aside.
        kept = [row for row, b in zip(tableau, basis) if b >= 0]
        aside = [row for row, b in zip(tableau, basis) if b < 0]
        zero = _Row([0] * (ncols + 1), 1)
        basis = [b for b in basis if b >= 0]
        self._settle(kept, basis, zero, aside, lambda: QVector([c.rhs for c in constraints]))

    def _settle(self, tableau, basis, reduced, aside, rhs: Callable[[], QVector]) -> Session:
        """Check the rows kept ``aside``, run the dual simplex from ``basis`` and keep the outcome.

        ``basis`` is dual feasible for ``reduced``: phase 1 starts with
        zero costs, ``resolve`` at a kept basis. A row kept aside reads
        u^T A' x + u^T s = u . b' with u^T A' = 0 and u on the markers:
        w = u or -u, whichever has w . b' > 0, is a Farkas vector. A row the
        dual simplex cannot pivot on reads u^T A' x + u^T s = u . b' < 0
        with no free entry and no negative slack entry: u^T A' = 0, so
        w = -u is a Farkas vector of the rows A' x (rel) b' as stored. Both
        are checked here against ``rhs()``, the right-hand sides as given,
        which is built only for that check. The tableau and basis are kept
        either way.
        """
        self._aside, self.dual_pivots = aside, 0
        row = next((row for row in aside if row.num[-1]), None)
        if row is not None:
            sign = 1 if row.num[-1] > 0 else -1
        else:
            leave, self.dual_pivots = _dual_run(tableau, basis, reduced, self.n, self._slacks)
            row, sign = (tableau[leave] if leave >= 0 else None), -1
        self.feasible = row is None
        self._tableau, self._basis, self._farkas = tableau, basis, None
        if not self.feasible:
            # y over the rows as given: undoing a row's flip negates its multiplier.
            u = row.num[self.n : self._ncols]
            y = [-sign * e if flip else sign * e for e, flip in zip(u, self._flipped)]
            self._farkas = QVector._of(y, row.den)
            if not self.refutes(rhs()):
                raise InternalInvariantError("a Farkas vector w of the rows has w . b <= 0")
        return self

    def feasible_point(self) -> QVector | None:
        """The point phase 1 (or ``resolve``) left, or None when the system is infeasible."""
        if not self.feasible:
            return None
        return _vector(self._tableau, self._basis, self.n, self._ncols, 1)

    def minimize(self, objective: QVector, start: Optimal | None = None) -> LPResult:
        """Minimize objective . x by phase 2 from the phase-1 basis, or from ``start``'s.

        ``start`` is an optimum of this session; its final basis is primal
        feasible, so phase 2 may start there. The value is the same from
        either basis; the point may differ where the minimum is not unique.
        """
        n = self.n
        if objective.dim != n:
            raise ValueError("objective length must equal the variable count")
        if not self.feasible:
            return Infeasible(self._farkas)
        ncols = self._ncols
        source, basis, _ = self._start(start)
        tableau = [_Row(list(row.num), row.den) for row in source]
        basis = list(basis)
        status, info = _run(tableau, basis, self._cost(objective), n, self._slacks)
        if status == "unbounded":
            # The entering variable moves by ``sign``, each basic one by minus sign times its entry.
            enter, sign = info
            return Unbounded(_vector(tableau, basis, n, enter, -sign, enter))
        x = _vector(tableau, basis, n, ncols, 1)
        # The right-hand-side entry of the reduced row is minus the objective.
        return Optimal(Fraction(-info.num[ncols], info.den), x, (self, tableau, basis, info))

    def price(self, res: Optimal, objective: QVector) -> Fraction | None:
        """``minimize(objective).value`` when ``res``'s final basis is optimal for it, else None.

        Re-pricing at an optimal basis (Chvatal 1983, Linear Programming, ch. 10):
        no free column may have a nonzero reduced cost, and no slack a negative one.
        """
        _, tableau, basis, _ = self._own(res)
        if objective.dim != self.n:
            raise ValueError("objective length must equal the variable count")
        reduced = _priced(tableau, basis, self._cost(objective))
        num = reduced.num
        if any(num[: self.n]) or any(num[j] < 0 for j in self._slacks):
            return None
        return Fraction(-num[-1], reduced.den)

    def refutes(self, rhs: QVector) -> bool:
        """Whether this session's Farkas vector y proves the rows infeasible at ``rhs`` too.

        ``rhs`` holds one right-hand side per constraint, in the order
        given. y^T A = 0 and the signs of y do not read the right-hand
        side, so y . rhs > 0 is enough: one dot product of int numerators
        (both denominators are positive).
        """
        if rhs.dim != len(self._flipped):
            raise ValueError("refutes needs one right-hand side per constraint")
        if self.feasible:
            return False
        return sum(map(mul, self._farkas.num, rhs.num)) > 0

    def resolve(self, rhs: QVector, start: Optimal | None = None) -> Session:
        """This system's rows at the right-hand sides ``rhs``, from a kept basis.

        ``rhs`` holds one right-hand side per constraint, in the order
        given. Verdicts and optimal values equal those of a cold
        ``Session(n, rows with rhs)``; points may differ where they are not
        unique. The new right-hand side column is B^-1 b', read off the
        unit columns with this session's flips, in the tableau and in the
        rows kept aside. Then phase 1's check and dual simplex
        (``_settle``) run from ``start``'s basis (an optimum of this
        session, kept optimal for its objective) or from this session's
        with zero costs, at which every basis is dual feasible: this
        session may be infeasible.
        """
        if rhs.dim != len(self._flipped):
            raise ValueError("resolve needs one right-hand side per constraint")
        b = [-e if flip else e for e, flip in zip(rhs.num, self._flipped)]
        den, s0, ncols = rhs.den, self.n, self._ncols

        def moved(row: _Row) -> _Row:
            num, rden = row.num, row.den
            v = sum(map(mul, num[s0:ncols], b))
            num = num[:ncols] if den == 1 else [e * den for e in num[:ncols]]
            num.append(v)
            rden *= den
            g = gcd(rden, *num)
            return _Row(num if g == 1 else [e // g for e in num], rden // g)

        source, basis, reduced = self._start(start)
        reduced = _Row([0] * (ncols + 1), 1) if reduced is None else _Row(list(reduced.num), reduced.den)
        new = object.__new__(Session)
        new.n, new._ncols, new._flipped, new._slacks = self.n, ncols, self._flipped, self._slacks
        tableau, aside = [moved(row) for row in source], [moved(row) for row in self._aside]
        return new._settle(tableau, list(basis), reduced, aside, lambda: rhs)

    def _own(self, res: Optimal) -> tuple:
        """The final state of ``res``, which must be an optimum of this session."""
        if res._final[0] is not self:
            raise ValueError("the start must be an optimum of this session")
        return res._final

    def _start(self, start: Optimal | None) -> tuple:
        """(tableau, basis, reduced row) of ``start``, an optimum of this session, or (this session's, None)."""
        if start is None:
            return self._tableau, self._basis, None
        return self._own(start)[1:]

    def _dual(self, reduced: _Row) -> tuple[Fraction, ...]:
        """The duals of the optimum with reduced-cost row ``reduced``.

        The unit columns hold B^-1 and cost 0, so -reduced there is
        c_B B^-1 per stored row. Every free column has reduced cost 0,
        which is A^T y = c, and slack-column optimality gives the signs.
        """
        rnum, s0, den = reduced.num, self.n, reduced.den
        return tuple(
            Fraction(rnum[s0 + i] if flip else -rnum[s0 + i], den)
            for i, flip in enumerate(self._flipped)
        )

    def _negated(self, res: Optimal) -> Optimal:
        """``res`` read as the maximum of the negated objective: its value and duals negate."""
        *kept, reduced = res._final
        return Optimal(-res.value, res.point, (*kept, _Row([-e for e in reduced.num], reduced.den)))

    def _cost(self, objective: QVector) -> _Row:
        """The objective on the free columns, zero elsewhere."""
        return _Row(list(objective.num) + [0] * (self._ncols - self.n + 1), objective.den)


class Warm:
    """The latest states of one constraint matrix across right-hand sides.

    ``session`` takes a trial's right-hand sides only, and the cheapest
    exact route: the latest Farkas vector when it refutes them, else
    ``resolve`` from ``start``, else from the latest infeasible session
    (``refuter``, whose basis is as good a start with zero costs), else a
    cold ``Session`` of the rows that ``constraints()`` builds; a fresh
    ``Warm`` builds exactly the cold session, and later trials build
    none. The caller sets ``start``: a feasible session, or an optimum of
    one (kept dual feasible for its objective), and ``certified`` when
    that basis is optimal for every objective it reads there.
    """

    __slots__ = ("start", "certified", "refuter")

    def __init__(self):
        self.start: Session | Optimal | None = None
        self.certified = False
        self.refuter: Session | None = None

    def session(self, n: int, rhs: QVector, constraints: Callable[[], Iterable[Constraint]]) -> Session:
        """The system at ``rhs``; ``constraints()`` gives its rows with ``rhs``, for a cold session."""
        refuter = self.refuter
        if refuter is not None and refuter.refutes(rhs):
            return refuter
        start = self.start if self.start is not None else refuter
        if start is None:
            session = Session(n, constraints())
        elif isinstance(start, Optimal):
            session = start._final[0].resolve(rhs, start)
        else:
            session = start.resolve(rhs)
        if not session.feasible:
            self.refuter = session
        return session


def _vector(tableau, basis, n, col, sign, enter=-1) -> QVector:
    """x: basic free variables at ``sign`` times their rows' ``col``, ``enter`` at -``sign``."""
    rows = [(row, b) for row, b in zip(tableau, basis) if b < n]
    # A list, not a generator: a tuple built from a generator is resized,
    # which moves freed tuples between CPython's per-size free lists and
    # grows the heap over many calls.
    den = lcm(*[row.den for row, _ in rows])
    x = [-sign * den * (j == enter) for j in range(n)]
    for row, b in rows:
        x[b] = sign * row.num[col] * (den // row.den)
    return QVector._of(x, den)


def _run(tableau, basis, cost, n, slacks):
    """Bland-rule primal simplex iterations from a primal feasible basis.

    Entering: the smallest column that improves, a free one (the first n)
    with a nonzero reduced cost, moving against its sign, or a slack with
    a negative one; markers never enter. Returns ("optimal",
    reduced_cost_row) or ("unbounded", (entering_column, sign)).
    """
    reduced = _priced(tableau, basis, cost)
    while True:
        num = reduced.num
        enter = -1
        for j in range(n):
            if num[j]:
                enter = j
                break
        else:
            for j in slacks:
                if num[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return "optimal", reduced
        sign = 1 if num[enter] < 0 else -1
        # Ratio test on rhs / (sign a) over the rows whose basic variable is
        # a slack, compared by cross-multiplication (sign a > 0, the row
        # denominators cancel); ties broken by smallest basic variable
        # index (Bland).
        leave = -1
        best_r = best_a = 0
        for i, row in enumerate(tableau):
            a = sign * row.num[enter]
            if a > 0 and basis[i] >= n:
                r = row.num[-1]
                if leave < 0:
                    leave, best_r, best_a = i, r, a
                    continue
                lhs, rhs = r * best_a, best_r * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_r, best_a = i, r, a
        if leave < 0:
            return "unbounded", (enter, sign)
        _pivot(tableau, reduced, leave, enter)
        basis[leave] = enter


def _dual_run(tableau, basis, reduced, n, slacks) -> tuple[int, int]:
    """Bland-rule dual simplex from a basis dual feasible for ``reduced``.

    Leaving: the negative row with the smallest basic variable, a slack.
    Entering: the first free column (the first n) with a nonzero entry
    there, at ratio 0, as every free column has reduced cost 0; else the
    least reduced / -entry over the slacks' negative entries, ties to the
    smallest column. Returns (-1, pivots) once primal feasible, or (row,
    pivots) for a negative row with neither, which proves infeasibility.
    """
    pivots = 0
    while True:
        leave = -1
        for i, row in enumerate(tableau):
            if row.num[-1] < 0 and basis[i] >= n and (leave < 0 or basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            return -1, pivots
        num, rnum = tableau[leave].num, reduced.num
        enter = -1
        for j in range(n):
            if num[j]:
                enter = j
                break
        else:
            best_r = best_a = 0
            for j in slacks:
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
