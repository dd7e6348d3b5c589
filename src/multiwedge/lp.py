"""Exact rational linear programming: Bland-rule dual simplex phase 1, primal phase 2.

A ``Session`` solves one system of ``>=`` rows, rows[i] . x >= rhs[i].
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

Each row is stored negated, -a . x + s = -b, with its own slack s >= 0
at coefficient +1. The slack columns hold B^-1, and the duals and Farkas
vectors are their entries as they stand, each >= 0. At the all-slack
basis the zero objective is dual feasible, so phase 1 is a Bland-rule
dual simplex (Chvatal 1983, Linear Programming, ch. 10; finite by Bland
1977, New finite pivoting rules for the simplex method); no artificial
column is needed. A ``Session`` is one system and one basis of it:
phase 1 runs once, at build, and each ``minimize`` moves the basis to its
objective's optimum, so callers that optimize several objectives over the
same system (or only need a feasible point) pay for phase 1 once, and an
objective already optimal at the basis costs no pivot. An infeasible
session keeps a ``Farkas`` vector of its rows.

``Warm`` serves a caller that solves one system at many right-hand sides
b, as a search does. It is built once with the rows, per row b as a
linear map of parameters theta (the apexes, or the xs and ys), which
``Warm.rhs`` evaluates, and the objectives; a trial passes only b and
gets whether the rows hold and a point minimizing every objective, if
one exists. Neither a Farkas vector nor a basis's reduced costs and
duals read b, so the answer at b depends only on which critical regions
b falls in (multiparametric LP: Gal and Nedoma 1972, Multiparametric
linear programming, Management Science 18). ``Warm`` keeps what its
sessions proved, and decides most trials by dot products of ints; only
the others build a session, cold.

``lp_solve`` takes the public ``LinearProgram``, whose rows may also be
``<=`` or ``==``. It writes a ``<=`` row as -a . x >= -b and a ``==``
row as the pair a . x >= b, -a . x >= -b, and solves them in one session
with one objective. The multiplier of a row as given is the signed sum
of the multipliers of its ``>=`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Sequence

from .errors import InternalInvariantError
from .linalg import QVector, _dots, _eliminate, _nonzero, _pivot, _Row, qparse

LE, GE, EQ = "<=", ">=", "=="
# The signs s with which a row a . x (rel) b is written as s a . x >= s b.
_SIGNS = {GE: (1,), LE: (-1,), EQ: (1, -1)}


@dataclass(frozen=True)
class Constraint:
    row: QVector
    rel: str
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in _SIGNS:
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
    # The reduced-cost row at the optimum, which the duals are read from.
    _reduced: _Row = field(compare=False, repr=False)

    @cached_property
    def dual(self) -> tuple[Fraction, ...]:
        """Constraint multipliers y with A^T y = objective and y . rhs = value.

        The slack columns cost 0 and hold B^-1, so their reduced costs
        are -c_B B^-1, minus the multipliers of the negated rows, which is
        y. Every free column has reduced cost 0, which is A^T y = c, and
        slack-column optimality gives y >= 0.
        """
        reduced = self._reduced
        return tuple([Fraction(e, reduced.den) for e in reduced.num[self.point.dim : -1]])


@dataclass(frozen=True)
class Unbounded:
    ray: QVector


@dataclass(frozen=True)
class Infeasible:
    # The Farkas vector y, a QVector over the rows as given.
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
    rows, rhs, signs = _ge_rows(p.constraints)
    sense = 1 if p.sense == "min" else -1
    res = Session(p.n, rows, rhs).minimize(p.objective if sense > 0 else -p.objective)
    m = len(p.constraints)
    if isinstance(res, Infeasible):
        y = res._proof
        return Infeasible(QVector._of(_fold(y.num, signs, m), y.den))
    if isinstance(res, Optimal):
        # The slack part of the reduced row holds the duals: folded, and negated with the rest for 'max'.
        reduced = res._reduced
        num = [*reduced.num[: p.n], *_fold(reduced.num[p.n : -1], signs, m), reduced.num[-1]]
        return Optimal(sense * res.value, res.point, _Row([sense * e for e in num], reduced.den))
    return res


def _ge_rows(constraints: Sequence[Constraint]) -> tuple[list[QVector], QVector, list[tuple[int, int]]]:
    """The rows as given, written as >= rows: (rows, right-hand sides, (index, sign) per >= row).

    A row a . x (rel) b gives s a . x >= s b for each sign s of its
    relation: a ``<=`` row its negation, a ``==`` row both.
    """
    rows, rhs, signs = [], [], []
    for i, c in enumerate(constraints):
        for s in _SIGNS[c.rel]:
            rows.append(c.row if s > 0 else -c.row)
            rhs.append(s * c.rhs)
            signs.append((i, s))
    return rows, QVector(rhs), signs


def _fold(y: Sequence[int], signs: list[tuple[int, int]], m: int) -> list[int]:
    """The multipliers of the m rows as given: each the signed sum of those of its >= rows."""
    out = [0] * m
    for e, (i, s) in zip(y, signs):
        out[i] += s * e
    return out


class Session:
    """One system of >= rows, x free, and one basis of it, which each ``minimize`` moves.

    ``rows[i] . x >= rhs[i]``, for ``QVector`` rows of n entries and one
    ``QVector`` of right-hand sides. The session holds one tableau and one
    basis. Phase 1 runs once, at build. Each ``minimize`` runs phase 2
    from the current basis, in place, and leaves the session at its
    objective's optimum; a basis already optimal for the objective costs
    one pricing pass. Verdicts and values do not depend on the order of
    the calls; the point and duals of an optimum that is not unique may.

    Columns: x (n free columns), the slack of each row (columns n to
    n + m - 1), then the right-hand side. Points are read off the rows
    whose basic variable is free; B^-1, duals and Farkas vectors off the
    slack columns. Rows whose basic variable is free never leave.

    An infeasible session keeps a Farkas vector of its rows, checked
    against ``rhs``. ``pivots`` counts the pivots since the session was
    built: phase 1's, then phase 2's.
    """

    def __init__(self, n: int, rows: Sequence[QVector], rhs: QVector):
        m = len(rows)
        if rhs.dim != m or any(a.dim != n for a in rows):
            raise ValueError("a session needs n entries per row and one right-hand side per row")
        self.n, self._ncols = n, n + m
        tableau = []
        for i, a in enumerate(rows):
            den = lcm(a.den, rhs.den)
            num = [-e * (den // a.den) for e in a.num]
            num += [0] * m
            num.append(-rhs.num[i] * (den // rhs.den))
            num[n + i] = den
            tableau.append(_Row(num, den))
        self._tableau, self._basis = tableau, list(range(n, n + m))
        # Phase 1. A row the dual simplex cannot pivot on reads -u^T A x +
        # u^T s = -u . b < 0 with no free entry and no negative slack entry:
        # u >= 0 and u^T A = 0, so its slack part u is a Farkas vector.
        leave, self.pivots = _dual_run(tableau, self._basis, n, n + m)
        self.feasible, self._farkas = leave < 0, None
        if not self.feasible:
            row = tableau[leave]
            self._farkas = Farkas(QVector._of(row.num[n : n + m], row.den))
            if not self._farkas.refutes(rhs):
                raise InternalInvariantError("a Farkas vector y of the rows has y . b <= 0")

    def feasible_point(self) -> QVector | None:
        """The point of the current basis, or None when the system is infeasible.

        It is the point phase 1 left until ``minimize`` moves the basis,
        and stays feasible after.
        """
        if not self.feasible:
            return None
        return _vector(self._tableau, self._basis, self.n, self._ncols, 1)

    def minimize(self, objective: QVector) -> LPResult:
        """Minimize objective . x by phase 2 from the current basis, which it moves.

        The session is left at the optimum, or, when the objective is
        unbounded below, at the basis where the ray was found. The value
        does not depend on the start; the point may, where the minimum is
        not unique.
        """
        n = self.n
        if objective.dim != n:
            raise ValueError("objective length must equal the variable count")
        if not self.feasible:
            return Infeasible(self._farkas.y)
        tableau, basis, ncols = self._tableau, self._basis, self._ncols
        cost = _Row(list(objective.num) + [0] * (ncols - n + 1), objective.den)
        status, info, pivots = _run(tableau, basis, cost, n, ncols)
        self.pivots += pivots
        if status == "unbounded":
            # The entering variable moves by ``sign``, each basic one by minus sign times its entry.
            enter, sign = info
            return Unbounded(_vector(tableau, basis, n, enter, -sign, enter))
        # The right-hand-side entry of the reduced row is minus the objective.
        return Optimal(Fraction(-info.num[ncols], info.den), _vector(tableau, basis, n, ncols, 1), info)


class Farkas:
    """A Farkas vector y of a system's >= rows: y >= 0 and y^T A = 0.

    Neither condition reads the right-hand side, so y proves the rows
    infeasible at every b with y . b > 0: one dot product of int
    numerators (both denominators are positive).
    """

    __slots__ = ("y",)

    def __init__(self, y: QVector):
        self.y = y

    def refutes(self, rhs: QVector) -> bool:
        return sum(map(mul, self.y.num, rhs.num)) > 0


class Region:
    """A session's basis B, kept as the slack part of B^-1: the right-hand sides where B is feasible.

    The slack columns hold B^-1 and the right-hand side column is
    B^-1 (-b), so B is primal feasible at b exactly when -u . b >= 0 for
    the slack part u of each row whose basic variable is a slack, and its
    point puts each basic free variable at -u . b / den of its row. B's
    reduced costs and duals do not read b either: wherever B is feasible
    it is optimal for every objective it was optimal for when it was
    kept, with the same duals.
    """

    __slots__ = ("n", "_slacks", "_free")

    def __init__(self, session: Session):
        n, ncols = session.n, session._ncols
        self.n, self._slacks, self._free = n, [], []
        for row, b in zip(session._tableau, session._basis):
            if b >= n:
                self._slacks.append(row.num[n:ncols])
            else:
                self._free.append((b, row.num[n:ncols], row.den))

    def contains(self, rhs: QVector) -> bool:
        b = rhs.num
        for u in self._slacks:
            if sum(map(mul, u, b)) > 0:
                return False
        return True

    def point(self, rhs: QVector) -> QVector:
        """B's point at ``rhs``, in the region: a session at basis B there has it as its ``feasible_point``."""
        b, x = rhs.num, [0] * self.n
        den = lcm(*[d for _, _, d in self._free])
        for j, u, d in self._free:
            x[j] = -sum(map(mul, u, b)) * (den // d)
        return QVector._of(x, den * rhs.den)


class Warm:
    """One parametric system and its objectives, with what its sessions proved.

    ``Warm(n, rows, terms, objectives)`` is the >= rows in n variables
    with, per row, its right-hand side as terms (a, [(s, p), ...]): at the
    parameters theta, a sequence of vectors, row r's right-hand side is
    the sum of s * (a . theta[p]) over its terms (``rhs``). ``objectives``
    keeps the sum s of the objectives given, then each of them; each must
    be bounded below wherever the rows hold. ``solve`` takes a trial's
    right-hand sides only and returns whether the rows hold there and a
    point that minimizes every objective at once, None when there is no
    such point: exactly when m_s differs from the sum of the objectives'
    minima m_o, since c . x >= m_c for each c on the rows and s is their
    sum. With no objective the point is any feasible one.

    ``Warm`` keeps every Farkas vector its sessions produced, and every
    basis a cold session reached as a ``Region``: in ``_regions`` when the
    session reached one basis, optimal for every objective (or, with no
    objective, feasible), else in ``_optima``, per objective o, each basis
    where o's minimum ended, with o's duals y_o there. A trial that a kept
    Farkas vector refutes is infeasible; one in a kept region has that
    basis's point; one that, for every objective, lies in the region of a
    kept basis optimal for it has m_o = y_o . b, and the point of s's
    basis when m_s is their sum. Any other trial builds a cold ``Session``
    of the rows there, which minimizes s and then each objective, each
    from the previous optimum. Every verdict and minimum is that of a cold
    session, as neither a Farkas vector nor a basis's reduced costs and
    duals read the right-hand side; a point may differ where the minimizer
    is not unique. Entries come only from trials that no kept entry
    decides, so none is kept twice, and a fresh ``Warm`` keeps nothing.
    """

    __slots__ = ("n", "rows", "terms", "objectives", "_proofs", "_regions", "_optima")

    def __init__(
        self, n: int, rows: Sequence[QVector], terms: Sequence[tuple[QVector, list[tuple[int, int]]]],
        objectives: Sequence[QVector] = (),
    ):
        self.n, self.rows, self.terms = n, rows, terms
        self.objectives = [sum(objectives, QVector.zero(n)), *objectives] if objectives else []
        self._proofs: list[Farkas] = []
        self._regions: list[Region] = []
        # Per objective, each kept basis optimal for it with its duals there.
        self._optima: list[list[tuple[Region, QVector]]] = []

    def rhs(self, theta: Sequence[QVector]) -> QVector:
        """The right-hand sides at the parameters ``theta``, in ints over one denominator."""
        dots = _dots([(a, theta[p]) for a, ps in self.terms for _, p in ps])
        num = iter(dots.num)
        return QVector._of([sum([s * next(num) for s, _ in ps]) for _, ps in self.terms], dots.den)

    def solve(self, rhs: QVector) -> tuple[bool, QVector | None]:
        """Whether the rows hold at ``rhs``, and a point there that minimizes every objective, or None."""
        if rhs.dim != len(self.rows):
            raise ValueError("solve needs one right-hand side per row")
        for proof in self._proofs:
            if proof.refutes(rhs):
                return False, None
        for region in self._regions:
            if region.contains(rhs):
                return True, region.point(rhs)
        if self._optima:
            picked = []
            for kept in self._optima:
                for region, y in kept:
                    if region.contains(rhs):
                        picked.append((region, y))
                        break
                else:
                    break
            else:
                values = [y.dot(rhs) for _, y in picked]
                return True, picked[0][0].point(rhs) if values[0] == sum(values[1:]) else None
        return self._cold(rhs)

    def _cold(self, rhs: QVector) -> tuple[bool, QVector | None]:
        """``solve`` by a session of the rows at ``rhs``, keeping what it proves."""
        session = Session(self.n, self.rows, rhs)
        if not session.feasible:
            self._proofs.append(session._farkas)
            return False, None
        if not self.objectives:
            self._regions.append(Region(session))
            return True, session.feasible_point()
        bases: list[tuple[Region, list[tuple[int, Optimal]]]] = []
        optima = []
        for o, objective in enumerate(self.objectives):
            pivots = session.pivots
            res = session.minimize(objective)
            if not isinstance(res, Optimal):
                raise InternalInvariantError("an objective of a parametric system is unbounded below")
            if not bases or session.pivots != pivots:
                bases.append((Region(session), []))
            bases[-1][1].append((o, res))
            optima.append(res)
        if len(bases) == 1:
            self._regions.append(bases[0][0])
        else:
            self._optima = self._optima or [[] for _ in optima]
            for region, ended in bases:
                for o, res in ended:
                    reduced = res._reduced
                    self._optima[o].append((region, QVector._of(reduced.num[self.n : -1], reduced.den)))
        values = [res.value for res in optima]
        return True, optima[0].point if values[0] == sum(values[1:]) else None


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


def _run(tableau, basis, cost, n, ncols):
    """Bland-rule primal simplex iterations from a primal feasible basis, in place.

    Entering: the smallest column that improves, a free one (the first n)
    with a nonzero reduced cost, moving against its sign, or a slack
    (columns n to ncols - 1) with a negative one. ``tableau``, ``basis``
    and ``cost`` are pivoted as they stand. Returns ("optimal",
    reduced_cost_row, pivots) or ("unbounded", (entering_column, sign),
    pivots).
    """
    reduced = _priced(tableau, basis, cost)
    pivots = 0
    while True:
        num = reduced.num
        enter = -1
        for j in range(n):
            if num[j]:
                enter = j
                break
        else:
            for j in range(n, ncols):
                if num[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return "optimal", reduced, pivots
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
            return "unbounded", (enter, sign), pivots
        _pivot(tableau, reduced, leave, enter)
        basis[leave] = enter
        pivots += 1


def _dual_run(tableau, basis, n, ncols) -> tuple[int, int]:
    """Bland-rule dual simplex at zero costs, in place.

    With zero costs every basis is dual feasible and every ratio is 0.
    Leaving: the negative row with the smallest basic variable, a slack.
    Entering: the first free column (the first n) with a nonzero entry
    there, else the first slack column with a negative one. Returns (-1,
    pivots) once primal feasible, or (row, pivots) for a negative row with
    neither, which proves infeasibility.
    """
    pivots = 0
    while True:
        leave = -1
        for i, row in enumerate(tableau):
            if row.num[-1] < 0 and basis[i] >= n and (leave < 0 or basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            return -1, pivots
        num = tableau[leave].num
        enter = -1
        for j in range(n):
            if num[j]:
                enter = j
                break
        else:
            for j in range(n, ncols):
                if num[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return leave, pivots
        _pivot(tableau, None, leave, enter)
        basis[leave] = enter
        pivots += 1


def _priced(tableau, basis, cost) -> _Row:
    """``cost`` made its reduced-cost row in place: the basic columns priced out (each holds 1 in its row)."""
    for row, b in zip(tableau, basis):
        if cost.num[b]:
            _eliminate(cost, row, b, _nonzero(row))
    return cost
