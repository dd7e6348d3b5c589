"""Exact rational linear programming: Bland-rule dual simplex phase 1, primal phase 2.

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
for the value, for the duals and Farkas vectors when they are read, and,
with ``==`` rows, for the right-hand sides over t and the Farkas vector
of an infeasible system.

Each ``>=`` row is negated, so every row reads a . x + s = b with its own
slack s >= 0 at coefficient +1. The slack columns then hold B^-1, and the
all-slack basis is dual feasible for the zero objective, so phase 1 is a
Bland-rule dual simplex (Chvatal 1983, Linear Programming, ch. 10; finite
by Bland 1977, New finite pivoting rules for the simplex method) from
that basis; no artificial column is needed. A ``Session`` holds one
constraint system after phase 1, so callers that optimize several
objectives over the same system (or only need a feasible point) pay for
phase 1 once; ``lp_solve`` is a session with one objective.
``Session.resolve`` answers the same rows at new right-hand sides by the
same dual simplex: the new right-hand side column is B^-1 b', and the
kept basis stays dual feasible. An infeasible session keeps a Farkas
vector, which refutes a later right-hand side with one dot product;
``Warm`` keeps the latest basis and Farkas vector for a caller that
solves one system at many right-hand sides.

Equality rows never reach the tableau. A session with ``==`` rows E x = e
first reduces [E | I] (``_Equalities``), the presolve step of Andersen &
Andersen 1995 (Presolving in linear programming, Math. Programming 71):
every solution is x = x0 + N t, x0 the particular solution and N the
canonical nullspace basis, and the simplex runs on t over the other rows,
G N t (rel) g - G x0. Points, rays, values, duals and Farkas vectors are
mapped back to the rows as given; a new e only moves x0, so ``resolve``
stays a change of right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import InternalInvariantError
from .linalg import (
    QMatrix,
    QVector,
    _eliminate,
    _nonzero,
    _nullspace_from_rref,
    _pivot,
    _Row,
    _rref_ints,
    qparse,
)

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
    # the duals: (session, final tableau, final basis, reduced-cost row), or
    # (session, optimum over t, objective) for a session with == rows.
    _final: tuple = field(compare=False, repr=False)

    @cached_property
    def dual(self) -> tuple[Fraction, ...]:
        """Constraint multipliers y with A^T y = objective and y . rhs = value."""
        return self._final[0]._dual(self._final)


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
    return session._negated(res) if isinstance(res, Optimal) else res


class _Equalities:
    """The ``==`` rows E x = e of a constraint system, reduced once: x = x0 + N t.

    [E | I] is brought to reduced row echelon form by ``_rref_ints``, so
    the identity block holds the row transform T. The rows that pivot in
    E give x0 = T e on their pivot columns, zero on the free ones, and the
    canonical nullspace basis N (``_nullspace_from_rref``). The rows left
    over have T E = 0: each is a Farkas vector of every e with T e != 0.
    The other rows G x (rel) g become G N t (rel) g - G x0 over t.
    """

    __slots__ = (
        "n", "eq", "ineq", "equations", "rows", "unflipped", "pivots", "transform", "redundant", "basis", "lift"
    )

    def __init__(self, n: int, constraints: tuple[Constraint, ...]):
        self.n = n
        self.eq = [i for i, c in enumerate(constraints) if c.rel == EQ]
        self.ineq = [i for i, c in enumerate(constraints) if c.rel != EQ]
        self.equations = [constraints[i].row for i in self.eq]
        self.rows = [constraints[i].row for i in self.ineq]
        self.unflipped = [False] * len(constraints)
        k = len(self.eq)
        reduced = [
            _Row([*row.num, *[row.den * (j == r) for j in range(k)]], row.den)
            for r, row in enumerate(self.equations)
        ]
        self.pivots = [p for p in _rref_ints(reduced) if p < n]
        r = len(self.pivots)
        self.transform = [_Row(row.num[n:], row.den) for row in reduced[:r]]
        self.redundant = [_Row(row.num[n:], row.den) for row in reduced[r:]]
        # basis.apply(v) is N^T v, and lift.apply(t) is N t.
        self.basis = QMatrix._of(_nullspace_from_rref(reduced, self.pivots, n), n)
        self.lift = self.basis.transpose()

    def particular(self, rhs: Sequence[Fraction]) -> tuple[QVector | None, _Row | None]:
        """(x0, None) for the right-hand sides ``rhs`` of all rows, or (None, y).

        y is a redundant row's transform w, signed so that w . e > 0, on the
        ``==`` rows and 0 on the others: a Farkas vector of the system.
        """
        e = [rhs[i] for i in self.eq]
        den = lcm(*[v.denominator for v in e])  # a list: see Session._flipped_rhs
        b = [v.numerator * (den // v.denominator) for v in e]
        for w in self.redundant:
            s = sum(map(mul, w.num, b))
            if s:
                y = [0] * len(self.unflipped)
                for i, wi in zip(self.eq, w.num):
                    y[i] = wi if s > 0 else -wi
                return None, _Row(y, w.den)
        tden = lcm(*[w.den for w in self.transform])
        x = [0] * self.n
        for w, p in zip(self.transform, self.pivots):
            x[p] = sum(map(mul, w.num, b)) * (tden // w.den)
        return QVector._of(x, tden * den), None

    def lifted(self, x0: QVector, t: QVector) -> QVector:
        """x0 + N t."""
        return x0 + self.lift.apply(t)

    def inner_rhs(self, rhs: Sequence[Fraction], x0: QVector) -> list[Fraction]:
        """g - G x0: the right-hand sides of the rows over t."""
        return [rhs[i] - a.dot(x0) for i, a in zip(self.ineq, self.rows)]

    def multipliers(self, c: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
        """Multipliers of the rows as given: ``y`` on the others, y_E on the ``==`` rows.

        y_E solves E^T y_E = v = c - G^T y. N^T v = 0 for the duals and the
        Farkas vectors over t, so v lies in the row space of E, where it is
        determined by its pivot entries: y_E = T^T v on the pivot columns.
        T's pivot rows are 0 on the identity columns where the rows left
        over pivot, so y_E is 0 on those redundant ``==`` rows.
        """
        v = _minus(list(c), y, self.rows)
        ye = [Fraction(0)] * len(self.eq)
        for w, p in zip(self.transform, self.pivots):
            if v[p]:
                for r, e in enumerate(w.num):
                    ye[r] += Fraction(e, w.den) * v[p]
        if any(_minus(v, ye, self.equations)):
            raise InternalInvariantError("multipliers over t do not lift to the == rows")
        full = [Fraction(0)] * len(self.unflipped)
        for i, yi in zip(self.ineq, y):
            full[i] = yi
        for i, yi in zip(self.eq, ye):
            full[i] = yi
        return full


def _minus(v: list[Fraction], coefs: Sequence[Fraction], rows: Sequence[QVector]) -> list[Fraction]:
    """v minus the combination of ``rows`` with ``coefs``, in place."""
    for yi, row in zip(coefs, rows):
        if yi:
            for j, e in enumerate(row.entries):
                v[j] -= yi * e
    return v


class Session:
    """One constraint system, x free: the tableau is built and phase 1 run once.

    ``rows[i] . x (rel) rhs`` for each ``Constraint``. Every ``minimize``
    runs phase 2 on a copy of the phase-1 tableau and basis, never from an
    earlier optimum (unless given one as ``start``), so each result is
    exactly that of a separate ``lp_solve``: phase 1 does not read the
    objective, and Bland's rule is deterministic. The session keeps no
    per-call state: each ``Optimal`` carries its final tableau and basis,
    where ``price`` reads other minima and ``resolve`` starts.

    The tableau holds only ``>=`` and ``<=`` rows, each with its own slack
    column, so phase 1 never finds a row redundant. A system with ``==``
    rows runs as x = x0 + N t (``_Equalities``): the tableau and phase 1
    are those of a session over t on the other rows, and every result is
    mapped back to x and to the rows as given. With no other row left, no
    simplex runs and the point is x0. A system with no ``==`` row keeps
    its tableau as it is.

    An infeasible session keeps a Farkas vector. ``dual_pivots`` counts
    the pivots the dual simplex made to reach it: phase 1's in a cold
    session, ``resolve``'s in a re-solved one.
    """

    def __init__(self, n: int, constraints: Iterable[Constraint]):
        constraints = tuple(constraints)
        if any(c.row.dim != n for c in constraints):
            raise ValueError("constraint row length must equal the variable count")
        self.n = n
        if all(c.rel != EQ for c in constraints):
            self._phase_one(constraints)
            return
        eq = _Equalities(n, constraints)
        rhs = [c.rhs for c in constraints]
        x0, farkas = eq.particular(rhs)
        inner = None
        if farkas is None:
            # Built without __init__: callers count one session per system.
            inner = object.__new__(Session)
            inner.n = eq.basis.rows
            inner._phase_one(
                [Constraint(eq.basis.apply(a), constraints[i].rel, b)
                 for i, a, b in zip(eq.ineq, eq.rows, eq.inner_rhs(rhs, x0))]
            )
        self._adopt(eq, x0, inner, farkas)

    def _phase_one(self, constraints: Sequence[Constraint]) -> None:
        """Build the tableau of ``>=``/``<=`` rows at the slack basis and run phase 1.

        Columns: x+ (n), x- (n), one slack per row, then the right-hand
        side. A ``>=`` row is negated (``_flipped``), so each slack has
        coefficient +1 and the slacks are the start basis.
        """
        n, m = self.n, len(constraints)
        ncols = 2 * n + m
        self._eq, self._ncols = None, ncols
        self._flipped = [c.rel == GE for c in constraints]
        tableau = []
        for i, (con, flip) in enumerate(zip(constraints, self._flipped)):
            den = lcm(con.row.den, con.rhs.denominator)
            sign = -1 if flip else 1
            a = [sign * e * (den // con.row.den) for e in con.row.num]
            num = [*a, *[-e for e in a], *[0] * m, sign * con.rhs.numerator * (den // con.rhs.denominator)]
            num[2 * n + i] = den
            tableau.append(_Row(num, den))
        rhs = [c.rhs for c in constraints]
        self._settle(tableau, list(range(2 * n, ncols)), _Row([0] * (ncols + 1), 1), rhs)

    def _settle(self, tableau, basis, reduced, rhs) -> Session:
        """Run the dual simplex from ``basis``, dual feasible for ``reduced``, and keep its outcome.

        Phase 1 starts at the slack basis with zero costs, ``resolve`` at a
        kept one. A row the dual simplex cannot pivot on reads
        u^T A' x + u^T s = u . b' < 0 with no negative entry, u >= 0 its slack
        part: u^T A' = 0, so w = -u is a Farkas vector of the rows A' x <= b'
        as stored, checked here against ``rhs``.
        """
        leave, self.dual_pivots = _dual_run(tableau, basis, reduced)
        self.feasible = leave < 0
        self._tableau, self._basis, self._farkas = tableau, basis, None
        if not self.feasible:
            row = tableau[leave]
            self._tableau = self._basis = None
            self._farkas = _Row([-e for e in row.num[2 * self.n : self._ncols]], row.den)
            if not self.refutes(rhs):
                raise InternalInvariantError("a Farkas vector w of the dual simplex has w . b <= 0")
        return self

    def _adopt(self, eq: _Equalities, x0: QVector | None, inner: Session | None, farkas=None) -> None:
        """Become ``eq``'s system at x0 + N t over ``inner``, or infeasible by ``farkas``."""
        self._eq, self._x0, self._inner, self._flipped = eq, x0, inner, eq.unflipped
        self.dual_pivots = 0 if inner is None else inner.dual_pivots
        if farkas is None and not inner.feasible:
            y = eq.multipliers([Fraction(0)] * self.n, Infeasible((inner._flipped, inner._farkas)).farkas)
            den = lcm(*[v.denominator for v in y])
            farkas = _Row([v.numerator * (den // v.denominator) for v in y], den)
        self._farkas, self.feasible = farkas, farkas is None

    def feasible_point(self) -> QVector | None:
        """The point phase 1 (or ``resolve``) left, or None when the system is infeasible."""
        if not self.feasible:
            return None
        if self._eq is not None:
            return self._eq.lifted(self._x0, self._inner.feasible_point())
        return _split_vector(self._tableau, self._basis, self.n, self._ncols, 1)

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
            return Infeasible((self._flipped, self._farkas))
        eq = self._eq
        if eq is not None:
            # Over t the objective is N^T c, plus the constant c . x0.
            inner = None if start is None else self._own(start)[1]
            res = self._inner.minimize(eq.basis.apply(objective), inner)
            if isinstance(res, Unbounded):
                return Unbounded(eq.lift.apply(res.ray))
            point = eq.lifted(self._x0, res.point)
            return Optimal(res.value + objective.dot(self._x0), point, (self, res, objective))
        ncols = self._ncols
        source, basis, _ = self._start(start)
        tableau = [_Row(list(row.num), row.den) for row in source]
        basis = list(basis)
        status, info = _run(tableau, basis, self._cost(objective))
        if status == "unbounded":
            # The entering variable rises by 1, each basic one by minus its entry there.
            return Unbounded(_split_vector(tableau, basis, n, info, -1, info))
        x = _split_vector(tableau, basis, n, ncols, 1)
        # The right-hand-side entry of the reduced row is minus the objective.
        return Optimal(Fraction(-info.num[ncols], info.den), x, (self, tableau, basis, info))

    def price(self, res: Optimal, objective: QVector) -> Fraction | None:
        """``minimize(objective).value`` when ``res``'s final basis is optimal for it, else None.

        Re-pricing at an optimal basis (Chvatal 1983, Linear Programming, ch. 10):
        no reduced cost may be negative.
        """
        final = self._own(res)
        if objective.dim != self.n:
            raise ValueError("objective length must equal the variable count")
        if self._eq is not None:
            value = self._inner.price(final[1], self._eq.basis.apply(objective))
            return None if value is None else value + objective.dot(self._x0)
        _, tableau, basis, _ = final
        reduced = _priced(tableau, basis, self._cost(objective))
        if any(e < 0 for e in reduced.num[: self._ncols]):
            return None
        return Fraction(-reduced.num[-1], reduced.den)

    def refutes(self, rhs) -> bool:
        """Whether this session's Farkas vector w proves the rows infeasible at ``rhs`` too.

        w^T A = 0 and the signs of w do not read the right-hand side, so
        w . rhs > 0 is enough.
        """
        if self.feasible:
            return False
        return sum(map(mul, self._farkas.num, self._flipped_rhs(rhs)[0])) > 0

    def resolve(self, rhs, start: Optimal | None = None) -> Session:
        """This feasible system's rows at the right-hand sides ``rhs``, from a kept basis.

        Verdicts and optimal values equal those of a cold
        ``Session(n, rows with rhs)``; points may differ where they are not
        unique. The new right-hand side column is B^-1 b', read off the
        slack columns with this session's flips. Then phase 1's dual
        simplex (``_settle``) runs from ``start``'s basis (an optimum of
        this session, kept optimal for its objective) or from this
        session's (with zero costs).

        With ``==`` rows, the new e is checked against the redundant ones
        (an infeasible result carries the violated one) and moves x0 to
        x0'; the session over t is re-solved at g - G x0'.
        """
        rhs = tuple(rhs)
        if not self.feasible or len(rhs) != len(self._flipped):
            raise ValueError("resolve needs a feasible session and one right-hand side per constraint")
        eq = self._eq
        if eq is not None:
            start = None if start is None else self._own(start)[1]
            new = object.__new__(Session)
            new.n = self.n
            x0, farkas = eq.particular(rhs)
            inner = None if farkas is not None else self._inner.resolve(eq.inner_rhs(rhs, x0), start)
            new._adopt(eq, x0, inner, farkas)
            return new
        b, den = self._flipped_rhs(rhs)
        s0, ncols = 2 * self.n, self._ncols
        source, basis, reduced = self._start(start)
        tableau = []
        for row in source:
            num, rden = row.num, row.den
            v = sum(map(mul, num[s0:ncols], b))
            num = num[:ncols] if den == 1 else [e * den for e in num[:ncols]]
            num.append(v)
            rden *= den
            g = gcd(rden, *num)
            tableau.append(_Row(num if g == 1 else [e // g for e in num], rden // g))
        reduced = _Row([0] * (ncols + 1), 1) if reduced is None else _Row(list(reduced.num), reduced.den)
        new = object.__new__(Session)
        new.n, new._eq, new._ncols, new._flipped = self.n, None, ncols, self._flipped
        return new._settle(tableau, list(basis), reduced, rhs)

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

    def _dual(self, final: tuple) -> tuple[Fraction, ...]:
        """The duals of the optimum with state ``final``.

        The slack columns hold B^-1 and cost 0, so -reduced there is
        c_B B^-1 per stored row. The split variables force
        A^T y = c, and slack-column optimality gives the signs. With ``==``
        rows, the duals over t are lifted to them (``_Equalities.multipliers``).
        """
        if self._eq is not None:
            _, res, objective = final
            return tuple(self._eq.multipliers(objective.entries, res.dual))
        rnum, s0, den = final[3].num, 2 * self.n, final[3].den
        return tuple(
            Fraction(rnum[s0 + i] if flip else -rnum[s0 + i], den)
            for i, flip in enumerate(self._flipped)
        )

    def _negated(self, res: Optimal) -> Optimal:
        """``res`` read as the maximum of the negated objective: its value and duals negate."""
        if self._eq is not None:
            session, inner, objective = res._final
            final = (session, self._inner._negated(inner), -objective)
        else:
            *kept, reduced = res._final
            final = (*kept, _Row([-e for e in reduced.num], reduced.den))
        return Optimal(-res.value, res.point, final)

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


def _run(tableau, basis, cost):
    """Bland-rule primal simplex iterations from a primal feasible basis.

    Returns ("optimal", reduced_cost_row) or ("unbounded", entering_column).
    """
    reduced = _priced(tableau, basis, cost)
    ncols = len(reduced.num) - 1
    while True:
        enter = -1
        num = reduced.num
        for j in range(ncols):
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


def _dual_run(tableau, basis, reduced) -> tuple[int, int]:
    """Bland-rule dual simplex from a basis dual feasible for ``reduced``.

    Leaving: the negative row with the smallest basic variable. Entering:
    the least reduced / -entry over the row's negative entries, ties to
    the smallest column. Returns (-1, pivots) once primal feasible, or
    (row, pivots) for a negative row with no negative entry, which proves
    infeasibility.
    """
    ncols = len(reduced.num) - 1
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
        for j in range(ncols):
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
