"""Shared samplers and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library code paths they are used
to check: linear systems are solved by a local Gaussian elimination, LP
optima by basic-point enumeration, polytope vertices by active-set
enumeration, simplex results by a ``Fraction`` tableau that pivots by
the integer-row simplex's rules, row reductions by the ``Fraction`` loop
the integer-row elimination replaced, extreme rays by the subset scan the
double-description method replaced, multi-suprema by the equality
system that ``msup``'s sum-of-normals LP replaced, Riesz-Kantorovich
values by the primal decomposition LP that ``rk_value``'s dual sessions
replaced, decompositions by the system of ``==`` sum rows that
``rdp_check``'s transportation form replaced, operator linealities by
the annihilator construction that ``op_wedge_lineality`` replaced, operator multi-suprema by the
multi-supremum of the translated-wedge family that defines them, the
seeded searches' draws by the ``Fraction`` formulas that their integer
draws replaced, and the searches themselves by their loops with a cold
session per trial. The simplex oracle solves >= rows with one free
column per variable, as ``Session`` does.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from multiwedge import (
    EQ,
    GE,
    Constraint,
    Infeasible,
    LinearProgram,
    MultiSupSet,
    NoMultiSupremum,
    NotInSumWedge,
    NotMultiBoundedAbove,
    Optimal,
    QMatrix,
    QVector,
    TranslatedWedge,
    Unbounded,
    Wedge,
    intersect,
    lineality,
    lp_solve,
    nullspace,
    wedge_sum,
)
from multiwedge.multiorder import Counterexample, msup, sample_apex
from multiwedge.operators import RDPInstance, _check_rk_shapes, _random_member, rdp_check
from multiwedge.wedges import _primitive

F = Fraction


def gauss_solve(rows, rhs):
    """Unique solution of a square-rank system, or None when singular.

    ``rows`` is a list of coefficient lists (may be more rows than
    columns); consistency of extra rows is NOT checked here - callers
    filter by feasibility afterwards.
    """
    n = len(rows[0])
    aug = [[F(e) for e in r] + [F(b)] for r, b in zip(rows, rhs)]
    pivot_rows = []
    used = [False] * len(aug)
    for col in range(n):
        sel = None
        for i, row in enumerate(aug):
            if not used[i] and row[col] != 0:
                sel = i
                break
        if sel is None:
            return None
        used[sel] = True
        pivot_rows.append((col, sel))
        piv = aug[sel][col]
        aug[sel] = [e / piv for e in aug[sel]]
        for i in range(len(aug)):
            if i != sel and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[sel])]
    x = [F(0)] * n
    for col, i in pivot_rows:
        x[col] = aug[i][n]
    return x


def enumerate_lp_minimum(n, objective, constraints):
    """Brute-force LP oracle: best objective over all basic feasible points.

    ``constraints`` is a list of (row, rel, rhs) with rel in <=, >=, ==.
    Returns (value, point) of the minimum, or None when no basic feasible
    point exists. Correct for LPs whose optimum is attained at a vertex
    (bounded feasible region).
    """
    best = None
    rows = [list(c[0]) for c in constraints]
    rels = [c[1] for c in constraints]
    rhs = [c[2] for c in constraints]
    m = len(rows)
    for subset in combinations(range(m), n):
        x = gauss_solve([rows[i] for i in subset], [rhs[i] for i in subset])
        if x is None:
            continue
        if not point_feasible(x, rows, rels, rhs):
            continue
        val = sum(o * xi for o, xi in zip(objective, x))
        if best is None or val < best[0]:
            best = (val, x)
    return best


def point_feasible(x, rows, rels, rhs):
    for row, rel, b in zip(rows, rels, rhs):
        v = sum(a * xi for a, xi in zip(row, x))
        if rel == "<=" and v > b:
            return False
        if rel == ">=" and v < b:
            return False
        if rel == "==" and v != b:
            return False
    return True


def polytope_vertices(eq_rows, eq_rhs, ineq_rows, ineq_rhs):
    """All vertices of {x : eq x = eq_rhs, ineq x >= ineq_rhs} by active sets."""
    n = len(eq_rows[0]) if eq_rows else len(ineq_rows[0])
    need = n - len(eq_rows)
    verts = set()
    for subset in combinations(range(len(ineq_rows)), need):
        rows = list(eq_rows) + [ineq_rows[i] for i in subset]
        rhs = list(eq_rhs) + [ineq_rhs[i] for i in subset]
        x = gauss_solve(rows, rhs)
        if x is None:
            continue
        ok = all(
            sum(a * xi for a, xi in zip(row, x)) == b for row, b in zip(rows, rhs)
        ) and all(
            sum(a * xi for a, xi in zip(row, x)) >= b
            for row, b in zip(ineq_rows, ineq_rhs)
        )
        if ok:
            verts.add(tuple(x))
    return sorted(verts)


def decomposition_rows(wedges):
    """Rows of the decomposition polytope {(y_1..y_k) : y_i in W_i, sum y_i = x}.

    Returns ``(eq_rows, ineq_rows)`` over the k*q stacked coordinates: one
    equality row per coordinate of x (right-hand side x) and one row per
    canonical halfspace of each W_i (right-hand side 0).
    """
    q = wedges[0].dim
    k = len(wedges)
    eq_rows = []
    for c in range(q):
        row = [F(0)] * (k * q)
        for i in range(k):
            row[i * q + c] = F(1)
        eq_rows.append(row)
    ineq_rows = []
    for i, w in enumerate(wedges):
        for a in w.canonical_halfspaces:
            row = [F(0)] * (k * q)
            for c in range(q):
                row[i * q + c] = a[c]
            ineq_rows.append(row)
    return eq_rows, ineq_rows


def _integer_row(row):
    """The entries of ``row`` as ints; ValueError on a non-integer entry."""
    out = []
    for e in row:
        f = F(e)
        if f.denominator != 1:
            raise ValueError(f"integer row expected, got entry {e!r}")
        out.append(f.numerator)
    return out


def _bareiss_solve(rows, m):
    """Solve ``rows @ X = I[:, :m]`` for a square integer matrix.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968): every division
    by the previous pivot is exact, because after step k each entry is,
    up to sign, a (k+1)x(k+1) minor of the augmented integer matrix.
    Returns ``(numerators, det)`` with ``X = numerators / det`` and
    ``det > 0``, or None when singular.
    """
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    prev = 1
    for k in range(n):
        sel = next((i for i in range(k, n) if aug[i][k]), None)
        if sel is None:
            return None
        aug[k], aug[sel] = aug[sel], aug[k]
        pivot_row = aug[k]
        piv = pivot_row[k]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(piv * a - f * b) // prev for a, b in zip(aug[i], pivot_row)]
        prev = piv
    sign = 1 if prev > 0 else -1
    return [[sign * e for e in r[n:]] for r in aug], sign * prev


class VertexEnumerator:
    """Active-set vertex enumeration with the factorizations reused.

    The constraint geometry {x : eq x = rhs, ineq x >= 0} is fixed per
    instance while the equality right-hand side varies. Each candidate
    active-set matrix (the equality rows plus n - m inequality rows, in
    ``combinations`` order) is solved once, in integers, for the m
    equality columns of its inverse; ``vertices`` then only combines those
    columns with the rhs. Rows must have integer entries.
    """

    def __init__(self, eq_rows, ineq_rows):
        n = len(eq_rows[0]) if eq_rows else len(ineq_rows[0])
        m = len(eq_rows)
        self.ineq = [_integer_row(r) for r in ineq_rows]
        base = [_integer_row(r) for r in eq_rows]
        self.solutions = []
        for subset in combinations(range(len(self.ineq)), n - m):
            sol = _bareiss_solve(base + [self.ineq[i] for i in subset], m)
            if sol is not None:
                self.solutions.append(sol)

    def vertices(self, eq_rhs):
        """Distinct feasible basic points, in active-set order."""
        rhs = [F(e) for e in eq_rhs]
        scale = lcm(*(e.denominator for e in rhs))
        b = [e.numerator * (scale // e.denominator) for e in rhs]
        seen = set()
        out = []
        for numerators, det in self.solutions:
            # the point is top / (det * scale), with det * scale > 0
            top = [sum(c * e for c, e in zip(r, b)) for r in numerators]
            if any(sum(a * t for a, t in zip(row, top)) < 0 for row in self.ineq):
                continue
            point = tuple(F(t, det * scale) for t in top)
            if point not in seen:
                seen.add(point)
                out.append(point)
        return out


# Reference simplex: the Bland simplex on a ``Fraction`` tableau of >= rows
# with one free column per variable, phase 1 by the dual simplex from the
# all-slack basis, phase 2 by the primal. ``lp_solve`` hands a <= or ==
# row to ``Session`` as >= rows (``lp._ge_rows``), and so do the tests that
# drive these. The library must reproduce its status, point, duals and ray
# exactly. The only addition is ``events``, a Counter of the code paths
# taken, so tests can require that their inputs reach each path.

def fraction_simplex(n, c, rows, rhs, events=None):
    """Minimize c.x subject to rows[i] . x >= rhs[i], x free.

    Returns ("optimal", x, duals) | ("unbounded", ray, None) |
    ("infeasible", None, None) with x/ray in the original n variables and
    one dual per row.
    """
    if events is None:
        events = Counter()
    tableau, basis, feasible = _fs_phase_one(n, rows, rhs, events)
    if not feasible:
        return "infeasible", None, None

    # Phase 2: the objective on the free columns, from the phase-1 basis.
    cost = list(c) + [F(0)] * len(rows)
    status, ray = _fs_run(tableau, basis, cost, n, events)
    if status == "unbounded":
        events["unbounded"] += 1
        return "unbounded", ray[:n], None

    events["optimal"] += 1
    # The slack columns hold B^-1 of the negated rows and cost 0: their reduced costs are the duals.
    return "optimal", _fs_point(tableau, basis, n), _fs_reduced_costs(tableau, basis, cost)[n:]


def _fs_point(tableau, basis, n):
    x = [F(0)] * n
    for row, b in zip(tableau, basis):
        if b < n:
            x[b] = row[-1]
    return x


def _fs_phase_one(n, rows, rhs, events):
    """The tableau where phase 1 stopped, and whether the system is feasible.

    Columns: x (n), one slack per row, the right-hand side. Each >= row is
    stored negated, -a . x + s = -b, so the slack columns hold B^-1 and
    zero costs are dual feasible at the all-slack basis. Returns
    (tableau, basis, feasible); an infeasible system stops at the dual
    simplex's last basis.
    """
    m = len(rows)
    tableau = []
    for i in range(m):
        row = [-F(e) for e in rows[i]] + [F(0)] * m + [-F(rhs[i])]
        row[n + i] = F(1)
        tableau.append(row)
    basis = list(range(n, n + m))
    feasible = _fs_dual_run(tableau, basis, [F(0)] * (n + m), n, events)
    if not feasible:
        events["infeasible"] += 1
    return tableau, basis, feasible


def _fs_dual_run(tableau, basis, reduced, n, events):
    """Bland-rule dual simplex from a basis dual feasible for ``reduced``.

    Leaving: the negative row of smallest basic index among the rows whose
    basic variable is a slack; entering: the smallest ratio, |reduced /
    entry| over the free columns' nonzero entries and reduced / -entry over
    the slacks' negative entries, ties to the smallest column. True once
    primal feasible; False at a negative row with no such entry.
    """
    while True:
        rows_out = [i for i, row in enumerate(tableau) if row[-1] < 0 and basis[i] >= n]
        if not rows_out:
            return True
        leave = min(rows_out, key=lambda i: basis[i])
        row = tableau[leave]
        candidates = [j for j in range(n) if row[j]] + [j for j in range(n, len(reduced)) if row[j] < 0]
        if not candidates:
            return False
        events["dual_pivot"] += 1
        enter = min(candidates, key=lambda j: (abs(reduced[j] / row[j]), j))
        if enter < n:
            events["free_dual_entry"] += 1
        _fs_pivot(tableau, reduced, leave, enter)
        basis[leave] = enter


def _fs_reduced_costs(tableau, basis, cost):
    reduced = list(cost)
    for row, b in zip(tableau, basis):
        cb = cost[b]
        if cb:
            for j in range(len(cost)):
                if row[j]:
                    reduced[j] -= cb * row[j]
    return reduced


def _fs_run(tableau, basis, cost, n, events):
    """Bland-rule primal simplex: ("optimal", None) or ("unbounded", ray over all columns).

    Entering: the smallest improving column, a free one with a nonzero
    reduced cost (moving against its sign) or a slack with a negative one.
    Leaving: the least ratio over the rows whose basic variable is a slack.
    """
    reduced = _fs_reduced_costs(tableau, basis, cost)
    while True:
        enter = next((j for j in range(len(cost)) if reduced[j] < 0 or (j < n and reduced[j])), -1)
        if enter < 0:
            return "optimal", None
        sign = 1 if reduced[enter] < 0 else -1
        if enter < n:
            events["free_entry"] += 1
            if sign < 0:
                events["free_entry_decreasing"] += 1
        # Ratio test; ties broken by smallest basic variable index (Bland).
        leave = -1
        best = None
        for i, row in enumerate(tableau):
            a = sign * row[enter]
            if a > 0 and basis[i] >= n:
                ratio = row[-1] / a
                if ratio == best:
                    events["ratio_tie"] += 1
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            ray = [F(0)] * len(cost)
            ray[enter] = F(sign)
            for i, row in enumerate(tableau):
                ray[basis[i]] = -sign * row[enter]
            return "unbounded", ray
        _fs_pivot(tableau, reduced, leave, enter)
        basis[leave] = enter


def _fs_pivot(tableau, reduced, leave, enter):
    prow = tableau[leave]
    piv = prow[enter]
    nz = [j for j, e in enumerate(prow) if e]
    if piv != 1:
        inv = 1 / piv
        for j in nz:
            prow[j] *= inv
    for i, row in enumerate(tableau):
        if i == leave:
            continue
        f = row[enter]
        if f:
            for j in nz:
                row[j] -= f * prow[j]
    f = reduced[enter]
    if f:
        ncols = len(reduced)
        for j in nz:
            if j < ncols:
                reduced[j] -= f * prow[j]


# Reference row reduction: the ``Fraction`` Gauss-Jordan loop that
# ``linalg.rref`` ran before it ran on the integer-row elimination. The
# library must reproduce its pivots and rows.


def fraction_rref(rows):
    """Reduce ``rows`` in place to reduced row echelon form; return pivot columns."""
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][col]
        if inv != 1:
            rows[r] = [e * inv for e in rows[r]]
        rr = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rr)]
        pivots.append(col)
        r += 1
    return pivots


class GreedyEchelon:
    """Incremental row echelon form: the independence oracle for ``linalg``.

    Vectors are added one at a time; each is reduced against the rows kept
    so far and kept, scaled to a leading 1, when a nonzero entry remains.
    So the kept vectors are the greedy independent subset in insertion order.
    """

    def __init__(self):
        self.rows = []
        self.leads = []

    def residual(self, v):
        w = [F(e) for e in v]
        for lead, row in zip(self.leads, self.rows):
            f = w[lead]
            if f:
                w = [a - f * b for a, b in zip(w, row)]
        return w

    def add(self, v):
        """Keep v if it is independent of the rows so far; report whether it was kept."""
        w = self.residual(v)
        for lead, e in enumerate(w):
            if e != 0:
                self.rows.append([x / e for x in w])
                self.leads.append(lead)
                return True
        return False

    def contains(self, v):
        return all(e == 0 for e in self.residual(v))


def greedy_complement(basis, dim):
    """Unit vectors e_k, scanned in index order, kept when independent of
    ``basis`` and of the units kept before."""
    ech = GreedyEchelon()
    for v in basis:
        ech.add(v)
    units = ([F(int(i == k)) for i in range(dim)] for k in range(dim))
    return [u for u in units if ech.add(u)]


def fraction_nullspace(rows, pivots, ncols):
    """Canonical nullspace basis of ``Fraction`` rows reduced by ``fraction_rref``.

    One vector per free column f: 1 at f, minus the pivot rows' entries in
    column f at their pivots, 0 elsewhere.
    """
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [F(0)] * ncols
        v[free] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][free]
        basis.append(QVector(v))
    return basis


def subset_scan_rays(normals, dim):
    """Lineality basis and extreme rays of {x : a.x >= 0 for a in normals}.

    The subset scan that ``wedges._solve_rays`` used before the
    double-description method, kept as its oracle; its row reductions and
    kernels run on ``fraction_rref`` and ``fraction_nullspace``, not on the
    library's elimination. The lineality
    space is the common kernel of the normals N. The pointed part lives in
    the greedy standard complement of it, spanned by e_p for the pivot
    columns p of N, so each normal restricts to its pivot coordinates. Each
    extreme ray is cut out by some (d-1)-subset of independent active
    constraints, so enumerating those subsets finds exactly the extreme rays.
    """
    normals = [n for n in normals if not n.is_zero()]
    if not normals:
        basis = [QVector.unit(dim, i) for i in range(dim)]
        return basis, []
    rows = [list(n.entries) for n in normals]
    pivots = fraction_rref(rows)
    lin = fraction_nullspace(rows, pivots, dim)
    d = len(pivots)
    restricted = []
    seen_rows = set()
    for a in normals:
        row = QVector([a.entries[p] for p in pivots])
        key = _primitive(row).entries
        if key in seen_rows:
            continue
        seen_rows.add(key)
        restricted.append(row)
    rays = set()
    for subset in combinations(restricted, d - 1):
        sub_rows = [list(row.entries) for row in subset]
        sub_pivots = fraction_rref(sub_rows)
        if len(sub_pivots) != d - 1:
            continue
        direction = fraction_nullspace(sub_rows, sub_pivots, d)[0]
        signs = [row.dot(direction) for row in restricted]
        if all(s >= 0 for s in signs):
            pass
        elif all(s <= 0 for s in signs):
            direction = -direction
        else:
            continue
        ray = [F(0)] * dim
        for p, coef in zip(pivots, direction.entries):
            ray[p] = coef
        rays.add(_primitive(QVector(ray)))
    return lin, sorted(rays, key=lambda v: v.entries)


def equality_system_msup(family):
    """Multi-suprema by the equality-system LP that ``msup`` used before.

    Kept as its oracle: it minimizes each canonical normal a of C over P to
    m_a, one ``lp_solve`` each, then solves P with every a.x = m_a added as
    an equality; the set is empty when that system is. Raises
    NotMultiBoundedAbove when P is empty.
    """
    dim = family[0].apex.dim
    cw = intersect([tw.wedge for tw in family])
    cons = [
        Constraint(a, GE, a.dot(tw.apex)) for tw in family for a in tw.wedge.halfspaces
    ]
    targets = []
    for a in cw.canonical_halfspaces:
        res = lp_solve(LinearProgram(dim, a, "min", tuple(cons)))
        if isinstance(res, Infeasible):
            raise NotMultiBoundedAbove("the family has no multi-upper bound")
        assert isinstance(res, Optimal)
        targets.append(Constraint(a, EQ, res.value))
    res = lp_solve(LinearProgram(dim, QVector.zero(dim), "min", tuple(cons + targets)))
    if isinstance(res, Optimal):
        return MultiSupSet(res.point, cw.lineality_basis)
    if not targets:
        raise NotMultiBoundedAbove("the family has no multi-upper bound")
    return None


def primal_rk_value(ops, wedges, v_wedge, x):
    """Riesz-Kantorovich value by the primal decomposition LP ``rk_value`` used before.

    Kept as its oracle: one ``lp_solve`` per canonical normal b of V
    maximizes b . sum_i T_i(y_i) over the decomposition polytope of x
    (``decomposition_rows``, with its == rows; NotInSumWedge when it is
    empty); an unbounded normal raises NotMultiBoundedAbove, and the
    witness solves the == rows b . z = s_b for every b.
    """
    p, q = _check_rk_shapes(ops, wedges, v_wedge)
    if x.dim != q:
        raise ValueError("x dimension does not match the domain")
    normals = v_wedge.canonical_halfspaces
    v_lin = v_wedge.lineality_basis
    eq_rows, ineq_rows = decomposition_rows(wedges)
    cons = [Constraint(QVector(r), EQ, xc) for r, xc in zip(eq_rows, x)]
    cons += [Constraint(QVector(r), GE, F(0)) for r in ineq_rows]
    n = len(wedges) * q
    if isinstance(lp_solve(LinearProgram(n, QVector.zero(n), "min", tuple(cons))), Infeasible):
        raise NotInSumWedge("x is not in the sum of the domain wedges")

    # s_b = max b . sum_i T_i(y_i) = max sum_i (T_i^T b) . y_i
    sups = []
    for b in normals:
        objective = QVector([e for t in ops for e in t.transpose().apply(b).entries])
        res = lp_solve(LinearProgram(n, objective, "max", tuple(cons)))
        if isinstance(res, Unbounded):
            raise NotMultiBoundedAbove("the value set is unbounded in the V order")
        sups.append(Constraint(b, EQ, res.value))

    z = lp_solve(LinearProgram(p, QVector.zero(p), "min", tuple(sups)))
    if isinstance(z, Infeasible):
        raise NoMultiSupremum(
            "the codomain wedge admits no multi-supremum for this value set"
        )
    return MultiSupSet(z.point, v_lin)


def primal_rdp_check(inst):
    """A decomposition z of ``inst`` by the system ``rdp_check`` solved before, or None.

    Kept as its oracle: one ``lp_solve`` in the m * n * dim stacked
    coordinates of z, coordinate c of z_ij being variable
    (i * n + j) * dim + c, with a >= 0 row per halfspace a of W_j on each
    z_ij and a ``==`` row per coordinate of each row sum x_i and column
    sum y_j.
    """
    m, n, dim = len(inst.xs), len(inst.wedges), inst.dim

    def row(coefs):
        entries = [0] * (m * n * dim)
        for col, coef in coefs.items():
            entries[col] = coef
        return QVector(entries)

    cons = [
        Constraint(row(dict(enumerate(a, (i * n + j) * dim))), GE, F(0))
        for i in range(m)
        for j, w in enumerate(inst.wedges)
        for a in w.halfspaces
    ]
    for i, x in enumerate(inst.xs):
        cons += [Constraint(row({(i * n + j) * dim + c: 1 for j in range(n)}), EQ, x[c]) for c in range(dim)]
    for j, y in enumerate(inst.ys):
        cons += [Constraint(row({(i * n + j) * dim + c: 1 for i in range(m)}), EQ, y[c]) for c in range(dim)]
    res = lp_solve(LinearProgram(m * n * dim, QVector.zero(m * n * dim), "min", tuple(cons)))
    if isinstance(res, Infeasible):
        return None
    z = [res.point[k * dim : (k + 1) * dim] for k in range(m * n)]
    return [[QVector(v) for v in z[i * n : (i + 1) * n]] for i in range(m)]


def annihilator_op_lineality(ws, vs):
    """Operator lineality by the annihilator construction ``op_wedge_lineality`` used before.

    Kept as its oracle: a basis of the annihilator of D, the lineality of
    the intersection of the V_j, and the nullspace of the rows
    T -> r . T(g) over the row-major entries of T, for g a generator of the
    sum of the W_i (outer loop) and r an annihilator row (inner loop).
    """
    q = ws[0].dim
    p = vs[0].dim
    d_basis = lineality(intersect(vs))
    annihilator = nullspace(QMatrix(len(d_basis), p, [e for d in d_basis for e in d]))
    gens = wedge_sum(ws).generators
    rows = [[r[a] * g[c] for a in range(p) for c in range(q)] for g in gens for r in annihilator]
    flat_basis = nullspace(QMatrix(len(rows), p * q, [e for row in rows for e in row]))
    return [QMatrix(p, q, v.entries) for v in flat_basis]


def operator_family(ops, wedges, v_wedge):
    """The translated-wedge family (vec T_i, L(W_i, V)) that defines the operator multi-supremum.

    Operators are points of Q^(p*q), by their row-major entries. L(W, V),
    the operators that map W into V, is cut out there by the normals
    vec(b g^T), since b . T(g) = vec(b g^T) . vec(T), for the canonical
    generators g of W and the canonical normals b of V.
    """
    pq = v_wedge.dim * wedges[0].dim
    family = []
    for t, w in zip(ops, wedges):
        normals = [
            QVector((QMatrix.from_cols([b]) @ QMatrix.from_rows([g])).entries)
            for b in v_wedge.canonical_halfspaces
            for g in w.canonical_generators
        ]
        family.append(TranslatedWedge(QVector(t.entries), Wedge(pq, halfspaces=normals)))
    return family


def fraction_sample_apex(rng, dim, bound):
    """``multiorder.sample_apex`` as it was: ``Fraction`` sums, then the parsing constructor."""
    entries = []
    for _ in range(dim):
        base = rng.randint(-bound, bound)
        entries.append(base + Fraction(rng.randint(-2, 2), rng.randint(1, 4)))
    return QVector(entries)


def fraction_random_member(rng, w):
    """``operators._random_member`` as it was: ``Fraction`` coefficients times the generators."""
    out = QVector.zero(w.dim)
    for g in w.canonical_generators:
        coef = Fraction(rng.randint(0, 3), rng.randint(1, 2))
        if coef:
            out = out + coef * g
    return out


def cold_multilattice_search(wedges, k, seed=0, budget=1000, bound=5):
    """``multiorder.multilattice_search`` as it was: a cold ``msup`` per trial.

    The same draws, trial for trial.
    """
    dim = wedges[0].dim
    rng = random.Random(seed)
    for _ in range(budget):
        indices = tuple(rng.randrange(len(wedges)) for _ in range(k))
        apexes = tuple(sample_apex(rng, dim, bound) for _ in range(k))
        family = [TranslatedWedge(a, wedges[i]) for a, i in zip(apexes, indices)]
        try:
            res = msup(family)
        except NotMultiBoundedAbove:
            continue
        if res is None:
            return Counterexample(apexes, indices)
    return None


def cold_rdp_search(wedges, m, n, seed=0, budget=500):
    """``operators.rdp_search`` as it was: a cold ``rdp_check`` session per trial."""
    rng = random.Random(seed)
    sum_cache = {}
    for _ in range(budget):
        js = tuple(rng.randrange(len(wedges)) for _ in range(n))
        key = tuple(sorted(set(js)))
        if key not in sum_cache:
            sum_cache[key] = wedge_sum([wedges[i] for i in key])
        sw = sum_cache[key]
        ys = [_random_member(rng, wedges[j]) for j in js]
        xs = [_random_member(rng, sw) for _ in range(m - 1)]
        last = sum(ys, QVector.zero(sw.dim))
        for x in xs:
            last = last - x
        if not sw.member(last):
            continue
        xs.append(last)
        inst = RDPInstance(tuple(wedges[j] for j in js), tuple(xs), tuple(ys))
        if rdp_check(inst) is None:
            return inst
    return None


@pytest.fixture
def warm_builds(monkeypatch):
    """List that gets the row count of each ``lp.Warm`` built: one entry per parametric system."""
    from multiwedge import lp

    built = []
    init = lp.Warm.__init__

    def counted(self, n, rows, *args):
        built.append(len(rows))
        init(self, n, rows, *args)

    monkeypatch.setattr(lp.Warm, "__init__", counted)
    return built


@pytest.fixture
def session_builds(monkeypatch):
    """List that gets each ``lp.Session`` built, once its phase 1 has run: one entry per cold solve."""
    from multiwedge import lp

    built = []
    init = lp.Session.__init__

    def counted(self, n, rows, rhs):
        init(self, n, rows, rhs)
        built.append(self)

    monkeypatch.setattr(lp.Session, "__init__", counted)
    return built


def memo_route(warm, rhs):
    """Which part of ``warm`` will decide ``warm.solve(rhs)``, read before the solve.

    "farkas" when a kept Farkas vector refutes ``rhs``; else "region" when
    a kept region, a basis optimal for every objective, holds it; else
    "optima" when, for every objective, some basis kept as optimal for it
    holds it; else "session", a cold one. The order is ``Warm.solve``'s.
    """
    if any(proof.refutes(rhs) for proof in warm._proofs):
        return "farkas"
    if any(region.contains(rhs) for region in warm._regions):
        return "region"
    if warm._optima and all(any(region.contains(rhs) for region, _ in kept) for kept in warm._optima):
        return "optima"
    return "session"


@pytest.fixture
def conversions(monkeypatch):
    """List that gets one entry per call of ``wedges.hrep_to_vrep``."""
    from multiwedge import wedges

    calls = []
    convert = wedges.hrep_to_vrep

    def counted(halfspaces, dim):
        calls.append(dim)
        return convert(halfspaces, dim)

    monkeypatch.setattr(wedges, "hrep_to_vrep", counted)
    return calls


def quadrant():
    return Wedge(2, generators=[QVector([1, 0]), QVector([0, 1])])


def diagonal_ray():
    return Wedge(2, generators=[QVector([1, 1])])


def positive_ray():
    return Wedge(1, generators=[QVector([1])], halfspaces=[QVector([1])])


def standard_cone(n):
    return Wedge(n, generators=[QVector.unit(n, i) for i in range(n)])


def rand_fraction(rng, lo=-4, hi=4, max_den=3):
    return F(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_vector(rng, dim, lo=-4, hi=4, max_den=3):
    return QVector([rand_fraction(rng, lo, hi, max_den) for _ in range(dim)])


def rand_wedge(rng, dim, max_vectors=None):
    """Random wedge from either generators or halfspaces (possibly trivial)."""
    count = rng.randint(1, max_vectors or dim + 1)
    vecs = []
    for _ in range(count):
        v = QVector([rng.randint(-3, 3) for _ in range(dim)])
        if not v.is_zero():
            vecs.append(v)
    if not vecs:
        vecs = [QVector.unit(dim, 0)]
    if rng.random() < 0.5:
        return Wedge(dim, generators=vecs)
    return Wedge(dim, halfspaces=vecs)


def rand_acute_cone(rng, dim, max_rays=None):
    """Pointed cone whose nonzero members all have positive first coordinate.

    Guarantees that finitely many such cones give bounded decomposition
    polytopes: no nonzero directions can cancel in a sum.
    """
    count = rng.randint(1, max_rays or dim)
    gens = []
    for _ in range(count):
        gens.append(QVector([1] + [rng.randint(-3, 3) for _ in range(dim - 1)]))
    return Wedge(dim, generators=gens)


def rand_member(rng, wedge, scale=3):
    """Random nonnegative rational combination of the wedge's generators."""
    out = QVector.zero(wedge.dim)
    for g in wedge.canonical_generators:
        out = out + F(rng.randint(0, scale), rng.randint(1, 2)) * g
    return out


@pytest.fixture
def rng():
    return random.Random(20240811)
