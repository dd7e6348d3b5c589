import random
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest

import multiwedge.lp as lp_module
from multiwedge import (
    EQ,
    GE,
    LE,
    Infeasible,
    InternalInvariantError,
    LinearProgram,
    Optimal,
    QVector,
    TranslatedWedge,
    Unbounded,
    Wedge,
    constraint,
    intersect,
    lp_solve,
)
from multiwedge.lp import Session, Warm, _fold, _ge_rows

from conftest import (
    enumerate_lp_minimum,
    fraction_rref,
    fraction_simplex,
    memo_route,
    point_feasible,
)


def _lp(n, objective, sense, cons):
    return LinearProgram(n, QVector(objective), sense, tuple(constraint(*c) for c in cons))


def _ge(cons):
    """(row, rel, rhs) triples as lp_solve hands them to a Session: >= rows, right-hand sides, signs."""
    return _ge_rows([constraint(*c) for c in cons])


def _session(n, cons):
    rows, rhs, _ = _ge(cons)
    return Session(n, rows, rhs)


def _lists(rows, rhs):
    """>= rows and their right-hand sides as ``Fraction`` lists, for the ``Fraction`` oracles."""
    return [list(r.entries) for r in rows], list(rhs.entries)


def test_min_half():
    res = lp_solve(_lp(1, [1], "min", [([1], GE, F(1, 2))]))
    assert isinstance(res, Optimal)
    assert res.value == F(1, 2)
    assert res.point == QVector([F(1, 2)])


def test_duals_are_built_when_read_and_ignored_by_equality():
    # An Optimal keeps its final reduced row and builds the duals from it on
    # first read; equality compares only the value and the point.
    cons = [([1, 0], GE, 1), ([0, 1], GE, 2)]
    res = lp_solve(_lp(2, [1, 1], "min", cons))
    assert "dual" not in vars(res)
    assert res.dual == (1, 1) and "dual" in vars(res)
    more = lp_solve(_lp(2, [1, 1], "min", cons + [([1, 1], GE, 3)]))
    assert more == res and len(more.dual) == 3
    top = lp_solve(_lp(2, [-1, -1], "max", cons))
    assert top.value == -3 and top.dual == (-1, -1)
    # Phase 2 starts from the session's previous optimum.
    session = _session(2, cons)
    session.minimize(QVector([1, 1]))
    assert session.minimize(QVector([1, 0])).value == 1


def test_unbounded_with_ray():
    p = _lp(2, [1, 1], "max", [([1, 0], GE, 0), ([0, 1], GE, 0)])
    res = lp_solve(p)
    assert isinstance(res, Unbounded)
    ray = res.ray
    # feasible recession direction, strictly improving for max
    assert ray[0] >= 0 and ray[1] >= 0
    assert ray[0] + ray[1] > 0


def test_infeasible():
    res = lp_solve(_lp(1, [0], "min", [([1], GE, 1), ([1], LE, 0)]))
    assert isinstance(res, Infeasible)


def test_equality_handled_natively():
    res = lp_solve(_lp(2, [1, 2], "min", [([1, 1], EQ, 3), ([1, 0], GE, 0), ([0, 1], GE, 0)]))
    assert isinstance(res, Optimal)
    assert res.value == 3  # all weight on x
    assert res.point == QVector([3, 0])


def test_decomposition_failure_system_infeasible():
    # Variables (a1, b1, a2, b2, t1, t2) standing for two quadrant members
    # (a_i, b_i) and two diagonal members (t_i, t_i); the eight sum equations
    # force t-entries negative, so the system has no solution.
    cons = [
        ([1, 0, 0, 0, 0, 0], GE, 0),
        ([0, 1, 0, 0, 0, 0], GE, 0),
        ([0, 0, 1, 0, 0, 0], GE, 0),
        ([0, 0, 0, 1, 0, 0], GE, 0),
        ([0, 0, 0, 0, 1, 0], GE, 0),
        ([0, 0, 0, 0, 0, 1], GE, 0),
        ([1, 0, 1, 0, 0, 0], EQ, 1),  # first coords of column one
        ([0, 1, 0, 1, 0, 0], EQ, 0),
        ([0, 0, 0, 0, 1, 1], EQ, 1),  # diagonal column sums
        ([1, 0, 0, 0, 1, 0], EQ, 2),  # row sums for x1 = (2, 0)
        ([0, 1, 0, 0, 1, 0], EQ, 0),
        ([0, 0, 1, 0, 0, 1], EQ, 0),  # row sums for x2 = (0, 1)
        ([0, 0, 0, 1, 0, 1], EQ, 1),
    ]
    res = lp_solve(_lp(6, [0, 0, 0, 0, 0, 0], "min", cons))
    assert isinstance(res, Infeasible)


def test_optimal_certificate_verifies():
    p = _lp(
        3,
        [2, -1, F(1, 3)],
        "min",
        [
            ([1, 1, 1], LE, 6),
            ([1, -1, 0], GE, -2),
            ([0, 1, 0], LE, 3),
            ([1, 0, 0], GE, -1),
            ([0, 0, 1], GE, -2),
            ([0, 1, 1], GE, -4),
        ],
    )
    res = lp_solve(p)
    assert isinstance(res, Optimal)
    rows = [list(c.row.entries) for c in p.constraints]
    rels = [c.rel for c in p.constraints]
    rhs = [c.rhs for c in p.constraints]
    assert point_feasible(list(res.point.entries), rows, rels, rhs)
    assert p.objective.dot(res.point) == res.value


def _random_bounded_lp(rng):
    n = rng.randint(1, 4)
    bound = 5
    cons = [([1 if j == i else 0 for j in range(n)], GE, -bound) for i in range(n)]
    cons.append(([1] * n, LE, bound))
    extra = rng.randint(0, 1)
    for _ in range(extra):
        row = [rng.randint(-3, 3) for _ in range(n)]
        if all(e == 0 for e in row):
            continue
        cons.append((row, rng.choice([GE, LE]), F(rng.randint(-4, 4))))
    objective = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]
    return n, objective, cons


def test_oracle_equivalence_random():
    rng = random.Random(99)
    solved = 0
    for _ in range(120):
        n, objective, cons = _random_bounded_lp(rng)
        res = lp_solve(_lp(n, objective, "min", cons))
        oracle = enumerate_lp_minimum(
            n, objective, [(r, rel, F(b)) for r, rel, b in cons]
        )
        if isinstance(res, Infeasible):
            assert oracle is None
            continue
        assert isinstance(res, Optimal)
        solved += 1
        assert oracle is not None
        assert res.value == oracle[0]
    assert solved >= 80


def test_duality_certificates():
    rng = random.Random(5)
    checked = 0
    for _ in range(80):
        n, objective, cons = _random_bounded_lp(rng)
        p = _lp(n, objective, "min", cons)
        res = lp_solve(p)
        if not isinstance(res, Optimal):
            continue
        checked += 1
        y = res.dual
        assert y is not None and len(y) == len(p.constraints)
        # stationarity: A^T y = c exactly
        for j in range(n):
            assert sum(y[i] * c.row[j] for i, c in enumerate(p.constraints)) == p.objective[j]
        # sign conditions and strong duality
        for yi, c in zip(y, p.constraints):
            if c.rel == GE:
                assert yi >= 0
            elif c.rel == LE:
                assert yi <= 0
        assert sum(yi * c.rhs for yi, c in zip(y, p.constraints)) == res.value
    assert checked >= 50


def _equality_lp(rng, kind):
    """An LP with == rows of one ``kind``, its == right-hand sides read at a point x*.

    "redundant": a combination of two == rows is appended; "inconsistent":
    the same, with its right-hand side moved off; "full": n independent ==
    rows, so every free column is pivoted in; "only": == rows and nothing
    else, the objective in their row space three times in four. The
    others get a box.
    """
    n = rng.randint(1, 4)
    k = n if kind == "full" else rng.randint(1, n)
    while True:
        eq = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(k)]
        if kind != "full" or len(fraction_rref([list(r) for r in eq])) == n:
            break
    xstar = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
    cons = [(r, EQ, sum(a * x for a, x in zip(r, xstar))) for r in eq]
    if kind in ("redundant", "inconsistent"):
        (r1, _, b1), (r2, _, b2) = rng.choice(cons), rng.choice(cons)
        s, t = F(rng.randint(1, 3)), F(rng.randint(-2, 2))
        b = s * b1 + t * b2 + (rng.choice([-1, 1]) * F(rng.randint(1, 3)) if kind == "inconsistent" else 0)
        cons.insert(rng.randint(0, len(cons)), ([s * a1 + t * a2 for a1, a2 in zip(r1, r2)], EQ, b))
    if kind == "only":
        if rng.random() < 0.75:
            lam = [F(rng.randint(-3, 3)) for _ in eq]
            objective = [sum(l * r[j] for l, r in zip(lam, eq)) for j in range(n)]
        else:
            objective = [F(rng.randint(-3, 3)) for _ in range(n)]
        return n, objective, cons
    # A box around x*, or anywhere (which may miss the == rows' solutions).
    around = rng.random() < 0.7
    for i in range(n):
        unit = [F(int(j == i)) for j in range(n)]
        lo, hi = (xstar[i], xstar[i]) if around else (F(0), F(0))
        cons.append((unit, GE, lo - rng.randint(0, 3)))
        cons.append((unit, LE, hi + rng.randint(0, 3)))
    rng.shuffle(cons)
    return n, [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)], cons


def test_duality_certificates_with_equality_rows():
    # Duals, rays and Farkas vectors over the rows as given, checked by
    # their definitions, for systems with == rows, each solved as a >= pair.
    rng = random.Random(1995)
    outcomes = Counter()
    for trial in range(400):
        kind = ("redundant", "inconsistent", "full", "only")[trial % 4]
        n, objective, cons = _equality_lp(rng, kind)
        rows, rels, rhs = ([c[k] for c in cons] for k in range(3))
        p = _lp(n, objective, "min", cons)
        res = lp_solve(p)
        outcomes[kind, type(res).__name__] += 1
        if isinstance(res, Infeasible):
            assert _farkas_proves(res.farkas, rows, rels, rhs)
            continue
        if isinstance(res, Unbounded):
            ray = res.ray.entries
            assert any(ray) and sum(c * r for c, r in zip(objective, ray)) < 0
            assert point_feasible(ray, rows, rels, [F(0)] * len(rows))
            continue
        assert point_feasible(res.point.entries, rows, rels, rhs)
        assert p.objective.dot(res.point) == res.value
        y = res.dual
        assert len(y) == len(cons)
        for j in range(n):
            assert sum(yi * row[j] for yi, row in zip(y, rows)) == objective[j]
        for yi, rel in zip(y, rels):
            assert not (rel == GE and yi < 0) and not (rel == LE and yi > 0)
        assert sum(yi * b for yi, b in zip(y, rhs)) == res.value
    for kind in ("redundant", "full", "only"):
        assert outcomes[kind, "Optimal"] >= 40, outcomes
    assert outcomes["inconsistent", "Infeasible"] == 100, outcomes
    assert outcomes["full", "Infeasible"] >= 10 and outcomes["only", "Unbounded"] >= 10, outcomes


def test_deterministic():
    rng = random.Random(1)
    for _ in range(20):
        n, objective, cons = _random_bounded_lp(rng)
        p = _lp(n, objective, "min", cons)
        r1, r2 = lp_solve(p), lp_solve(p)
        assert type(r1) is type(r2)
        if isinstance(r1, Optimal):
            assert r1.point == r2.point and r1.value == r2.value


def _random_exactness_lp(rng):
    """A small LP that may be infeasible, unbounded or degenerate.

    Coefficients are rationals with denominators up to 3, and about a
    third of the right-hand sides are zero (degenerate vertices, ratio
    ties) and a third negative. Every <= row and one row of each == pair
    is negated on its way to the >= rows (row flips). Some LPs get an
    equality row that is a combination of two others (redundant rows);
    some get no box, so they can be unbounded.
    """
    n = rng.randint(1, 4)
    cons = []
    for _ in range(rng.randint(1, 5)):
        row = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        b = F(0) if rng.random() < 0.3 else F(rng.randint(-4, 4), rng.randint(1, 2))
        cons.append((row, rng.choice([LE, GE, GE, EQ]), b))
    eqs = [c for c in cons if c[1] == EQ]
    if eqs and rng.random() < 0.5:
        (r1, _, b1), (r2, _, b2) = rng.choice(eqs), rng.choice(eqs)
        s, t = F(rng.randint(1, 3), rng.randint(1, 2)), F(rng.randint(-2, 2))
        cons.append(([s * a1 + t * a2 for a1, a2 in zip(r1, r2)], EQ, s * b1 + t * b2))
    if rng.random() < 0.6:
        for i in range(n):
            unit = [F(int(j == i)) for j in range(n)]
            cons.append((unit, GE, F(-5)))
            cons.append((unit, LE, F(5)))
    objective = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    return n, objective, rng.choice(["min", "max"]), cons


def _all_fractions(entries):
    return all(type(e) is F for e in entries)


def test_integer_tableau_matches_fraction_simplex():
    rng = random.Random(314)
    events = Counter()
    non_integer = 0
    for _ in range(400):
        n, objective, sense, cons = _random_exactness_lp(rng)
        p = _lp(n, objective, sense, cons)
        if any(e.denominator != 1 for c in p.constraints for e in c.row):
            non_integer += 1
        res = lp_solve(p)
        c = [-e for e in objective] if sense == "max" else objective
        ge_rows, ge_rhs, signs = _ge_rows(p.constraints)
        events["row_flip"] += sum(s < 0 for _, s in signs)
        status, vec, duals = fraction_simplex(n, c, *_lists(ge_rows, ge_rhs), events)
        if status == "infeasible":
            assert isinstance(res, Infeasible)
            events["farkas"] += 1
            rows, rels, rhs = ([c[k] for c in cons] for k in range(3))
            assert "farkas" not in vars(res) and _all_fractions(res.farkas)
            assert _farkas_proves(res.farkas, rows, rels, rhs)
            assert not _farkas_proves([-y for y in res.farkas], rows, rels, rhs)
        elif status == "unbounded":
            assert isinstance(res, Unbounded)
            assert res.ray.entries == tuple(vec) and _all_fractions(res.ray)
        else:
            assert isinstance(res, Optimal)
            assert res.point.entries == tuple(vec) and _all_fractions(res.point)
            assert res.value == p.objective.dot(QVector(vec)) and type(res.value) is F
            duals = _fold(duals, signs, len(cons))
            if sense == "max":
                duals = [-y for y in duals]
            assert res.dual == tuple(duals) and _all_fractions(res.dual)
    assert non_integer >= 300
    for event in (
        "optimal", "infeasible", "unbounded", "row_flip", "ratio_tie", "dual_pivot", "farkas",
        "free_entry", "free_entry_decreasing", "free_dual_entry",
    ):
        assert events[event] >= 20, (event, events)


def _farkas_proves(y, rows, rels, rhs):
    """y^T A = 0, y >= 0 on >= rows and <= 0 on <= rows, y . rhs > 0: no x is feasible."""
    n = len(rows[0]) if rows else 0
    if any(sum(yi * row[j] for yi, row in zip(y, rows)) for j in range(n)):
        return False
    if any((rel == GE and yi < 0) or (rel == LE and yi > 0) for yi, rel in zip(y, rels)):
        return False
    return sum(yi * b for yi, b in zip(y, rhs)) > 0


def test_infeasible_compares_without_its_farkas_vector():
    res = lp_solve(_lp(1, [0], "max", [([1], GE, 1), ([1], LE, 0)]))
    assert res == Infeasible() and "farkas" not in vars(res)
    assert res.farkas == (1, -1)


def _proves_minimum(res, c, rows, rhs):
    """An Optimal of c over the >= rows, by its definitions.

    x is feasible with c . x = value, and y >= 0 with A^T y = c and y . b = value.
    """
    x, y = res.point, res.dual
    return (
        all(a.dot(x) >= b for a, b in zip(rows, rhs.entries))
        and c.dot(x) == res.value
        and all(e >= 0 for e in y)
        and all(sum(e * a[j] for e, a in zip(y, rows)) == c[j] for j in range(c.dim))
        and sum(e * b for e, b in zip(y, rhs.entries)) == res.value
    )


def _proves_unbounded(ray, c, rows):
    """A recession direction of the >= rows along which c . x falls."""
    return all(a.dot(ray) >= 0 for a in rows) and c.dot(ray) < 0


def test_session_matches_lp_solve():
    # Several objectives on one Session, in varied order, with the zero
    # objective and repeats. The first solve after build equals a fresh
    # lp_solve exactly. Each later one starts from the previous optimum:
    # it gives lp_solve's verdict and value, and its point, duals and ray
    # are checked by their definitions, as they need not be unique. Rows
    # and right-hand sides of the wrong length are refused.
    systems = random.Random(314)
    pick = random.Random(271)
    outcomes = Counter()
    for _ in range(400):
        n, objective, _, cons = _random_exactness_lp(systems)
        constraints = tuple(constraint(*c) for c in cons)
        ge_rows, ge_rhs, signs = _ge_rows(constraints)
        session = Session(n, ge_rows, ge_rhs)
        objectives = [QVector(objective), QVector.zero(n)] + [
            QVector([F(pick.randint(-4, 4), pick.randint(1, 3)) for _ in range(n)])
            for _ in range(2)
        ]
        objectives += pick.sample(objectives, 2)
        pick.shuffle(objectives)
        for i, c in enumerate(objectives):
            got = session.minimize(c)
            want = lp_solve(LinearProgram(n, c, "min", constraints))
            assert type(got) is type(want)
            outcomes[type(got).__name__] += 1
            if isinstance(want, Optimal):
                assert got.value == want.value
                if i == 0:
                    assert got.point.entries == want.point.entries
                    assert tuple(_fold(got.dual, signs, len(cons))) == want.dual
                else:
                    assert _proves_minimum(got, c, ge_rows, ge_rhs)
            elif isinstance(want, Unbounded):
                if i == 0:
                    assert got.ray.entries == want.ray.entries
                else:
                    assert _proves_unbounded(got.ray, c, ge_rows)
        zero = lp_solve(LinearProgram(n, QVector.zero(n), "min", constraints))
        point = session.feasible_point()
        assert session.feasible == (point is not None) == isinstance(zero, Optimal)
        if point is not None:
            assert all(a.dot(point) >= b for a, b in zip(ge_rows, ge_rhs.entries))
    for outcome in ("Optimal", "Infeasible", "Unbounded"):
        assert outcomes[outcome] >= 100, outcomes
    # A session needs n entries per row and one right-hand side per row.
    units = [QVector([1, 0]), QVector([0, 1])]
    for rows, rhs in ((units, QVector([1])), (units, QVector([1, 1, 1])), ([QVector([1]), units[1]], QVector([1, 1]))):
        with pytest.raises(ValueError):
            Session(2, rows, rhs)


def test_farkas_without_positive_rhs_is_internal_invariant(monkeypatch):
    # A dual simplex that stops at a row proving nothing must not give a
    # verdict, in lp_solve or in the cold session of a Warm's trial.
    # Feasible: row 0 reads -x + s = 1 at the slack basis, so its w . b is -1.
    monkeypatch.setattr(lp_module, "_dual_run", lambda *args: (0, 0))
    with pytest.raises(InternalInvariantError):
        lp_solve(_lp(1, [1], "min", [([1], GE, -1)]))
    with pytest.raises(InternalInvariantError):
        Warm(1, [QVector([1])], [(QVector([1]), [(1, 0)])]).solve(QVector([-1]))
    # Infeasible, but row 1 reads x + s = 0 at the slack basis: its w . b is 0.
    monkeypatch.setattr(lp_module, "_dual_run", lambda *args: (1, 0))
    with pytest.raises(InternalInvariantError):
        lp_solve(_lp(1, [1], "min", [([1], GE, 1), ([1], LE, 0)]))


def test_no_pivot_at_a_feasible_slack_basis(monkeypatch):
    # <= rows with b >= 0 and >= rows with b <= 0 are feasible at the slack
    # basis (x = 0), so phase 1 pivots nowhere.
    pivots = Counter()
    pivot = lp_module._pivot

    def counted(*args):
        pivots["pivot"] += 1
        return pivot(*args)

    monkeypatch.setattr(lp_module, "_pivot", counted)
    rng = random.Random(4242)
    for _ in range(100):
        n = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 6)):
            row = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            b = F(rng.randint(0, 4), rng.randint(1, 2))
            cons.append((row, LE, b) if rng.random() < 0.5 else (row, GE, -b))
        rows, rhs, _ = _ge(cons)
        session = Session(n, rows, rhs)
        assert session.feasible and session.pivots == 0
        assert session.feasible_point() == QVector.zero(n)
    assert pivots["pivot"] == 0


def _transport_system(rng):
    """Row and column sums of a p x q block z >= 0 (or z_11 free): one sum row is redundant."""
    p, q = rng.randint(1, 3), rng.randint(1, 3)
    cell = lambda i, j: [int(k == i * q + j) for k in range(p * q)]
    cons = [(cell(i, j), GE, F(0)) for i in range(p) for j in range(q) if i or j or rng.random() < 0.5]
    rs = [F(rng.randint(0, 4)) for _ in range(p)]
    cs = [F(rng.randint(0, 4)) for _ in range(q - 1)]
    cs.append(sum(rs) - sum(cs))
    cons += [([sum(cell(i, j)[k] for j in range(q)) for k in range(p * q)], EQ, r) for i, r in enumerate(rs)]
    cons += [([sum(cell(i, j)[k] for i in range(p)) for k in range(p * q)], EQ, c) for j, c in enumerate(cs)]
    return p * q, cons


def _new_rhs(rng, cons):
    """Base values, some negated or zeroed, some redrawn; and sometimes every one moved."""
    out = []
    for _, _, b in cons:
        r = rng.random()
        if r < 0.3:
            out.append(b)
        elif r < 0.45:
            out.append(-b)
        elif r < 0.55:
            out.append(F(0))
        else:
            out.append(F(rng.randint(-4, 4), rng.randint(1, 2)))
    return out


def _free_column_system(rng):
    """A system with a free column that no row pivots in, and objectives for it.

    Either an LP of ``_random_exactness_lp`` with a variable inserted that
    no row reads, or msup's P for translated wedges whose normals are all
    orthogonal to one direction d, so that C has lineality: the objectives
    are then C's normals, their sum, and a random one.
    """
    if rng.random() < 0.5:
        n, objective, _, cons = _random_exactness_lp(rng)
        j = rng.randint(0, n)
        cons = [([*r[:j], F(0), *r[j:]], rel, b) for r, rel, b in cons]
        objective = [*objective[:j], F(rng.randint(-1, 1)), *objective[j:]]
        return n + 1, cons, [QVector(objective)]
    dim = 3
    d = [rng.randint(-2, 2) for _ in range(dim)]
    if not any(d):
        d[0] = 1
    dd = sum(e * e for e in d)
    family = []
    for _ in range(rng.randint(1, 3)):
        normals = []
        for _ in range(rng.randint(1, 3)):
            a = [rng.randint(-3, 3) for _ in range(dim)]
            ad = sum(x * y for x, y in zip(a, d))
            a = QVector([dd * x - ad * y for x, y in zip(a, d)])
            if not a.is_zero():
                normals.append(a)
        if normals:
            apex = QVector([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)])
            family.append(TranslatedWedge(apex, Wedge(dim, halfspaces=normals)))
    if not family:
        return _free_column_system(rng)
    cons = [(a.entries, GE, a.dot(tw.apex)) for tw in family for a in tw.wedge.halfspaces]
    normals = list(intersect([tw.wedge for tw in family]).canonical_halfspaces)
    random_objective = QVector([rng.randint(-2, 2) for _ in range(dim)])
    return dim, cons, [*normals, sum(normals, QVector.zero(dim)), random_objective]


def _optimum_systems(rng):
    """(kind, n, cons, objectives): systems with == rows (as >= pairs) or with a free column no row pivots in."""
    for trial in range(300):
        if trial % 2:
            n, cons = _transport_system(rng)
            objectives = [QVector([rng.randint(-3, 3) for _ in range(n)]) for _ in range(3)]
            kind = "equality"
        else:
            n, cons, objectives = _free_column_system(rng)
            kind = "free"
        objectives += [QVector.zero(n), QVector([rng.randint(-3, 3) for _ in range(n)])]
        yield kind, n, cons, objectives


def test_warm_minimize_matches_cold_minima():
    # Minimizing in sequence on one session, each objective from the
    # previous result, reaches every cold value, with no pivot where the
    # basis is already optimal for the objective, at optima of systems
    # with == rows (as >= pairs) and of systems with a free column that no
    # row pivots in.
    outcomes = Counter()
    for kind, n, cons, objectives in _optimum_systems(random.Random(2003)):
        session = _session(n, cons)
        colds = [_session(n, cons).minimize(c) for c in objectives]
        for a in objectives:
            if not isinstance(session.minimize(a), Optimal):
                continue
            for c, cold in zip(objectives, colds):
                pivots = session.pivots
                warm = session.minimize(c)
                assert type(warm) is type(cold)
                if isinstance(cold, Optimal):
                    assert warm.value == cold.value
                    outcomes[kind, "no pivot" if session.pivots == pivots else "pivoted"] += 1
                else:
                    outcomes[kind, "unbounded"] += 1
    # The sums of a transport system bound every cell, so no minimum there is unbounded.
    for kind, outcome in [*product(("equality", "free"), ("no pivot", "pivoted")), ("free", "unbounded")]:
        assert outcomes[kind, outcome] >= 20, outcomes


def test_results_are_values_and_a_kept_optimum_costs_no_pivot():
    # Each solve moves the session's one basis, and its results are
    # values: an Optimal's value, point and duals (read at once or first
    # read once the session has moved on) and an Unbounded's ray do not
    # change with later minimize calls, and late duals still prove the
    # value. Minimizing c again at c's optimum takes no pivot and gives
    # c . point. Every minimum, the ones after an unbounded objective
    # included, has a cold session's verdict and value.
    rng = random.Random(1941)
    outcomes = Counter()
    for _, n, cons, objectives in _optimum_systems(rng):
        rows, rhs, _ = _ge(cons)
        session = Session(n, rows, rhs)
        kept, after_ray = [], False
        for c in objectives:
            pivots = session.pivots
            res, cold = session.minimize(c), Session(n, rows, rhs).minimize(c)
            assert type(res) is type(cold)
            if after_ray:
                outcomes["after ray", type(res).__name__] += 1
            after_ray = isinstance(res, Unbounded)
            if after_ray:
                kept.append((c, res, res.ray.entries, list(session._basis)))
                continue
            if not isinstance(res, Optimal):
                continue
            assert res.value == cold.value
            outcomes["no pivot" if session.pivots == pivots else "pivoted"] += 1
            pivots = session.pivots
            again = session.minimize(c)
            assert session.pivots == pivots and again.value == c.dot(res.point) and again.point == res.point
            for r in (res, again):
                early = r.dual if len(kept) % 2 else None
                kept.append((c, r, (r.value, r.point.entries, early), list(session._basis)))
        for c in reversed(objectives):
            session.minimize(c)
        for c, res, before, basis in kept:
            moved = session._basis != basis
            if isinstance(res, Unbounded):
                assert res.ray.entries == before and _proves_unbounded(res.ray, c, rows)
                outcomes["ray", moved] += 1
                continue
            value, point, early = before
            assert (res.value, res.point.entries) == (value, point)
            if early is not None:
                assert res.dual == early
            else:
                assert _proves_minimum(res, c, rows, rhs)
                outcomes["late dual", moved] += 1
    for outcome in ("no pivot", "pivoted", ("after ray", "Optimal"), ("ray", True), ("late dual", True)):
        assert outcomes[outcome] >= 20, outcomes


def test_warm_keeps_one_session(monkeypatch):
    # One Warm across the trials of one system, built with its rows,
    # right-hand-side map and an objective bounded below (a nonnegative
    # combination of the rows); a trial passes only its right-hand sides.
    # A trial that a kept Farkas vector refutes, or that lies inside a
    # kept region, builds no session and takes no pivot, and a region's
    # point is feasible and attains the cold minimum. Any other trial
    # builds a cold session of the kept rows: its point is a cold
    # session's minimizer, with the same pivots, and the session's Farkas
    # vector or basis is kept.
    calls = Counter()
    pivot, init = lp_module._pivot, Session.__init__

    def counted(*args):
        calls["pivot"] += 1
        return pivot(*args)

    def built(self, *args):
        calls["session"] += 1
        init(self, *args)

    monkeypatch.setattr(lp_module, "_pivot", counted)
    monkeypatch.setattr(Session, "__init__", built)

    # x >= b1 and -x >= b2, with b_r = theta_r: infeasible exactly when
    # b1 + b2 > 0. A Warm keeps the Farkas vector of its infeasible
    # session, and checks the length of a trial's right-hand sides before
    # any kept entry.
    one = QVector([1])
    warm = Warm(1, [one, -one], [(one, [(1, 0)]), (one, [(1, 1)])])
    assert warm.solve(warm.rhs([one, QVector([0])])) == (False, None)
    [proof] = warm._proofs
    assert proof.refutes(QVector([1, 0])) and not proof.refutes(QVector([0, -1]))
    assert memo_route(warm, QVector([3, -2])) == "farkas"
    assert warm.solve(QVector([3, -2])) == (False, None) and calls["session"] == 1
    for rhs in (QVector([5]), QVector([1, 0, 7])):
        with pytest.raises(ValueError):
            warm.solve(rhs)
    assert warm.solve(warm.rhs([QVector([0]), QVector([F(-1, 2)])])) == (True, QVector([0]))

    rng = random.Random(1153)
    outcomes = Counter()
    for _ in range(150):
        n, _, _, cons = _random_exactness_lp(rng)
        rows, rels = ([c[k] for c in cons] for k in range(2))
        ge_rows, ge_rhs, _ = _ge(cons)
        objective = sum((rng.randint(0, 2) * a for a in ge_rows), QVector.zero(n))
        warm = Warm(n, ge_rows, [(one, [(1, r)]) for r in range(len(ge_rows))], [objective])
        assert warm.objectives == [objective, objective]
        assert memo_route(warm, ge_rhs) == "session"
        warm.solve(ge_rhs)
        for _ in range(6):
            new_rhs = _new_rhs(rng, cons)
            ge_new = _ge(zip(rows, rels, new_rhs))[1]
            cold = Session(n, ge_rows, ge_new)
            proofs, regions = list(warm._proofs), list(warm._regions)
            route, before = memo_route(warm, ge_new), calls.copy()
            assert warm.rhs([QVector([b]) for b in ge_new.entries]) == ge_new
            feasible, point = warm.solve(ge_new)
            pivots = calls["pivot"] - before["pivot"]
            assert feasible == cold.feasible
            if route == "session":
                assert calls["session"] == before["session"] + 1
                if feasible:
                    minimum = cold.minimize(objective)
                    assert point == minimum.point and pivots == cold.pivots
                    assert warm._proofs == proofs and warm._regions[:-1] == regions
                else:
                    assert point is None and pivots == cold.pivots
                    assert warm._proofs[:-1] == proofs and warm._regions == regions
                outcomes["session", feasible] += 1
                continue
            assert route in ("farkas", "region") and (warm._proofs, warm._regions) == (proofs, regions)
            assert calls["session"] == before["session"] and pivots == 0
            if route == "farkas":
                assert point is None and not feasible
                outcomes["refuted"] += 1
            else:
                assert point_feasible(point.entries, rows, rels, new_rhs)
                assert objective.dot(point) == cold.minimize(objective).value
                outcomes["region"] += 1
    for outcome in ("refuted", "region", ("session", True), ("session", False)):
        assert outcomes[outcome] >= 20, outcomes


def test_warm_solve_gives_a_common_minimizer_exactly_when_one_exists():
    # Warm.solve's contract, on objectives that are nonnegative integer
    # combinations of the rows (so bounded below wherever the rows hold),
    # one of them repeated, or on none, with one Warm reused across
    # right-hand sides: its verdict is lp_solve's; it returns a point
    # exactly when the rows with every c . x == m_c added, m_c the cold
    # minimum of c, are feasible; and that point is feasible and attains
    # every m_c. With no objective a cold session's point is its phase-1
    # point. Gated on every route Warm.solve takes, with objectives and
    # without.
    one = QVector([1])
    rng = random.Random(3301)
    outcomes = Counter()
    for system in range(160):
        n, _, _, cons = _random_exactness_lp(rng)
        rows, rels = ([c[k] for c in cons] for k in range(2))
        ge_rows, ge_rhs, _ = _ge(cons)
        objectives = []
        if system % 5:
            for _ in range(rng.randint(1, 3)):
                objectives.append(sum((rng.randint(0, 2) * a for a in ge_rows), QVector.zero(n)))
            objectives.append(rng.choice(objectives))
        warm = Warm(n, ge_rows, [(one, [(1, r)]) for r in range(len(ge_rows))], objectives)
        for trial in range(10):
            new_rhs = [b for _, _, b in cons] if trial == 0 else _new_rhs(rng, cons)
            new = [constraint(r, rel, b) for r, rel, b in zip(rows, rels, new_rhs)]
            ge_new = _ge(zip(rows, rels, new_rhs))[1]
            route = memo_route(warm, ge_new)
            feasible, point = warm.solve(ge_new)
            verdict = lp_solve(LinearProgram(n, QVector.zero(n), "min", tuple(new)))
            assert feasible == (not isinstance(verdict, Infeasible))
            outcomes[route, bool(objectives)] += 1
            if not feasible:
                assert point is None
                continue
            minima = [lp_solve(LinearProgram(n, c, "min", tuple(new))) for c in objectives]
            attained = [constraint(c.entries, EQ, res.value) for c, res in zip(objectives, minima)]
            common = lp_solve(LinearProgram(n, QVector.zero(n), "min", tuple(new + attained)))
            assert (point is not None) == isinstance(common, Optimal)
            outcomes["common" if point is not None else "none", bool(objectives)] += 1
            if point is None:
                continue
            assert point_feasible(point.entries, rows, rels, new_rhs)
            assert [c.dot(point) for c in objectives] == [res.value for res in minima]
            if not objectives and route == "session":
                assert point == Session(n, ge_rows, ge_new).feasible_point()
    routes = [(route, True) for route in ("farkas", "region", "optima", "session")]
    routes += [(route, False) for route in ("farkas", "region", "session")]
    for outcome in (*routes, ("common", True), ("none", True), ("common", False)):
        assert outcomes[outcome] >= 20, outcomes


def _pair_folded(y, cons):
    """Multipliers of ``cons`` from those of its pair form: a == row's is its a >= b row's minus its -a >= -b row's."""
    out, k = [], 0
    for _, rel, _ in cons:
        out.append(y[k] - y[k + 1] if rel == EQ else y[k])
        k += 2 if rel == EQ else 1
    return out


def test_lp_solve_equals_its_ge_pair_form():
    # lp_solve's contract for == rows: the LP with each == row a . x == b
    # written as the pair a . x >= b, -a . x >= -b has the same verdict,
    # value, point and ray, and each == multiplier, dual or Farkas, is the
    # signed sum over its pair.
    rng = random.Random(1977)
    outcomes = Counter()
    while sum(outcomes.values()) < 400:
        n, objective, sense, cons = _random_exactness_lp(rng)
        if all(rel != EQ for _, rel, _ in cons):
            continue
        pairs = []
        for r, rel, b in cons:
            pairs += [(r, GE, b), ([-a for a in r], GE, -b)] if rel == EQ else [(r, rel, b)]
        got, want = lp_solve(_lp(n, objective, sense, cons)), lp_solve(_lp(n, objective, sense, pairs))
        assert type(got) is type(want)
        outcomes[type(got).__name__] += 1
        if isinstance(got, Optimal):
            assert got.value == want.value and got.point.entries == want.point.entries
            assert list(got.dual) == _pair_folded(want.dual, cons)
        elif isinstance(got, Unbounded):
            assert got.ray.entries == want.ray.entries
        else:
            assert list(got.farkas) == _pair_folded(want.farkas, cons)
    for outcome in ("Optimal", "Unbounded", "Infeasible"):
        assert outcomes[outcome] >= 50, outcomes
