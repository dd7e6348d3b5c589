import random
from collections import Counter
from fractions import Fraction as F

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
    Unbounded,
    constraint,
    lp_solve,
)
from multiwedge.lp import Session

from conftest import enumerate_lp_minimum, fraction_simplex, point_feasible


def _lp(n, objective, sense, cons):
    return LinearProgram(n, QVector(objective), sense, tuple(constraint(*c) for c in cons))


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
    # Pricing reads an optimum of the session that found it.
    session = Session(2, [constraint(*c) for c in cons])
    with pytest.raises(ValueError):
        session.price(res, QVector([1, 0]))
    assert session.price(session.minimize(QVector([1, 1])), QVector([1, 0])) == 1


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
    ties) and a third negative (row flips). Some LPs get an equality row that is a
    combination of two others (redundant rows); some get no box, so they
    can be unbounded.
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
        status, vec, duals = fraction_simplex(
            n, c, [list(r) for r, _, _ in cons], [rel for _, rel, _ in cons],
            [b for _, _, b in cons], events,
        )
        if status == "infeasible":
            assert isinstance(res, Infeasible)
        elif status == "unbounded":
            assert isinstance(res, Unbounded)
            assert res.ray.entries == tuple(vec) and _all_fractions(res.ray)
        else:
            assert isinstance(res, Optimal)
            assert res.point.entries == tuple(vec) and _all_fractions(res.point)
            assert res.value == p.objective.dot(QVector(vec)) and type(res.value) is F
            if sense == "max":
                duals = [-y for y in duals]
            assert res.dual == tuple(duals) and _all_fractions(res.dual)
    assert non_integer >= 300
    for event in ("optimal", "infeasible", "unbounded", "row_flip", "row_deleted", "ratio_tie"):
        assert events[event] >= 20, (event, events)


def test_session_matches_lp_solve():
    # Several objectives on one Session, in varied order, with the zero
    # objective and repeats: each result equals a fresh lp_solve, so no
    # phase 2 leaves anything behind for the next one.
    systems = random.Random(314)
    pick = random.Random(271)
    outcomes = Counter()
    for _ in range(400):
        n, objective, _, cons = _random_exactness_lp(systems)
        constraints = tuple(constraint(*c) for c in cons)
        session = Session(n, constraints)
        objectives = [QVector(objective), QVector.zero(n)] + [
            QVector([F(pick.randint(-4, 4), pick.randint(1, 3)) for _ in range(n)])
            for _ in range(2)
        ]
        objectives += pick.sample(objectives, 2)
        pick.shuffle(objectives)
        for c in objectives:
            got = session.minimize(c)
            want = lp_solve(LinearProgram(n, c, "min", constraints))
            assert type(got) is type(want)
            outcomes[type(got).__name__] += 1
            if isinstance(want, Optimal):
                assert got.point.entries == want.point.entries and got.value == want.value
                assert got.dual == want.dual
            elif isinstance(want, Unbounded):
                assert got.ray.entries == want.ray.entries
        zero = lp_solve(LinearProgram(n, QVector.zero(n), "min", constraints))
        point = session.feasible_point()
        assert session.feasible == (point is not None) == isinstance(zero, Optimal)
        if point is not None:
            assert point.entries == zero.point.entries
    for outcome in ("Optimal", "Infeasible", "Unbounded"):
        assert outcomes[outcome] >= 100, outcomes


def test_unbounded_phase_one_is_internal_invariant(monkeypatch):
    monkeypatch.setattr(lp_module, "_run", lambda *args: ("unbounded", 0))
    with pytest.raises(InternalInvariantError):
        lp_solve(_lp(1, [1], "min", [([1], GE, 1)]))
