import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from multiwedge import (
    InconsistentValues,
    InvalidInstance,
    NoMultiSupremum,
    NotInSumWedge,
    NotMultiBoundedAbove,
    NotMultiBoundedBelow,
    QMatrix,
    QVector,
    RDPInstance,
    RDPViolated,
    Wedge,
    ZeroSpace,
    decomposition_ok,
    dual_wedge,
    extend_additive,
    fs_decompose,
    functional_msup,
    is_cone,
    is_generating,
    lineality,
    multi_bounded_above,
    op_is_positive,
    op_minf,
    op_msup,
    op_wedge_is_cone,
    op_wedge_lineality,
    projections,
    rdp_check,
    rdp_search,
    rk_value,
    span_contains,
    wedge_sum,
)
from multiwedge.multiorder import TranslatedWedge, minf, msup
from multiwedge.linalg import _common
from multiwedge.operators import _images, _rdp_system, _rk_sups
from multiwedge.wedges import coordinate_wedge

from conftest import (
    VertexEnumerator,
    annihilator_op_lineality,
    cold_rdp_search,
    decomposition_rows,
    diagonal_ray,
    drawn_member,
    fraction_random_member,
    operator_family,
    polytope_vertices,
    positive_ray,
    primal_rdp_check,
    primal_rk_value,
    quadrant,
    rand_acute_cone,
    rand_member,
    rand_vector,
    rand_wedge,
    standard_cone,
)

V = QVector
M = QMatrix.from_rows


# --- positivity -----------------------------------------------------------


def test_positive_identity_on_quadrant():
    assert op_is_positive(QMatrix.identity(2), quadrant(), quadrant())
    assert not op_is_positive(-QMatrix.identity(2), quadrant(), quadrant())


def test_positive_functional_on_diagonal():
    t = M([[1, 0]])
    assert op_is_positive(t, diagonal_ray(), positive_ray())
    assert not op_is_positive(t, quadrant(), Wedge(1, halfspaces=[V([-1])]))


# --- operator wedge lineality and cone criterion --------------------------


def test_op_lineality_cone_case_empty():
    assert op_wedge_lineality([quadrant()], [quadrant()]) == []


def test_op_lineality_nongenerating_domain():
    basis = op_wedge_lineality([diagonal_ray()], [positive_ray()])
    assert len(basis) == 1
    t = basis[0]
    assert t.rows == 1 and t.cols == 2
    assert t.apply(V([1, 1])) == V([0])


def test_op_lineality_full_codomain():
    basis = op_wedge_lineality([quadrant()], [Wedge(2, halfspaces=[])])
    assert len(basis) == 4


def test_op_wedge_is_cone():
    assert op_wedge_is_cone([quadrant()], [quadrant()])
    assert not op_wedge_is_cone([diagonal_ray()], [quadrant()])
    assert not op_wedge_is_cone([quadrant()], [Wedge(2, halfspaces=[V([1, 0])])])
    with pytest.raises(ZeroSpace):
        op_wedge_is_cone([Wedge(0, generators=[])], [quadrant()])


def test_cone_criterion_matches_lineality_sampled():
    rng = random.Random(17)
    from conftest import rand_wedge

    for _ in range(80):
        dim_e = rng.randint(1, 3)
        dim_f = rng.randint(1, 3)
        ws = [rand_wedge(rng, dim_e) for _ in range(rng.randint(1, 2))]
        vs = [rand_wedge(rng, dim_f) for _ in range(rng.randint(1, 2))]
        assert op_wedge_is_cone(ws, vs) == (not op_wedge_lineality(ws, vs))


# --- extension of additive maps -------------------------------------------


def test_extend_identity():
    w = quadrant()
    t = extend_additive(w, {V([1, 0]): V([1, 0]), V([0, 1]): V([0, 1])}, 2)
    assert t == QMatrix.identity(2)


def test_extend_zero_on_greedy_complement():
    w = diagonal_ray()
    t = extend_additive(w, {V([1, 1]): V([2])}, 1)
    assert t.apply(V([1, 1])) == V([2])
    assert t.apply(V([1, 0])) == V([0])  # zero on the kept complement e1
    assert t == M([[0, 2]])


def test_extend_inconsistent_values():
    w = Wedge(2, generators=[V([1, 0]), V([0, 1]), V([1, 1])])
    with pytest.raises(InconsistentValues):
        extend_additive(
            w, {V([1, 0]): V([1]), V([0, 1]): V([1]), V([1, 1]): V([3])}, 1
        )


def test_extend_value_of_wrong_length_raises():
    # Each value must have codomain_dim entries, whether its generator is
    # one the extension solves for (the first two) or one it checks (the third).
    w = Wedge(2, generators=[V([1, 0]), V([0, 1]), V([1, 1])])
    good = {V([1, 0]): V([1]), V([0, 1]): V([2]), V([1, 1]): V([3])}
    assert extend_additive(w, good, 1) == M([[1, 2]])
    for g in good:
        with pytest.raises(ValueError, match="codomain_dim"):
            extend_additive(w, {**good, g: V([1, 0])}, 1)


def test_extend_complement_independent_when_generating():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 4)
        w = standard_cone(n)
        target = QMatrix(
            2, n, [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2 * n)]
        )
        values = {g: target.apply(g) for g in w.generators}
        assert extend_additive(w, values, 2) == target


# --- projections -----------------------------------------------------------


def test_projections_cone():
    pp = projections(quadrant())
    assert pp.p_d == QMatrix.zeros(2, 2)
    assert pp.p_u == QMatrix.identity(2)


def test_projections_halfspace():
    pp = projections(Wedge(2, halfspaces=[V([1, 0])]))
    # D(V) is the y-axis; the greedy complement is the x-axis
    assert pp.p_u == M([[1, 0], [0, 0]])
    assert pp.p_d + pp.p_u == QMatrix.identity(2)
    assert pp.p_d @ pp.p_d == pp.p_d


def test_projections_whole_space():
    pp = projections(Wedge(2, halfspaces=[]))
    assert pp.p_u == QMatrix.zeros(2, 2)


def test_projection_identities_sampled():
    rng = random.Random(32)
    from conftest import rand_vector, rand_wedge

    for _ in range(80):
        dim = rng.randint(1, 4)
        v_wedge = rand_wedge(rng, dim)
        pp = projections(v_wedge)
        lin = lineality(v_wedge)
        x = rand_vector(rng, dim)
        # x - p_u(x) lies in D(V)
        assert span_contains(lin, x - pp.p_u.apply(x), dim)
        # a - b in D(V) implies p_u(a) = p_u(b)
        if lin:
            d = QVector.zero(dim)
            for b in lin:
                d = d + F(rng.randint(-2, 2)) * b
            a = rand_vector(rng, dim)
            assert pp.p_u.apply(a) == pp.p_u.apply(a - d)


def test_rk_sups_witnesses_lie_in_the_range_of_p_u():
    # solve_linear's particular solution is zero off the pivot columns of
    # V's normals, the greedy complement of D(V): p_u fixes every witness,
    # so op_msup applies no projection.
    rng = random.Random(6061)
    seen = Counter()
    for _ in range(300):
        q, p, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        wedges = [rand_wedge(rng, q) for _ in range(k)]
        v_wedge = rand_wedge(rng, p)
        ops = [QMatrix(p, q, [rng.randint(-3, 3) for _ in range(p * q)]) for _ in range(k)]
        sum_gens = wedge_sum(wedges).canonical_generators
        try:
            witnesses = _rk_sups(_images(ops, wedges), q, v_wedge, sum_gens)
        except (NotMultiBoundedAbove, NotInSumWedge, NoMultiSupremum):
            seen["refused"] += 1
            continue
        p_u = projections(v_wedge).p_u
        for z in witnesses:
            assert p_u.apply(z) == z
            seen["line in V" if lineality(v_wedge) else "pointed V"] += 1
            seen["nonzero"] += not z.is_zero()
    assert min(seen[c] for c in ("refused", "line in V", "pointed V", "nonzero")) >= 50, seen


# --- decomposition checking ------------------------------------------------


def known_failure_instance():
    return RDPInstance(
        (quadrant(), diagonal_ray()),
        (V([2, 0]), V([0, 1])),
        (V([1, 0]), V([1, 1])),
    )


def test_rdp_check_failure_instance():
    assert rdp_check(known_failure_instance()) is None


def test_rdp_check_single_x():
    inst = RDPInstance(
        (quadrant(), diagonal_ray()),
        (V([3, 2]),),
        (V([1, 0]), V([2, 2])),
    )
    z = rdp_check(inst)
    assert z is not None
    assert decomposition_ok(inst, z)


def test_rdp_check_coordinate_wedges():
    ws = (coordinate_wedge(3, 0), coordinate_wedge(3, 1))
    ys = (V([2, -1, 1]), V([0, 3, -2]))
    xs = (V([1, 1, 0]), V([1, 1, -1]))
    inst = RDPInstance(ws, xs, ys)
    z = rdp_check(inst)
    assert z is not None and decomposition_ok(inst, z)


def test_rdp_check_invalid_instance():
    bad = RDPInstance(
        (quadrant(),),
        (V([1, 0]),),
        (V([-1, 0]),),  # not a member of the quadrant
    )
    with pytest.raises(InvalidInstance):
        rdp_check(bad)


def test_rdp_check_invalid_instance_outside_the_sum_wedge():
    # Every other invariant holds: y is in the quadrant and the sums agree.
    # The check of x_1 = (-1, 0) runs once the system has no solution.
    bad = RDPInstance((quadrant(),), (V([-1, 0]), V([2, 1])), (V([1, 1]),))
    with pytest.raises(InvalidInstance, match="^some x_i is outside the sum of the wedges$"):
        rdp_check(bad)


def test_rdp_check_converts_no_sum_wedge_when_it_decomposes(monkeypatch):
    # A decomposition z puts every x_i = sum_j z_ij in the sum wedge.
    from multiwedge import operators

    calls = []
    monkeypatch.setattr(operators, "wedge_sum", lambda ws: calls.append(ws) or wedge_sum(ws))
    inst = RDPInstance(
        (coordinate_wedge(3, 0), coordinate_wedge(3, 1)),
        (V([1, 1, 0]), V([1, 1, -1])),
        (V([2, -1, 1]), V([0, 3, -2])),
    )
    z = rdp_check(inst)
    assert z is not None and decomposition_ok(inst, z)
    assert calls == []


def test_rdp_search_finds_failure():
    found = rdp_search([quadrant(), diagonal_ray()], 2, 2, seed=0, budget=500)
    assert found is not None
    assert rdp_check(found) is None


def test_rdp_search_coordinate_wedges_none():
    ws = [coordinate_wedge(4, s) for s in range(4)]
    assert rdp_search(ws, 3, 3, seed=0, budget=500) is None


def test_rdp_search_single_wedge_trivial():
    assert rdp_search([quadrant()], 1, 1, seed=0, budget=50) is None


def test_warm_rdp_search_matches_cold_search():
    # Re-solved checks give each verdict exactly, so the first failing
    # instance (or none) is that of a cold session per check, on every seed:
    # ex3.7's quadrant and ray, coordinate wedges and random wedges with
    # lines, for m, n = 1..3. The last 300 runs draw wedges with entries
    # p/q, q <= 4, so that a system's rows, given halfspaces, have a
    # common denominator D > 1 over which the halves' right-hand sides
    # are taken.
    rng = random.Random(1729)
    coordinate = [coordinate_wedge(3, s) for s in range(3)]
    found = Counter()
    for run in range(700):
        kind = run % 3 if run < 400 else 3
        if kind == 0:
            wedges = [quadrant(), diagonal_ray()]
        elif kind == 1:
            wedges = coordinate
        else:
            dim = rng.randint(1, 3)
            max_den = 4 if kind == 3 else 1
            wedges = [rand_wedge(rng, dim, max_den=max_den) for _ in range(rng.randint(1, 3))]
        m, n = 1 + run % 3, 1 + (run // 3) % 3
        seed, budget = rng.randrange(1 << 20), rng.randint(4, 16)
        got = rdp_search(wedges, m, n, seed=seed, budget=budget)
        assert got == cold_rdp_search(wedges, m, n, seed=seed, budget=budget)
        if kind < 3:
            found[got is not None] += 1
        elif any(a.den > 1 for w in wedges for a in w.halfspaces):
            found["D > 1", got is not None] += 1
    assert found[True] >= 25 and found[False] >= 100, found
    assert found["D > 1", True] >= 20 and found["D > 1", False] >= 100, found


def test_rdp_check_with_warm_matches_cold():
    # Instances on the same wedges in the same order share one Warm, as the
    # search's sorted instances do, and every verdict is read.
    rng = random.Random(4242)
    outcomes = Counter()
    for run in range(40):
        if run % 2 == 0:
            wedges = [quadrant(), diagonal_ray()]
        else:
            dim = rng.randint(1, 3)
            wedges = [rand_wedge(rng, dim) for _ in range(rng.randint(1, 3))]
        m, n, warm = 1 + run % 3, 2 + run % 2, {}
        for _ in range(20):
            js = tuple(rng.randrange(len(wedges)) for _ in range(n))
            ws = tuple(wedges[j] for j in js)
            ys = [drawn_member(rng, w) for w in ws]
            xs = [drawn_member(rng, wedge_sum(ws)) for _ in range(m - 1)]
            xs.append(sum(ys, V.zero(ws[0].dim)) - sum(xs, V.zero(ws[0].dim)))
            inst = RDPInstance(ws, tuple(xs), tuple(ys))
            try:
                cold = rdp_check(inst)
            except InvalidInstance:
                continue
            if js not in warm:
                warm[js] = _rdp_system(ws, m)
            feasible, _ = warm[js].solve(warm[js].rhs(*_common((*xs, *ys))))
            assert feasible == (cold is not None)
            outcomes[not feasible] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 100, outcomes


def test_rdp_check_matches_primal_system():
    # The transportation form decides as the m * n * dim system of == sum
    # rows does, on random wedges with lines included, for m, n = 1..3.
    # With m = 1 or n = 1 it has no variable, and z is fixed: the ys, or
    # one x per row.
    rng = random.Random(2112)
    outcomes = Counter()
    for run in range(1500):
        dim = rng.randint(1, 3)
        wedges = [rand_wedge(rng, dim) for _ in range(rng.randint(1, 3))]
        m, n = 1 + run % 3, 1 + (run // 3) % 3
        ws = tuple(rng.choice(wedges) for _ in range(n))
        sw = wedge_sum(ws)
        ys = tuple(drawn_member(rng, w) for w in ws)
        xs = [drawn_member(rng, sw) for _ in range(m - 1)]
        last = sum(ys, V.zero(dim)) - sum(xs, V.zero(dim))
        if not sw.member(last):
            continue
        inst = RDPInstance(ws, (*xs, last), ys)
        z = rdp_check(inst)
        assert (z is None) == (primal_rdp_check(inst) is None)
        if z is not None:
            assert decomposition_ok(inst, z)
        if m == 1:
            assert z == [list(ys)]
        if n == 1:
            assert z == [[x] for x in inst.xs]
        outcomes[z is None] += 1
    assert outcomes[True] >= 50 and sum(outcomes.values()) >= 500, outcomes


def test_rdp_search_builds_its_rows_once_per_wedge_multiset(warm_builds):
    # Coordinate wedges always decompose. The system of each of the 6
    # sorted pairs, its rows and right-hand-side map, is built on its
    # first check and kept for every later one.
    assert rdp_search([coordinate_wedge(3, s) for s in range(3)], 2, 2, seed=3, budget=100) is None
    assert len(warm_builds) <= 6


def test_rdp_search_at_arity_3_builds_its_rows_once_per_wedge_multiset(warm_builds):
    # At n = 3 the 27 ordered triples of 3 wedges are C(5, 3) = 10 multisets.
    assert rdp_search([coordinate_wedge(3, s) for s in range(3)], 2, 3, seed=3, budget=100) is None
    assert len(warm_builds) <= 10


def test_rdp_rhs_is_minus_each_halfspace_at_its_block_constant():
    # The system has a row a for each halfspace a of W_j on each block
    # (i, j), row-major, and its right-hand side at theta = (xs, ys) is
    # -a . c_ij, with c_ij the block's constant part: 0 for i < m and
    # j < n, x_i in the last column, y_j in the last row, and
    # y_n - (x_1 + ... + x_{m-1}) in the corner, here summed as vectors.
    # The halfspaces are given with denominators up to 4 and theta's
    # coordinates have mixed denominators up to 6; theta need not be an
    # instance, as the map is linear in it.
    rng = random.Random(3137)
    seen = Counter()
    for m, n, _ in product(range(1, 4), range(1, 4), range(30)):
        dim = rng.randint(1, 3)
        pool = []
        for _ in range(2):
            rows = [V([F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)]) for _ in range(3)]
            pool.append(Wedge(dim, halfspaces=[a for a in rows if not a.is_zero()] or [V.unit(dim, 0)]))
        ws = [rng.choice(pool + [rand_wedge(rng, dim)]) for _ in range(n)]
        theta = [V([F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(dim)]) for _ in range(m + n)]
        xs, ys = theta[:m], theta[m:]
        zero = V.zero(dim)
        expected = []
        for i in range(m):
            for j in range(n):
                if i < m - 1 and j < n - 1:
                    c = zero
                elif i < m - 1:
                    c = xs[i]
                elif j < n - 1:
                    c = ys[j]
                else:
                    c = ys[j] - sum(xs[:-1], zero)
                expected += [-sum(x * y for x, y in zip(a.entries, c.entries)) for a in ws[j].halfspaces]
        system = _rdp_system(ws, m)
        assert system.n == (m - 1) * (n - 1) * dim and len(system.rows) == len(expected)
        assert system.rhs(*_common(theta)).entries == tuple(expected)
        seen["den > 1"] += any(a.den > 1 for w in ws for a in w.halfspaces)
        seen["mixed"] += len({v.den for v in xs + ys}) > 1
    assert seen["den > 1"] >= 100 and seen["mixed"] >= 100, seen


def test_rdp_search_budget_must_be_nonnegative():
    with pytest.raises(ValueError, match="budget"):
        rdp_search([quadrant(), diagonal_ray()], 2, 2, budget=-1)
    assert rdp_search([quadrant(), diagonal_ray()], 2, 2, budget=0) is None


def test_integer_member_draws_match_the_fraction_formula():
    # The same rng calls in the same order: equal vectors, equal generator
    # states; on the zero wedge (dim 0 too), on wedges with lines, and on
    # random wedges from either side.
    fixed = [
        Wedge(0, generators=[]),
        Wedge(3, generators=[]),
        Wedge(2, halfspaces=[]),
        Wedge(2, halfspaces=[V([1, 1])]),
        Wedge(3, generators=[V([1, 0, 0]), V([-1, 0, 0]), V([0, 1, 2])]),
    ]
    pick = random.Random(8191)
    kinds = Counter()
    for i in range(2400):
        w = fixed[i % len(fixed)] if i % 3 == 0 else rand_wedge(pick, pick.randint(1, 3))
        seed = pick.randrange(1 << 30)
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert drawn_member(new, w) == fraction_random_member(old, w)
        assert new.getstate() == old.getstate()
        kinds["zero" if not w.canonical_generators else "pointed" if is_cone(w) else "lines"] += 1
    assert min(kinds[k] for k in ("zero", "lines", "pointed")) >= 100, kinds


# --- coordinate-wedge constructive decomposition ---------------------------


def test_fs_all_equal_dim1():
    z = fs_decompose(1, [0], [V([1]), V([1])], [V([2])])
    assert z == [[V([1])], [V([1])]]


def test_fs_single_x():
    ys = [V([1, 2, 0]), V([0, 1, 1])]
    z = fs_decompose(3, [0, 2], [ys[0] + ys[1]], ys)
    assert z == [ys]


def _fs_expected_error(s_size, js, xs, ys):
    """The message ``fs_decompose`` raises, derived from its check order, or None."""
    if not xs or not ys or len(js) != len(ys):
        return "need xs, ys, and one wedge index per y"
    if any(not (0 <= j < s_size) for j in js):
        return "wedge index out of range"
    if any(len(v) != s_size for v in [*xs, *ys]):
        return "vector dimension must equal the index set size"
    if any(y[j] < 0 for j, y in zip(js, ys)):
        return "some y_j is not a member of its wedge"
    if any(sum(x[t] for x in xs) != sum(y[t] for y in ys) for t in range(s_size)):
        return "sum of xs does not equal sum of ys"
    if len(set(js)) == 1 and any(x[js[0]] < 0 for x in xs):
        return "some x_i is outside the sum of the wedges"
    return None


def test_fs_generic_validates():
    # Valid and invalid instances over coordinate wedges, m, n = 1..3 and
    # s_size = 1..4: each raises the message its check order gives, or
    # returns a decomposition, which is fixed when m = 1 or n = 1.
    rng = random.Random(33)
    outcomes = Counter()
    for _ in range(1200):
        s_size, m, n = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
        same = rng.random() < 0.4
        js = [rng.randrange(s_size)] * n if same else [rng.randrange(s_size) for _ in range(n)]
        ys = []
        for j in js:
            y = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(s_size)]
            y[j] = F(rng.randint(-1, 6), rng.randint(1, 2))
            ys.append(V(y))
        xs = [V([F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(s_size)]) for _ in range(m - 1)]
        xs.append(sum(ys, V.zero(s_size)) - sum(xs, V.zero(s_size)))
        # None, one or two faults, so that the test also pins the check order.
        faults = rng.sample(["index", "count", "sum", "dim"], rng.choice([0, 0, 0, 1, 1, 2]))
        if "index" in faults:
            js[rng.randrange(n)] = rng.choice([-1, s_size])
        if "count" in faults:
            js = js[1:] if rng.random() < 0.5 else [*js, 0]
        if "sum" in faults:
            xs[-1] = xs[-1] + QVector.unit(s_size, rng.randrange(s_size))
        if "dim" in faults:
            vs = rng.choice([xs, ys])
            vs[-1] = V([*vs[-1], 0])
        expected = _fs_expected_error(s_size, js, xs, ys)
        if expected is not None:
            with pytest.raises(InvalidInstance) as err:
                fs_decompose(s_size, js, xs, ys)
            assert str(err.value) == expected
            outcomes[expected] += 1
            continue
        z = fs_decompose(s_size, js, xs, ys)
        assert decomposition_ok(RDPInstance(tuple(coordinate_wedge(s_size, j) for j in js), tuple(xs), tuple(ys)), z)
        if m == 1:
            assert z == [ys]
        if n == 1:
            assert z == [[x] for x in xs]
        outcomes["decomposes, m, n >= 2" if min(m, n) > 1 else "decomposes"] += 1
    assert len(outcomes) == 8 and min(outcomes.values()) >= 20, outcomes


def test_fs_invalid():
    with pytest.raises(InvalidInstance):
        fs_decompose(2, [0], [V([1, 0])], [V([-1, 0])])
    with pytest.raises(InvalidInstance):
        fs_decompose(2, [0], [V([1, 0])], [V([2, 0])])  # sums differ


# --- pointwise supremum values ---------------------------------------------


def test_rk_value_scalar_pair():
    ray = positive_ray()
    res = rk_value([M([[1]]), M([[2]])], [ray, ray], ray, V([1]))
    assert res.witness == V([2])
    assert res.is_proper


def test_rk_value_single_operator():
    w = standard_cone(2)
    t = M([[1, 2], [3, 4]])
    x = V([2, 1])
    res = rk_value([t], [w], standard_cone(2), x)
    assert res.witness == t.apply(x)


def test_rk_value_not_in_sum_wedge():
    ray = positive_ray()
    with pytest.raises(NotInSumWedge):
        rk_value([M([[1]])], [ray], ray, V([-1]))


def test_rk_value_unbounded_family():
    # maximizing x over pairs y1 + y2 = x with both whole-line wedges
    line = Wedge(1, halfspaces=[])
    with pytest.raises(NotMultiBoundedAbove):
        rk_value([M([[1]]), M([[-1]])], [line, line], positive_ray(), V([1]))


def _oracle_rk(ops, wedges, v_wedge, x):
    """Vertex-enumeration oracle for the supremum values."""
    q = wedges[0].dim
    eq_rows, ineq_rows = decomposition_rows(wedges)
    eq_rhs = list(x.entries)
    ineq_rhs = [F(0)] * len(ineq_rows)
    verts = polytope_vertices(eq_rows, eq_rhs, ineq_rows, ineq_rhs)
    if not verts:
        return None
    values = []
    for vert in verts:
        total = QVector.zero(ops[0].rows)
        for i, t in enumerate(ops):
            total = total + t.apply(V(vert[i * q : (i + 1) * q]))
        values.append(total)
    fam = [TranslatedWedge(val, v_wedge) for val in values]
    return msup(fam)


def test_rk_value_matches_vertex_oracle():
    rng = random.Random(77)
    done = 0
    while done < 30:
        q = rng.randint(1, 2)
        k = rng.randint(1, 2)
        wedges = [rand_acute_cone(rng, q) for _ in range(k)]
        v_wedge = standard_cone(rng.randint(1, 2))
        ops = [
            QMatrix(
                v_wedge.dim,
                q,
                [rng.randint(-3, 3) for _ in range(v_wedge.dim * q)],
            )
            for _ in range(k)
        ]
        x = QVector.zero(q)
        for w in wedges:
            x = x + rand_member(rng, w, scale=2)
        oracle = _oracle_rk(ops, wedges, v_wedge, x)
        if oracle is None:
            continue
        done += 1
        res = rk_value(ops, wedges, v_wedge, x)
        assert res.witness == oracle.witness


def _rk_outcome(fn, *args):
    try:
        return fn(*args)
    except (NotInSumWedge, NotMultiBoundedAbove, NoMultiSupremum) as exc:
        return type(exc)


def test_rk_value_matches_primal_oracle():
    # The dual sessions against the primal decomposition LP they replaced:
    # the same MultiSupSet or the same exception class. The domain wedges
    # are given by generators or by halfspaces (lines and the whole space
    # included), or all lie in one hyperplane, so that a random x misses
    # their sum while opposite operators leave the values unbounded. V may
    # contain a line, be all of Q^p (no normals), or be {0}, whose opposite
    # normals leave no multi-supremum unless the value set is one point.
    rng = random.Random(1010)
    seen = Counter()
    for _ in range(480):
        q, k, p = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        if rng.random() < 0.2:
            a = QVector.unit(q, 0)
            wedges = [
                Wedge(q, halfspaces=[a, -a, QVector([rng.randint(-2, 2) for _ in range(q)])])
                for _ in range(k)
            ]
        else:
            wedges = [
                rand_acute_cone(rng, q) if rng.random() < 0.4 else rand_wedge(rng, q)
                for _ in range(k)
            ]
        kind = rng.choice(["wedge", "wedge", "whole", "line", "zero"])
        if kind == "whole":
            v_wedge = Wedge(p, halfspaces=[])
        elif kind == "line":
            v_wedge = Wedge(p, halfspaces=[QVector.unit(p, 0)] if p > 1 else [])
        elif kind == "zero":
            v_wedge = Wedge(p, generators=[])
        else:
            v_wedge = rand_wedge(rng, p)
        ops = [QMatrix(p, q, [rng.randint(-3, 3) for _ in range(p * q)]) for _ in range(k)]
        if rng.random() < 0.6:
            x = sum((rand_member(rng, w, scale=2) for w in wedges), QVector.zero(q))
        else:
            x = QVector([rng.randint(-3, 3) for _ in range(q)])
        expected = _rk_outcome(primal_rk_value, ops, wedges, v_wedge, x)
        assert _rk_outcome(rk_value, ops, wedges, v_wedge, x) == expected
        seen[expected if isinstance(expected, type) else "ok"] += 1
        seen[kind] += 1
        if expected is NotInSumWedge:
            # 0 is in every sum wedge, so the family's boundedness reads there.
            at_zero = _rk_outcome(primal_rk_value, ops, wedges, v_wedge, QVector.zero(q))
            if at_zero is NotMultiBoundedAbove:
                seen["outside and unbounded"] += 1
    for outcome in ("ok", NotInSumWedge, NotMultiBoundedAbove, NoMultiSupremum,
                    "outside and unbounded", "whole", "line", "zero"):
        assert seen[outcome] >= 10, seen


def test_rk_value_is_the_dual_order_multi_supremum():
    # The paper's dual-order identity. For a normal b of V, s_b(x) is the
    # minimum of u . x over the u with u . g >= b . T_i(g) on W_i, every i:
    # over the multi-upper bounds of the family (T_i^T b, W_i') in the dual
    # order. When msup gives that family a set u_b + D, those bounds are
    # u_b + C with C = (sum of the W_i)', so s_b(x) = u_b . x on the sum
    # wedge: b . z = u_b . x for rk_value's witness z. A b whose family
    # has no multi-upper bound has an infeasible dual, which is exactly
    # when rk_value raises NotMultiBoundedAbove. Gated on the identity, on
    # unbounded families and on empty dual multi-supremum sets.
    rng = random.Random(11)
    seen = Counter()
    for _ in range(400):
        q, p, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        wedges = [rand_wedge(rng, q) for _ in range(k)]
        v_wedge = rand_wedge(rng, p)
        ops = [QMatrix(p, q, [rng.randint(-3, 3) for _ in range(p * q)]) for _ in range(k)]
        dual_msups, unbounded = {}, False
        for b in v_wedge.canonical_halfspaces:
            family = [TranslatedWedge(t.transpose().apply(b), dual_wedge(w)) for t, w in zip(ops, wedges)]
            try:
                dual_msups[b] = msup(family)
            except NotMultiBoundedAbove:
                unbounded = True
        seen["empty"] += sum(res is None for res in dual_msups.values())
        sw = wedge_sum(wedges)
        for x in [rand_member(rng, sw) for _ in range(3)]:
            outcome = _rk_outcome(rk_value, ops, wedges, v_wedge, x)
            assert (outcome is NotMultiBoundedAbove) == unbounded
            if unbounded:
                seen["unbounded"] += 1
                continue
            for b, res in dual_msups.items():
                if res is not None and outcome is not NoMultiSupremum:
                    assert b.dot(outcome.witness) == res.witness.dot(x)
                    seen["identity"] += 1
    for outcome in ("identity", "unbounded", "empty"):
        assert seen[outcome] >= 20, seen


def test_vertex_enumerator_matches_polytope_vertices():
    # the integer active-set enumerator behind AC4 against the independent
    # Fraction enumerator, on decomposition polytopes with k, q <= 3
    rng = random.Random(1609)
    singular_sets = empty = nonempty = 0
    for q, k in product(range(1, 4), repeat=2):
        done = 0
        while done < 4:
            wedges = [rand_acute_cone(rng, q) for _ in range(k)]
            eq_rows, ineq_rows = decomposition_rows(wedges)
            if len(ineq_rows) > 10:
                continue  # keeps the Fraction enumerator quick
            done += 1
            enumerator = VertexEnumerator(eq_rows, ineq_rows)
            subsets = sum(1 for _ in combinations(ineq_rows, k * q - q))
            singular_sets += subsets - len(enumerator.solutions)
            inside = QVector.zero(q)
            for w in wedges:
                inside = inside + rand_member(rng, w, scale=2)
            # acute cones keep the first coordinate of every member >= 0
            outside = V([-1] + [rng.randint(-2, 2) for _ in range(q - 1)])
            for x in (inside, outside):
                rhs = list(x.entries)
                got = enumerator.vertices(rhs)
                assert len(set(got)) == len(got)
                expected = polytope_vertices(
                    eq_rows, rhs, ineq_rows, [F(0)] * len(ineq_rows)
                )
                assert set(got) == set(expected)
                if got:
                    nonempty += 1
                else:
                    empty += 1
    assert singular_sets > 0 and empty > 0 and nonempty > 0


def test_vertex_enumerator_rejects_non_integer_rows():
    with pytest.raises(ValueError):
        VertexEnumerator([[1, 1]], [[F(1, 2), 0], [0, 1]])
    with pytest.raises(ValueError):
        VertexEnumerator([[F(1, 3), 1]], [[1, 0], [0, 1]])


# --- operator multi-suprema -------------------------------------------------


def test_op_msup_diagonal_entrywise_max():
    e3 = standard_cone(3)
    t1 = M([[1, 0, 0], [0, 5, 0], [0, 0, 3]])
    t2 = M([[4, 0, 0], [0, 2, 0], [0, 0, 3]])
    res = op_msup([t1, t2], [e3, e3], e3)
    assert res.representative == M([[4, 0, 0], [0, 5, 0], [0, 0, 3]])
    assert res.is_proper


def test_op_msup_single_operator():
    e2 = standard_cone(2)
    t = M([[1, -2], [0, 3]])
    res = op_msup([t], [e2], e2)
    assert res.representative == t
    assert res.is_proper


def test_op_msup_rdp_violation_detected():
    # domain family without the (2,2) decomposition property
    ws = [quadrant(), diagonal_ray()]
    t1 = M([[0, 0], [0, 0]])
    t2 = M([[1, 0], [0, 1]])
    with pytest.raises(RDPViolated):
        op_msup([t1, t2], ws, quadrant())


def test_op_msup_rdp_violation_found_by_search():
    rng = random.Random(8)
    ws = [quadrant(), diagonal_ray()]
    hits = 0
    for _ in range(30):
        t1 = M([[rng.randint(-2, 2), 0], [0, rng.randint(-2, 2)]])
        t2 = M([[rng.randint(-2, 2), 0], [0, rng.randint(-2, 2)]])
        try:
            res = op_msup([t1, t2], ws, quadrant())
        except RDPViolated:
            hits += 1
            continue
        except NotMultiBoundedAbove:
            continue
        assert op_is_positive(res.representative - t1, ws[0], quadrant())
        assert op_is_positive(res.representative - t2, ws[1], quadrant())
    assert hits > 0


def test_op_msup_not_multi_bounded():
    line = Wedge(1, halfspaces=[])
    with pytest.raises(NotMultiBoundedAbove):
        op_msup([M([[1]]), M([[-1]])], [line, line], positive_ray())


def test_op_msup_proper_iff_generating_and_cone():
    rng = random.Random(9)
    from conftest import rand_wedge

    done = 0
    while done < 40:
        q = rng.randint(1, 2)
        p = rng.randint(1, 2)
        k = rng.randint(1, 2)
        wedges = [rand_wedge(rng, q) for _ in range(k)]
        v_wedge = rand_wedge(rng, p)
        ops = [QMatrix.zeros(p, q) for _ in range(k)]
        try:
            res = op_msup(ops, wedges, v_wedge)
        except (RDPViolated, NotMultiBoundedAbove, NoMultiSupremum):
            continue
        done += 1
        expected = is_generating(wedge_sum(wedges)) and is_cone(v_wedge)
        assert res.is_proper == expected


def test_supremum_minimality_sampled():
    # any sampled operator dominating every T_i also dominates the
    # representative on each W_i
    rng = random.Random(10)
    e2 = standard_cone(2)
    for _ in range(10):
        t1 = QMatrix(2, 2, [rng.randint(-2, 2) for _ in range(4)])
        t2 = QMatrix(2, 2, [rng.randint(-2, 2) for _ in range(4)])
        res = op_msup([t1, t2], [e2, e2], e2)
        r = res.representative
        for _ in range(50):
            # genuine upper bound: entrywise max plus nonnegative noise
            bump = QMatrix(2, 2, [F(rng.randint(0, 3)) for _ in range(4)])
            u_entries = [
                max(a, b) + c for a, b, c in zip(t1.entries, t2.entries, bump.entries)
            ]
            u = QMatrix(2, 2, u_entries)
            assert op_is_positive(u - t1, e2, e2)
            assert op_is_positive(u - t2, e2, e2)
            assert op_is_positive(u - r, e2, e2)
        for _ in range(50):
            bump = QMatrix(2, 2, [F(rng.randint(0, 3)) for _ in range(4)])
            s = QMatrix(2, 2, [a + b for a, b in zip(r.entries, bump.entries)])
            assert op_is_positive(s - r, e2, e2)


def test_rk_additivity_on_rdp_space():
    rng = random.Random(12)
    e2 = standard_cone(2)
    ops = [M([[1, 2], [0, 1]]), M([[2, 0], [1, 1]])]
    pp = projections(e2)
    for _ in range(25):
        x1 = rand_member(rng, e2, scale=2)
        x2 = rand_member(rng, e2, scale=2)
        w12 = rk_value(ops, [e2, e2], e2, x1 + x2).witness
        w1 = rk_value(ops, [e2, e2], e2, x1).witness
        w2 = rk_value(ops, [e2, e2], e2, x2).witness
        assert pp.p_u.apply(w12) == pp.p_u.apply(w1) + pp.p_u.apply(w2)


# --- functionals ------------------------------------------------------------


def test_functional_msup_coordinate_rays():
    rays = [
        Wedge(2, generators=[V([1, 0])]),
        Wedge(2, generators=[V([0, 1])]),
    ]
    res = functional_msup([V([1, 0]), V([0, 1])], rays)
    assert res.representative == M([[1, 1]])
    assert res.is_proper


def test_functional_msup_single():
    w = standard_cone(3)
    res = functional_msup([V([1, -2, 3])], [w])
    assert res.representative == M([[1, -2, 3]])
    assert res.is_proper


def test_functional_dual_membership_agrees_with_positivity():
    rng = random.Random(13)
    from conftest import rand_vector, rand_wedge

    ray = positive_ray()
    for _ in range(60):
        dim = rng.randint(1, 3)
        w = rand_wedge(rng, dim)
        phi = rand_vector(rng, dim)
        as_operator = QMatrix(1, dim, phi.entries)
        assert dual_wedge(w).member(phi) == op_is_positive(as_operator, w, ray)


def test_functional_msup_proper_for_generating_coordinate_wedges():
    # multi-bounded family over the (generating) coordinate halfspace wedges
    n = 4
    ws = [coordinate_wedge(n, 0), coordinate_wedge(n, 2)]
    base = V([2, -1, 3, 0])
    # each functional may only trail the shared bound at its own coordinate
    phi1 = base - 5 * QVector.unit(n, 0)
    phi2 = base - 2 * QVector.unit(n, 2)
    res = functional_msup([phi1, phi2], ws)
    assert res.is_proper
    assert res.representative == QMatrix(1, n, base.entries)


# --- multi-infima -----------------------------------------------------------


def test_op_minf_negates_msup():
    e3 = standard_cone(3)
    t1 = M([[1, 0, 0], [0, 5, 0], [0, 0, 3]])
    t2 = M([[4, 0, 0], [0, 2, 0], [0, 0, 3]])
    res = op_minf([t1, t2], [e3, e3], e3)
    assert res.representative == M([[1, 0, 0], [0, 2, 0], [0, 0, 3]])


def test_op_minf_not_bounded_below():
    line = Wedge(1, halfspaces=[])
    with pytest.raises(NotMultiBoundedBelow):
        op_minf([M([[1]]), M([[-1]])], [line, line], positive_ray())


def test_zero_dimensional_spaces():
    # Wedge accepts dim 0; a zero-dimensional domain or codomain leaves
    # matrices with no rows or no columns, which the general path takes.
    point = Wedge(0, generators=[])
    assert projections(point).p_d == QMatrix(0, 0, [])

    no_cols = QMatrix(1, 0, [])
    for res in (
        op_msup([no_cols], [point], positive_ray()),
        op_minf([no_cols], [point], positive_ray()),
        functional_msup([QVector([])], [point]),
    ):
        assert res.representative == no_cols
        assert res.lineality_ops == ()

    no_rows = QMatrix(0, 1, [])
    for fn in (op_msup, op_minf):
        res = fn([no_rows], [positive_ray()], point)
        assert res.representative == no_rows
        assert res.lineality_ops == ()
    assert op_wedge_lineality([positive_ray()], [point]) == []
    assert op_wedge_lineality([point], [positive_ray()]) == []
    # Every z_ij of a dim-0 instance is the empty vector.
    empty = QVector([])
    inst = RDPInstance((point, Wedge(0, halfspaces=[])), (empty, empty), (empty, empty))
    assert rdp_check(inst) == [[empty, empty], [empty, empty]]


def _cliff_family():
    """The input of golden/rk-op-msup-cliff: four cones in Q^8 into the orthant of Q^4.

    Converting the sum of their 32 generators to its canonical generators
    runs for minutes; the values at those 32 refuse at once.
    """
    rng = random.Random(1)
    ws = [
        Wedge(8, generators=[
            V([rng.randint(8, 10) if i == j else rng.randint(0, 1) for i in range(8)]) for j in range(8)
        ])
        for _ in range(4)
    ]
    ops = [QMatrix(4, 8, [rng.randint(-3, 3) for _ in range(32)]) for _ in range(4)]
    return ops, ws, standard_cone(4)


def test_op_msup_converts_no_sum_wedge(monkeypatch):
    # One H->V conversion, for the canonical halfspaces of V. The values
    # are taken at the generators of the sum wedge as wedge_sum lists
    # them, so the sum is never converted, and the dual sessions read the
    # given generators of the domain wedges.
    from multiwedge import wedges

    inputs = []
    convert = wedges.hrep_to_vrep

    def recorded(vectors, dim):
        inputs.append(set(vectors))
        return convert(vectors, dim)

    monkeypatch.setattr(wedges, "hrep_to_vrep", recorded)
    ws = [
        Wedge(2, generators=[QVector([1, 0]), QVector([1, 1])]),
        Wedge(2, generators=[QVector([0, 1]), QVector([1, 1])]),
    ]
    v = Wedge(1, generators=[QVector([1])], halfspaces=[QVector([1])])
    ops = [QMatrix.from_rows([[1, 0]]), QMatrix.from_rows([[0, 1]])]
    op_msup(ops, ws, v)
    assert inputs == [set(v.generators)]
    assert set(wedge_sum(ws).generators) not in inputs

    inputs.clear()
    ops, ws, v = _cliff_family()
    with pytest.raises(RDPViolated, match="not additive"):
        op_msup(ops, ws, v)
    assert inputs == [set(v.generators)]
    assert set(wedge_sum(ws).generators) not in inputs


def test_op_msup_runs_no_membership_session(monkeypatch):
    # The generators of the sum wedge lie in it by construction, so
    # op_msup tests none of them for membership, also when V = Q^2 has
    # no normals. A membership LP on the decomposition system would have
    # k * q = 6 variables and rows; the family of operators also has
    # p * q = 6 entries, but V = Q^2 gives its wedges no rows.
    from multiwedge import lp

    built = []
    init = lp.Session.__init__

    def recorded(self, n, rows, rhs):
        built.append((n, len(rows)))
        init(self, n, rows, rhs)

    monkeypatch.setattr(lp.Session, "__init__", recorded)
    ws = [
        Wedge(3, generators=[V([1, 0, 0]), V([1, 1, 0])]),
        Wedge(3, generators=[V([1, 0, 1]), V([0, 1, 1])]),
    ]
    ops = [M([[1, 0, 2], [0, -1, 1]]), M([[0, 1, -1], [2, 0, 1]])]
    res = op_msup(ops, ws, Wedge(2, halfspaces=[]))
    assert res.representative == QMatrix.zeros(2, 3)
    assert len(res.lineality_ops) == 6
    assert built
    assert [size for size in built if size[0] == 6 and size[1]] == []


def _canonical_route(ops, ws, v):
    """op_msup's outcome through the canonical generators of the sum wedge.

    The error code, or (representative, lineality): the values at each
    canonical generator from rk_value, extended additively on them, and
    the result checked for dominance by op_is_positive.
    """
    if multi_bounded_above(operator_family(ops, ws, v)) is None:
        return NotMultiBoundedAbove.code
    canonical = wedge_sum(ws).canonical_generators
    try:
        values = {g: rk_value(ops, ws, v, g).witness for g in canonical}
    except NoMultiSupremum as exc:
        return exc.code
    try:
        rep = extend_additive(Wedge(ws[0].dim, generators=canonical), values, v.dim)
    except InconsistentValues:
        return RDPViolated.code
    if not all(op_is_positive(rep - t, w, v) for t, w in zip(ops, ws)):
        return RDPViolated.code
    return rep, op_wedge_lineality(ws, [v])


def _has_no_msup_value(ops, ws, v):
    """Whether rk_value has no multi-supremum at some generator of the sum wedge."""
    for x in wedge_sum(ws).generators:
        try:
            rk_value(ops, ws, v, x)
        except NoMultiSupremum:
            return True
    return False


def _rand_cone(rng, q):
    """Cone over 1 to q + 1 integer vectors; it may hold lines, or be {0}."""
    gens = [rand_vector(rng, q, max_den=1) for _ in range(rng.randint(1, q + 1))]
    return Wedge(q, generators=[g for g in gens if not g.is_zero()])


def test_op_msup_matches_the_canonical_generator_route():
    # Any generating set of the sum wedge gives op_msup the same answers
    # as its canonical generators: a dominating additive extension is
    # pinned on the whole sum by superadditivity, so both refuse the same
    # families. A refusal's code can move: when V has more normals than
    # its dimension, the values at a generator that is not extreme in the
    # sum may have no multi-supremum, and then no_multi_supremum is
    # raised where the canonical route found rdp_violated.
    rng = random.Random(26)
    corners = [V([a, b, 1]) for a in (1, -1) for b in (1, -1)]
    seen = Counter()
    for _ in range(600):
        q, k = rng.choice([2, 3]), rng.choice([2, 3])
        if rng.random() < 0.75:
            ws = [rand_acute_cone(rng, q, q + 1) for _ in range(k)]
        else:
            ws = [_rand_cone(rng, q) for _ in range(k)]
        v = quadrant() if rng.random() < 0.5 else Wedge(3, generators=rng.sample(corners, rng.randint(3, 4)))
        ops = [QMatrix(v.dim, q, [rng.randint(-3, 3) for _ in range(v.dim * q)]) for _ in range(k)]
        expected = _canonical_route(ops, ws, v)
        try:
            res = op_msup(ops, ws, v)
        except (NotMultiBoundedAbove, RDPViolated, NoMultiSupremum) as exc:
            assert isinstance(expected, str)
            assert (exc.code == NotMultiBoundedAbove.code) == (expected == NotMultiBoundedAbove.code)
            if exc.code != NotMultiBoundedAbove.code:
                assert (exc.code == NoMultiSupremum.code) == _has_no_msup_value(ops, ws, v)
            seen[exc.code] += 1
            seen["moved"] += exc.code != expected
            continue
        assert expected == (res.representative, list(res.lineality_ops))
        seen["answered"] += 1
    assert seen["answered"] >= 20 and seen[RDPViolated.code] >= 20 and seen["moved"] >= 20, seen


def test_op_wedge_lineality_matches_annihilator_oracle():
    # Equal bases, not only equal spans: both are read off the unique RREF
    # of the same row space.
    rng = random.Random(1111)
    seen = Counter()
    for _ in range(320):
        q, p = rng.randint(0, 3), rng.randint(0, 3)
        ws = [
            rand_wedge(rng, q) if q else Wedge(0, generators=[]) for _ in range(rng.randint(1, 3))
        ]
        vs = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(["wedge", "wedge", "whole", "line", "zero"]) if p else "zero"
            if kind == "whole":
                vs.append(Wedge(p, halfspaces=[]))
            elif kind == "line":
                vs.append(Wedge(p, halfspaces=[QVector.unit(p, 0)] if p > 1 else []))
            elif kind == "zero":
                vs.append(Wedge(p, generators=[]))
            else:
                vs.append(rand_wedge(rng, p))
            seen[kind] += 1
        seen[f"{len(vs)} vs"] += 1
        seen["dim 0"] += p * q == 0
        assert op_wedge_lineality(ws, vs) == annihilator_op_lineality(ws, vs)
    for kind in ("wedge", "whole", "line", "zero", "1 vs", "2 vs", "dim 0"):
        assert seen[kind] >= 10, seen


def _definition(fn, family):
    try:
        return fn(family)
    except (NotMultiBoundedAbove, NotMultiBoundedBelow) as exc:
        return type(exc)


def _functional_msup(ops, wedges, v_wedge):
    # functional_msup fixes the codomain: Q with the positive ray.
    return functional_msup([QVector(t.entries) for t in ops], wedges)


def test_op_msup_and_op_minf_agree_with_the_definition():
    # The operator multi-supremum (multi-infimum) is that of the family
    # (vec T_i, L(W_i, V)) in the multi-order of matrix entries. When
    # op_msup answers, the definition's set holds its representative and
    # has its lineality; op_msup is refused as not multi-bounded exactly
    # when the definition is. The same holds for op_minf, and for
    # functional_msup when V is the positive ray of Q. Its other refusals (RDPViolated and
    # NoMultiSupremum) are counted, and how many of them have an empty
    # definition set is printed, not asserted.
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(220):
        q, p, k = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)
        shape = rng.random()
        if shape < 0.3:
            wedges = [rand_acute_cone(rng, q)] * k
        elif shape < 0.7:
            wedges = [rand_acute_cone(rng, q) for _ in range(k)]
        else:
            wedges = [rand_wedge(rng, q) for _ in range(k)]
        kind = rng.choice(["wedge", "ray", "ray", "whole", "line", "zero"])
        if kind == "ray":
            v_wedge = positive_ray() if p == 1 else standard_cone(p)
        elif kind == "whole":
            v_wedge = Wedge(p, halfspaces=[])
        elif kind == "line":
            v_wedge = Wedge(p, halfspaces=[QVector.unit(p, 0)] if p > 1 else [])
        elif kind == "zero":
            v_wedge = Wedge(p, generators=[])
        else:
            v_wedge = rand_wedge(rng, p)
        ops = [QMatrix(p, q, [rng.randint(-3, 3) for _ in range(p * q)]) for _ in range(k)]
        family = operator_family(ops, wedges, v_wedge)
        seen[f"p={p}"] += 1
        checks = [(op_msup, msup, NotMultiBoundedAbove), (op_minf, minf, NotMultiBoundedBelow)]
        if kind == "ray" and p == 1:
            checks.append((_functional_msup, msup, NotMultiBoundedAbove))
            seen["functional"] += 1
        for fn, definition, unbounded in checks:
            expected = _definition(definition, family)
            try:
                res = fn(ops, wedges, v_wedge)
            except unbounded:
                assert expected is unbounded
                seen["not bounded"] += 1
                continue
            except (RDPViolated, NoMultiSupremum):
                assert expected is not unbounded
                seen["refused"] += 1
                seen["refused, empty definition set"] += expected is None
                continue
            assert expected is not None and expected is not unbounded
            assert expected.contains(QVector(res.representative.entries))
            ops_lin = [QVector(t.entries) for t in res.lineality_ops]
            assert len(ops_lin) == len(expected.lineality_basis)
            assert all(span_contains(expected.lineality_basis, t, p * q) for t in ops_lin)
            seen["answered"] += 1
    print(
        f"{seen['refused, empty definition set']} of {seen['refused']} refusals "
        "have an empty definition set"
    )
    for outcome in ("answered", "not bounded", "refused", "p=1", "functional"):
        assert seen[outcome] >= 10, seen
