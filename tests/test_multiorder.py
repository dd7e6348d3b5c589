import random
from collections import Counter
from fractions import Fraction as F

import pytest

from multiwedge import (
    NotMultiBoundedAbove,
    NotMultiBoundedBelow,
    QVector,
    TranslatedWedge,
    Wedge,
    intersect,
    is_multi_upper_bound,
    is_proper,
    lineality,
    minf,
    msup,
    multi_bounded_above,
    multilattice_search,
    span_contains,
)

from multiwedge import multiorder, operators
from multiwedge.lp import Region, Session, Warm
from multiwedge.operators import RDPInstance, rdp_check, rdp_search
from multiwedge.linalg import _common
from multiwedge.multiorder import APEX_DEN, MultiSupSet, _trials, _upper_bound_system, sample_apex

from conftest import (
    cold_multilattice_search,
    cold_rdp_search,
    diagonal_ray,
    drawn_apex,
    equality_system_msup,
    fraction_sample_apex,
    memo_route,
    quadrant,
    rand_vector,
    rand_wedge,
)

V = QVector


def halfplane(normal):
    return Wedge(2, halfspaces=[V(normal)])


def w123():
    return halfplane([1, 0]), halfplane([0, 1]), halfplane([1, 1])


def triple_family():
    w1, w2, w3 = w123()
    return [
        TranslatedWedge(V([0, 0]), w1),
        TranslatedWedge(V([0, 0]), w2),
        TranslatedWedge(V([1, 1]), w3),
    ]


def test_upper_bound_examples():
    fam = triple_family()
    assert is_multi_upper_bound(V([2, 2]), fam)
    assert not is_multi_upper_bound(V([0, 0]), fam)
    single = [TranslatedWedge(V([3, -1]), halfplane([1, 2]))]
    assert is_multi_upper_bound(V([3, -1]), single)


def test_multi_bounded_above_overlapping_halflines():
    # translates [-1, oo) and (-oo, 1] along the x-axis overlap
    fam = [
        TranslatedWedge(V([-1, 0]), halfplane([1, 0])),
        TranslatedWedge(V([1, 0]), halfplane([-1, 0])),
    ]
    witness = multi_bounded_above(fam)
    assert witness is not None
    assert is_multi_upper_bound(witness, fam)
    # cross-check against a grid feasibility oracle
    grid_hit = any(
        is_multi_upper_bound(V([F(i, 2), F(j, 2)]), fam)
        for i in range(-8, 9)
        for j in range(-8, 9)
    )
    assert grid_hit


def test_multi_bounded_above_disjoint_translates():
    ray_pos = Wedge(1, halfspaces=[V([1])])
    ray_neg = Wedge(1, halfspaces=[V([-1])])
    fam = [TranslatedWedge(V([1]), ray_pos), TranslatedWedge(V([-1]), ray_neg)]
    assert multi_bounded_above(fam) is None
    grid_hit = any(is_multi_upper_bound(V([F(i, 2)]), fam) for i in range(-20, 21))
    assert not grid_hit


def test_single_pair_bounded_with_apex_witness():
    w = halfplane([1, 1])
    fam = [TranslatedWedge(V([2, 5]), w)]
    witness = multi_bounded_above(fam)
    assert witness is not None and is_multi_upper_bound(witness, fam)


def test_msup_triple_empty():
    assert msup(triple_family()) is None


def test_msup_pair_proper_origin():
    w1, w2, _ = w123()
    res = msup([TranslatedWedge(V([0, 0]), w1), TranslatedWedge(V([0, 0]), w2)])
    assert res is not None
    assert res.witness == V([0, 0])
    assert is_proper(res)


def test_msup_single_pair():
    w = halfplane([1, 1])
    apex = V([3, -2])
    res = msup([TranslatedWedge(apex, w)])
    assert res is not None
    # witness may differ from the apex only along the lineality of W
    assert span_contains(res.lineality_basis, res.witness - apex, 2)
    assert [v.entries for v in res.lineality_basis] == [
        v.entries for v in lineality(w)
    ]


def test_msup_not_bounded_raises(conversions):
    ray_pos = Wedge(1, halfspaces=[V([1])])
    ray_neg = Wedge(1, halfspaces=[V([-1])])
    fam = [TranslatedWedge(V([1]), ray_pos), TranslatedWedge(V([-1]), ray_neg)]
    with pytest.raises(NotMultiBoundedAbove):
        msup(fam)
    # The halfspace-given members need no conversion for P's system, and
    # their intersection is cut out by their own rows.
    assert conversions == []


def test_msup_converts_no_halfspace_given_wedge(conversions):
    # msup decides over C's rows as the family gives them, a redundant
    # x + y >= 0 included, so a bounded, nonempty family of halfspace-given
    # wedges is answered without an H->V conversion.
    quadrant = [V([1, 0]), V([0, 1])]
    family = [
        TranslatedWedge(V([1, 0]), Wedge(2, halfspaces=[*quadrant, V([1, 1])])),
        TranslatedWedge(V([0, 2]), Wedge(2, halfspaces=quadrant)),
        TranslatedWedge(V([F(1, 2), 1]), Wedge(2, halfspaces=[V([1, 0]), V([1, 1])])),
    ]
    assert msup(family) == MultiSupSet(V([1, 2]), ())
    assert conversions == []


def test_lattice_search_converts_only_its_input_wedges(conversions):
    # The search minimizes C's rows as the wedges give them, as msup does,
    # so it converts no intersection: ex2.7's halfplanes are never
    # converted, and ex3.7's generator-given quadrant and ray once each,
    # for their rows.
    assert multilattice_search(list(w123()), 2, seed=3, budget=200) is None
    assert multilattice_search(list(w123()), 3, seed=3, budget=200) is not None
    assert conversions == []
    assert multilattice_search([quadrant(), diagonal_ray()], 3, seed=3, budget=200) is None
    assert len(conversions) == 2


def test_minf_mirrors_msup():
    fam = triple_family()
    neg = [TranslatedWedge(-tw.apex, tw.wedge) for tw in fam]
    assert minf(neg) is None
    w1, w2, _ = w123()
    res = minf([TranslatedWedge(V([0, 0]), w1), TranslatedWedge(V([0, 0]), w2)])
    assert res is not None and res.witness == V([0, 0]) and is_proper(res)
    with pytest.raises(NotMultiBoundedBelow):
        ray_pos = Wedge(1, halfspaces=[V([1])])
        ray_neg = Wedge(1, halfspaces=[V([-1])])
        minf([TranslatedWedge(V([-1]), ray_pos), TranslatedWedge(V([1]), ray_neg)])


def test_is_proper_examples():
    w1, w2, _ = w123()
    pair = msup([TranslatedWedge(V([0, 0]), w1), TranslatedWedge(V([0, 0]), w2)])
    assert is_proper(pair)
    half = msup([TranslatedWedge(V([1, 1]), w1)])
    assert not is_proper(half)
    cone_pair = msup([TranslatedWedge(V([1, 1]), Wedge(2, generators=[V([1, 2])]))])
    assert is_proper(cone_pair)


def test_search_finds_triple_counterexample():
    w1, w2, w3 = w123()
    cx = multilattice_search([w1, w2, w3], 3, seed=0, budget=1000)
    assert cx is not None
    wedges = [w1, w2, w3]
    fam = [
        TranslatedWedge(a, wedges[i]) for a, i in zip(cx.apexes, cx.wedge_indices)
    ]
    assert multi_bounded_above(fam) is not None
    assert msup(fam) is None


def test_search_pairs_find_nothing():
    w1, w2, w3 = w123()
    assert multilattice_search([w1, w2, w3], 2, seed=0, budget=1000) is None


def test_search_complete_pair_finds_nothing_up_to_five():
    for k in (2, 3, 4, 5):
        assert multilattice_search([quadrant(), diagonal_ray()], k, seed=0, budget=1000) is None


def test_search_deterministic():
    w1, w2, w3 = w123()
    a = multilattice_search([w1, w2, w3], 3, seed=7, budget=400)
    b = multilattice_search([w1, w2, w3], 3, seed=7, budget=400)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.apexes == b.apexes and a.wedge_indices == b.wedge_indices


def test_warm_search_matches_cold_search():
    # Re-solved trials give each verdict exactly, so the first counterexample
    # (or none) is that of a cold session per trial, on every seed: ex2.7's
    # halfplanes, ex3.7's quadrant and ray, coordinate wedges and random
    # wedges with lines, for k = 1..3. The last 300 runs draw wedges with
    # entries p/q, q <= 4, so that a system's rows, given halfspaces, have
    # a common denominator D > 1 over which the apexes' right-hand sides
    # are taken.
    rng = random.Random(1729)
    coordinate = [Wedge(3, halfspaces=[V.unit(3, s)]) for s in range(3)]
    found = Counter()
    for run in range(700):
        kind = run % 4 if run < 400 else 4
        if kind == 0:
            wedges = list(w123())
        elif kind == 1:
            wedges = [quadrant(), diagonal_ray()]
        elif kind == 2:
            wedges = coordinate
        else:
            dim = rng.randint(1, 3)
            max_den = 4 if kind == 4 else 1
            wedges = [rand_wedge(rng, dim, max_den=max_den) for _ in range(rng.randint(1, 3))]
        k, seed, budget = 1 + run % 3, rng.randrange(1 << 20), rng.randint(10, 40)
        got = multilattice_search(wedges, k, seed=seed, budget=budget)
        assert got == cold_multilattice_search(wedges, k, seed=seed, budget=budget)
        if kind < 4:
            found[got is not None] += 1
        elif any(a.den > 1 for w in wedges for a in w.halfspaces):
            found["D > 1", got is not None] += 1
    assert found[True] >= 40 and found[False] >= 100, found
    assert found["D > 1", True] >= 40 and found["D > 1", False] >= 80, found


def test_msup_with_warm_matches_cold():
    # Families on one sorted wedge multiset share one Warm, as the search's
    # families do, but every verdict is read and compared with cold msup's:
    # empty sets, no upper bound, and nonempty sets, whose witness is the
    # point Warm.solve returns. A trial that no kept entry decides gets a cold
    # session, so its witness is cold msup's; one that kept bases decide may
    # give any point of the cold set. Every point Warm.solve returns attains
    # the cold minimum of the sum of C's rows and of each row, and a trial
    # decided by kept optima has cold msup's verdict, on empty and
    # on nonempty sets.
    class Watched(Warm):
        __slots__ = ()

        def solve(self, rhs):
            routes.append(memo_route(self, rhs))
            feasible, basis = super().solve(rhs)
            if basis is not None:
                point = basis.point(rhs)
                for c in self.objectives:
                    assert c.dot(point) == Session(self.n, self.rows, rhs).minimize(c).value
            return feasible, basis

    rng = random.Random(4242)
    outcomes = Counter()
    for run in range(60):
        if run % 3 == 0:
            wedges = list(w123())
        elif run % 3 == 1:
            wedges = [quadrant(), diagonal_ray()]
        else:
            dim = rng.randint(1, 3)
            wedges = [rand_wedge(rng, dim) for _ in range(rng.randint(1, 3))]
        # ex2.7's halfplanes at k = 3 give empty sets, at k = 2 none.
        k, warm = 2 + (run % 3 == 2 or run % 6 == 0), {}
        for _ in range(30):
            indices = tuple(sorted(rng.randrange(len(wedges)) for _ in range(k)))
            family = [TranslatedWedge(drawn_apex(rng, wedges[0].dim, 4), wedges[i]) for i in indices]
            routes = []
            cw = intersect([tw.wedge for tw in family])
            if indices not in warm:
                system = _upper_bound_system([tw.wedge for tw in family], cw)
                warm[indices] = Watched(system.n, system.rows, system.terms, cw.halfspaces)
            try:
                cold = msup(family)
            except NotMultiBoundedAbove:
                cold = "not bounded"
            rhs = warm[indices].rhs(*_common([tw.apex for tw in family]))
            feasible, basis = warm[indices].solve(rhs)
            if not feasible:
                got = "not bounded"
            else:
                got = None if basis is None else MultiSupSet(basis.point(rhs), cw.lineality_basis)
            if cold is None or cold == "not bounded":
                assert got == cold
                outcomes[str(cold)] += 1
            else:
                assert got.lineality_basis == cold.lineality_basis and cold.contains(got.witness)
                outcomes["proper" if cold.is_proper else "lines"] += 1
                if routes == ["session"]:
                    assert got.witness == cold.witness
                    outcomes["session", cold.is_proper] += 1
            if routes == ["optima"]:
                outcomes["optima", cold is None] += 1
    for outcome in ("None", "not bounded", "proper", "lines", ("session", True), ("session", False)):
        assert outcomes[outcome] >= 20, outcomes
    assert min(outcomes["optima", True], outcomes["optima", False]) >= 20, outcomes


def _coordinate_wedges():
    return [Wedge(3, halfspaces=[V.unit(3, s)]) for s in range(3)]


def test_search_builds_its_rows_once_per_wedge_multiset(monkeypatch):
    # ex2.7's pairs always have an upper bound. The rows of each of the 6
    # sorted pairs are built with its system on its first trial and kept for
    # every later one: 6 builds, each for a multiset no earlier one had.
    built = []
    build = multiorder._upper_bound_system

    def counted(ws, cw):
        built.append(tuple(id(w) for w in ws))
        return build(ws, cw)

    monkeypatch.setattr(multiorder, "_upper_bound_system", counted)
    assert multilattice_search(list(w123()), 2, seed=3, budget=200) is None
    assert len(built) == 6
    assert len({tuple(sorted(ids)) for ids in built}) == 6


def test_search_builds_one_warm_per_wedge_multiset(warm_builds):
    # A Warm is built only for a multiset no earlier trial drew: 6 for the
    # 6 sorted pairs of ex2.7's 3 wedges, not one per trial.
    assert multilattice_search(list(w123()), 2, seed=3, budget=200) is None
    assert len(warm_builds) == 6


@pytest.mark.parametrize(
    "wedges, k, multisets",
    [
        # Coordinate wedges of Q^3 meet in the orthant, so every triple has
        # an upper bound and a multi-supremum: one system for each of the
        # C(5, 3) = 10 multisets of 3 out of 3 wedges, not per ordered triple.
        pytest.param(_coordinate_wedges, 3, 10, id="coordinate-k3"),
        # ex3.7's quadrant and ray: a trial with the ray twice has no upper
        # bound unless its apexes differ by a multiple of (1, 1), so those
        # multisets see infeasible trials only. Feasible or not, each of the
        # k + 1 sorted multisets gets one system.
        pytest.param(lambda: [quadrant(), diagonal_ray()], 2, 3, id="ex3.7-k2"),
        pytest.param(lambda: [quadrant(), diagonal_ray()], 3, 4, id="ex3.7-k3"),
    ],
)
def test_search_builds_one_system_per_wedge_multiset(warm_builds, wedges, k, multisets):
    # A Warm, the rows and right-hand-side map of one system, is built only
    # for a multiset that no earlier trial drew; in 200 trials every one is.
    assert multilattice_search(list(wedges()), k, seed=3, budget=200) is None
    assert len(warm_builds) == multisets


def test_upper_bound_rhs_is_each_halfspace_at_its_apex():
    # P's system has a row a for each halfspace a of each wedge W_p, in
    # order, and its right-hand side at the apexes is a . apex_p, here
    # computed in Fractions. The halfspaces are given with denominators up
    # to 4 and the apexes' coordinates have mixed denominators up to 6.
    rng = random.Random(2917)
    seen = Counter()
    for _ in range(300):
        dim = rng.randint(1, 3)
        wedges = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                wedges.append(rand_wedge(rng, dim))
                continue
            rows = [V([F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)]) for _ in range(3)]
            wedges.append(Wedge(dim, halfspaces=[a for a in rows if not a.is_zero()] or [V.unit(dim, 0)]))
        apexes = [V([F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(dim)]) for _ in wedges]
        system = _upper_bound_system(wedges, None)
        pairs = [(a, apex) for w, apex in zip(wedges, apexes) for a in w.halfspaces]
        assert (system.n, system.rows, system.objectives) == (dim, [a for a, _ in pairs], [])
        expected = tuple(sum(x * y for x, y in zip(a.entries, apex.entries)) for a, apex in pairs)
        assert system.rhs(*_common(apexes)).entries == expected
        seen["den > 1"] += any(a.den > 1 for a, _ in pairs)
        seen["mixed"] += len({apex.den for apex in apexes}) > 1
    assert seen["den > 1"] >= 100 and seen["mixed"] >= 100, seen


def test_search_budget_must_be_nonnegative():
    w1, w2, w3 = w123()
    with pytest.raises(ValueError, match="budget"):
        multilattice_search([w1, w2, w3], 3, budget=-1)
    assert multilattice_search([w1, w2, w3], 3, budget=0) is None


def test_integer_apex_draws_match_the_fraction_formula():
    # The same rng calls in the same order: equal vectors, equal generator states.
    pick = random.Random(4099)
    shapes = Counter()
    for _ in range(2400):
        dim, bound = pick.randint(0, 4), pick.randint(0, 6)
        seed = pick.randrange(1 << 30)
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(pick.randint(1, 3)):
            assert drawn_apex(new, dim, bound) == fraction_sample_apex(old, dim, bound)
        assert new.getstate() == old.getstate()
        shapes["dim 0" if dim == 0 else "bound 0" if bound == 0 else "other"] += 1
    assert min(shapes[k] for k in ("dim 0", "bound 0", "other")) >= 100, shapes


def test_draw_streams_match_randint_and_randrange():
    # The draws read getrandbits in place, as randrange and randint read it:
    # sample_apex is randint(-bound, bound), randint(-2, 2), randint(1, 4)
    # per coordinate, as numerators over APEX_DEN; _random_member is
    # randint(0, 3), randint(1, 2) per generator, as numerators over 2;
    # _trials' indices are randrange(count). The same values, and each
    # generator ends in the state the formulas leave, for bounds 0-5, dims
    # 1-4, 0-4 generators and 1-17 wedges (1, the powers of two and their
    # neighbours among them), on 240 seeds.
    shapes = Counter()
    for seed in range(240):
        new, old = random.Random(seed), random.Random(seed)
        bound, dim, count = seed % 6, 1 + seed // 6 % 4, 1 + seed % 17
        for _ in range(3):
            expected = []
            for _ in range(dim):
                x, p, q = old.randint(-bound, bound), old.randint(-2, 2), old.randint(1, 4)
                expected.append(APEX_DEN * x + p * (APEX_DEN // q))
            assert sample_apex(new, dim, bound) == expected
        gens = [[old.randint(-3, 3) for _ in range(dim)] for _ in range(seed % 5)]
        assert [[new.randint(-3, 3) for _ in range(dim)] for _ in gens] == gens
        coefficients = [F(old.randint(0, 3), old.randint(1, 2)) for _ in gens]
        expected = [2 * sum(c * g[i] for c, g in zip(coefficients, gens)) for i in range(dim)]
        assert operators._random_member(new, gens, dim) == expected
        assert new.getstate() == old.getstate()
        shapes["no generator" if not gens else "generators"] += 1

        arity, wedges = 1 + seed % 3, [Wedge(1, halfspaces=[])] * count
        old = random.Random(seed)
        for rng, drawn, order, _ in _trials(wedges, arity, seed, 4, lambda ws: None):
            assert drawn == tuple(old.randrange(count) for _ in range(arity))
            assert [drawn[p] for p in order] == sorted(drawn)
        assert rng.getstate() == old.getstate()
        shapes["bound 0" if bound == 0 else "bound > 0"] += 1
    assert min(shapes.values()) >= 40 and len(shapes) == 4, shapes


def test_empty_draw_ranges_raise_before_drawing():
    # randint(1, -1) raises, and so does the draw that replaces it, before
    # any bits are drawn: a bare getrandbits loop below -1 would never end.
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        sample_apex(rng, 2, -1)
    for dim, bound in ((0, -1), (3, -8)):
        with pytest.raises(ValueError):
            sample_apex(rng, dim, bound)
    assert rng.getstate() == state


def test_priced_normals_equal_their_own_minima():
    # msup minimizes C's rows in sequence after their sum, each from the
    # previous optimum. Where that basis is optimal for the row, it takes
    # no pivot and only prices there; either way the value is the row's
    # own cold minimum. Shared wedges and integer or repeated apexes make
    # degenerate optima, where the basis may not be optimal for a row.
    rng = random.Random(1307)
    outcomes = Counter()
    for _ in range(500):
        dim = rng.randint(1, 3)
        pool = [rand_wedge(rng, dim) for _ in range(rng.randint(1, 2))]
        shared = rand_vector(rng, dim, -3, 3, 2)
        family = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                apex = shared
            elif kind == 1:
                apex = QVector([rng.randint(-2, 2) for _ in range(dim)])
            else:
                apex = rand_vector(rng, dim, -3, 3, 2)
            family.append(TranslatedWedge(apex, rng.choice(pool)))
        system = _upper_bound_system([tw.wedge for tw in family], None)
        rows, rhs = system.rows, system.rhs(*_common([tw.apex for tw in family]))
        session = Session(dim, rows, rhs)
        if not session.feasible:
            continue
        normals = intersect([tw.wedge for tw in family]).halfspaces
        session.minimize(sum(normals, QVector.zero(dim)))
        for a in normals:
            pivots = session.pivots
            assert session.minimize(a).value == Session(dim, rows, rhs).minimize(a).value
            outcomes["no pivot" if session.pivots == pivots else "pivoted"] += 1
    assert min(outcomes["no pivot"], outcomes["pivoted"]) >= 20, outcomes


def test_a_certified_warm_basis_attains_every_minimum(session_builds):
    # Warm.solve's no-LP paths. A trial inside a kept region, a basis no row
    # of C pivoted at, gets that basis's point at its right-hand sides, which
    # attains the cold minimum of the sum of C's rows and of every row. A
    # trial decided by kept optima gets a point attaining every cold minimum
    # exactly when the cold minimum of the sum is the sum of the rows' (a
    # nonempty set), else none. A trial that builds a session gets the cold
    # sum's minimizer. No kept route builds a session. Trials share one Warm
    # per family of halfspaces, as the search's sorted families do.
    outcomes = Counter()

    class Watched(Warm):
        __slots__ = ()

        def solve(self, rhs):
            route, built = memo_route(self, rhs), len(session_builds)
            feasible, basis = super().solve(rhs)
            assert len(session_builds) == built + (route == "session")
            if not feasible:
                assert basis is None
                return feasible, basis
            outcomes[route] += 1
            point = None if basis is None else basis.point(rhs)
            colds = [Session(self.n, self.rows, rhs).minimize(a) for a in self.objectives]
            common = colds[0].value == sum(cold.value for cold in colds[1:])
            assert (point is not None) == common and (common or route != "region")
            if point is not None:
                for a, cold in zip(self.objectives, colds, strict=True):
                    assert a.dot(point) == cold.value
            if route == "session":
                assert point is None or point == colds[0].point
            return feasible, basis

    rng = random.Random(1017)
    for _ in range(60):
        dim = rng.randint(1, 3)
        normals = [V([rng.randint(-2, 2) or 1 for _ in range(dim)]) for _ in range(rng.randint(2, 3))]
        wedges = [Wedge(dim, halfspaces=[a]) for a in normals]
        cw = intersect(wedges)
        system = _upper_bound_system(wedges, cw)
        warm = Watched(system.n, system.rows, system.terms, cw.halfspaces)
        for _ in range(20):
            warm.solve(warm.rhs([sample_apex(rng, dim, 2) for _ in wedges], APEX_DEN))
    for outcome in ("region", "optima", "session"):
        assert outcomes[outcome] >= 20, outcomes


def test_the_memo_decides_as_cold_sessions(monkeypatch, session_builds):
    # Every trial of both searches that a Warm decides from kept entries gets
    # a cold session's verdict, and builds no session. In a lattice search a
    # kept region's point attains the cold minimum of every row of P: each is
    # a nonnegative combination of C's rows, so the point is a multi-supremum.
    # Kept optima, which only a lattice search keeps, give a point attaining
    # each objective's cold minimum (the sum of C's rows, then each row), or
    # none exactly when the cold minimum of the sum is not the sum of the
    # rows': cold msup's verdict, as the objectives are msup's. Any other
    # trial builds one session, which ends at a cold one's basis after as many
    # pivots, and gets a cold one's point: the sum's minimizer, or the phase-1
    # point where there is no objective, as in a decomposition search. Gated
    # on the ways a trial goes: refuted by a kept Farkas vector, inside a kept
    # region, decided by kept optima, and passed on to a session.
    outcomes = Counter()
    lattice = [True]

    class Watched(Warm):
        __slots__ = ()

        def solve(self, rhs):
            route, built = memo_route(self, rhs), len(session_builds)
            feasible, basis = super().solve(rhs)
            assert len(session_builds) == built + (route == "session")
            point = None if basis is None else basis.point(rhs)
            n, rows = self.n, self.rows
            session = session_builds[-1] if route == "session" else None
            cold = Session(n, rows, rhs)
            assert feasible == cold.feasible and (feasible or point is None)
            outcomes[route] += 1
            if route == "region" and lattice[0]:
                for a in rows:
                    assert a.dot(point) == cold.minimize(a).value
            elif route == "optima":
                assert lattice[0]
                minima = [Session(n, rows, rhs).minimize(c) for c in self.objectives]
                assert (point is None) == (minima[0].value != sum(res.value for res in minima[1:]))
                if point is not None:
                    for c, res in zip(self.objectives, minima, strict=True):
                        assert c.dot(point) == res.value
                outcomes["optima", point is None] += 1
            elif route == "session":
                if feasible and self.objectives:
                    minima = [cold.minimize(c) for c in self.objectives]
                    common = minima[0].value == sum(res.value for res in minima[1:])
                    assert point == (minima[0].point if common else None)
                elif feasible:
                    assert point == Region(cold).point(rhs)
                assert session._basis == cold._basis and session.pivots == cold.pivots
            return feasible, basis

    monkeypatch.setattr(multiorder, "Warm", Watched)
    monkeypatch.setattr(operators, "Warm", Watched)
    rng = random.Random(6007)
    coord = _coordinate_wedges()
    for run in range(48):
        lattice[0] = run % 2 == 0
        if run % 6 < 2:
            wedges = list(w123())
        elif run % 6 < 4:
            wedges = [quadrant(), diagonal_ray()]
        else:
            dim = rng.randint(1, 3)
            wedges = coord if run % 12 == 5 else [rand_wedge(rng, dim) for _ in range(rng.randint(1, 3))]
        seed = rng.randrange(1 << 20)
        if lattice[0]:
            k = 2 + run % 4 // 2
            assert multilattice_search(wedges, k, seed=seed, budget=60) == cold_multilattice_search(
                wedges, k, seed=seed, budget=60
            )
        else:
            assert rdp_search(wedges, 2, 2, seed=seed, budget=40) == cold_rdp_search(wedges, 2, 2, seed=seed, budget=40)
    for outcome in ("farkas", "region", "session", ("optima", False)):
        assert outcomes[outcome] >= 20, outcomes


def test_searches_build_no_point(monkeypatch):
    # Both searches read only Warm.solve's verdict: the lattice search
    # whether P is nonempty with no basis minimizing every row of C, the
    # decomposition search feasibility. No trial builds a point, on any of
    # the four routes a trial takes, and the outcomes are the cold oracles'.
    routes = Counter()
    solve = Warm.solve

    def counted(self, rhs):
        routes[memo_route(self, rhs)] += 1
        return solve(self, rhs)

    def refused(self, rhs):
        raise AssertionError("a search trial built a point")

    monkeypatch.setattr(Warm, "solve", counted)
    monkeypatch.setattr(Region, "point", refused)
    rng = random.Random(9157)
    runs = []
    for run in range(24):
        if run % 4 == 0:
            wedges = list(w123())
        elif run % 4 == 1:
            wedges = [quadrant(), diagonal_ray()]
        else:
            dim = rng.randint(1, 3)
            wedges = [rand_wedge(rng, dim) for _ in range(rng.randint(1, 3))]
        seed, lattice = rng.randrange(1 << 20), run % 8 < 5
        if lattice:
            k = 2 + run % 2
            runs.append((wedges, k, seed, multilattice_search(wedges, k, seed=seed, budget=60)))
        else:
            runs.append((wedges, None, seed, rdp_search(wedges, 2, 2, seed=seed, budget=40)))
    monkeypatch.undo()
    for wedges, k, seed, got in runs:
        if k is None:
            assert got == cold_rdp_search(wedges, 2, 2, seed=seed, budget=40)
        else:
            assert got == cold_multilattice_search(wedges, k, seed=seed, budget=60)
    for route in ("farkas", "region", "optima", "session"):
        assert routes[route] >= 20, routes


def test_most_search_trials_are_decided_without_a_session(monkeypatch, session_builds):
    # On ex2.7 at k = 2 fewer than a quarter of the trials build a
    # session: the rest are decided by the kept regions. On ex3.7 at
    # k = 3 a basis is seldom optimal for every row of C, so most trials
    # are decided by the kept optima of each row, and again fewer than a
    # quarter build a session. A fresh Warm, as msup and rdp_check build,
    # keeps nothing, so every call gets the cold session and no public
    # witness depends on an earlier call.
    calls = Counter()
    solve = Warm.solve

    def solved(self, rhs):
        calls["trial"] += 1
        calls[memo_route(self, rhs)] += 1
        return solve(self, rhs)

    monkeypatch.setattr(Warm, "solve", solved)
    assert multilattice_search(list(w123()), 2, seed=3, budget=200) is None
    assert calls["trial"] == 200 and len(session_builds) == calls["session"], calls
    assert calls["session"] * 4 < calls["trial"], calls

    calls.clear()
    session_builds.clear()
    assert multilattice_search([quadrant(), diagonal_ray()], 3, seed=3, budget=200) is None
    assert calls["trial"] == 200 and len(session_builds) == calls["session"], calls
    assert calls["session"] * 4 < calls["trial"] and calls["optima"] > calls["region"], calls

    calls.clear()
    session_builds.clear()
    rng = random.Random(29)
    wedges = [rand_wedge(rng, 2) for _ in range(3)]
    for _ in range(30):
        family = [TranslatedWedge(rand_vector(rng, 2, -3, 3, 2), rng.choice(wedges)) for _ in range(3)]
        try:
            msup(family)
        except NotMultiBoundedAbove:
            pass
    ys = (V([1, 0]), V([1, 1]))
    for xs in ((V([2, 0]), V([0, 1])), (V([1, 1]), V([1, 0])), (V([2, 1]),)):
        rdp_check(RDPInstance((quadrant(), diagonal_ray()), xs, ys))
    assert calls["trial"] == calls["session"] == len(session_builds) == 33, calls


def _same_msup_set(a, b, dim):
    if a is None or b is None:
        return a is b
    if [v.entries for v in a.lineality_basis] != [v.entries for v in b.lineality_basis]:
        return False
    return span_contains(a.lineality_basis, a.witness - b.witness, dim)


def _random_bounded_family(rng, dim, size):
    wedges = [rand_wedge(rng, dim) for _ in range(size)]
    apexes = [rand_vector(rng, dim, -3, 3, 2) for _ in range(size)]
    fam = [TranslatedWedge(a, w) for a, w in zip(apexes, wedges)]
    if multi_bounded_above(fam) is None:
        return None
    return fam


def test_translation_identity_sampled():
    # msup(y + x_i, W_i) = y + msup(x_i, W_i) as sets
    rng = random.Random(60)
    done = 0
    while done < 120:
        dim = rng.randint(1, 3)
        fam = _random_bounded_family(rng, dim, rng.randint(1, 3))
        if fam is None:
            continue
        done += 1
        y = rand_vector(rng, dim, -3, 3, 2)
        base = msup(fam)
        shifted = msup([TranslatedWedge(y + tw.apex, tw.wedge) for tw in fam])
        if base is None:
            assert shifted is None
            continue
        moved = type(base)(base.witness + y, base.lineality_basis)
        assert _same_msup_set(moved, shifted, dim)


def test_scaling_identity_sampled():
    rng = random.Random(61)
    done = 0
    while done < 120:
        dim = rng.randint(1, 3)
        fam = _random_bounded_family(rng, dim, rng.randint(1, 3))
        if fam is None:
            continue
        done += 1
        lam = F(rng.randint(1, 5), rng.randint(1, 3))
        base = msup(fam)
        scaled = msup([TranslatedWedge(lam * tw.apex, tw.wedge) for tw in fam])
        if base is None:
            assert scaled is None
            continue
        moved = type(base)(lam * base.witness, base.lineality_basis)
        assert _same_msup_set(moved, scaled, dim)


def test_negation_identity_sampled():
    rng = random.Random(62)
    done = 0
    while done < 120:
        dim = rng.randint(1, 3)
        fam = _random_bounded_family(rng, dim, rng.randint(1, 3))
        if fam is None:
            continue
        done += 1
        below = [TranslatedWedge(-tw.apex, tw.wedge) for tw in fam]
        mi = minf(below)
        ms = msup(fam)
        if ms is None:
            assert mi is None
            continue
        moved = type(ms)(-ms.witness, ms.lineality_basis)
        assert _same_msup_set(moved, mi, dim)


def test_msup_witness_soundness_sampled():
    # the witness is an upper bound below every sampled upper bound
    rng = random.Random(63)
    done = 0
    while done < 40:
        dim = rng.randint(1, 3)
        fam = _random_bounded_family(rng, dim, rng.randint(1, 3))
        if fam is None:
            continue
        res = msup(fam)
        if res is None:
            continue
        done += 1
        z = res.witness
        assert is_multi_upper_bound(z, fam)
        cone = intersect([tw.wedge for tw in fam])
        normals = cone.canonical_halfspaces
        from multiwedge import GE, Constraint, LinearProgram, Optimal, lp_solve

        cons = []
        for tw in fam:
            for a in tw.wedge.halfspaces:
                cons.append(Constraint(a, GE, a.dot(tw.apex)))
        for _ in range(10):
            if normals:
                weights = [F(rng.randint(0, 3)) for _ in normals]
                objective = QVector.zero(dim)
                for wgt, a in zip(weights, normals):
                    objective = objective + wgt * a
            else:
                objective = QVector.zero(dim)
            r = lp_solve(LinearProgram(dim, objective, "min", tuple(cons)))
            assert isinstance(r, Optimal)
            u = r.point
            assert is_multi_upper_bound(u, fam)
            for tw in fam:
                assert tw.wedge.member(u - z)


def _oracle_verdict(fam):
    """msup's verdict on ``fam``, checked against the equality-system oracle.

    Same verdict and lineality; the witness of a non-proper set may
    differ, but it lies in the oracle's set.
    """
    try:
        want = equality_system_msup(fam)
    except NotMultiBoundedAbove:
        with pytest.raises(NotMultiBoundedAbove):
            msup(fam)
        return "not bounded"
    got = msup(fam)
    if want is None:
        assert got is None
        return "empty"
    assert [v.entries for v in got.lineality_basis] == [v.entries for v in want.lineality_basis]
    assert want.contains(got.witness)
    return "proper" if want.is_proper else "non-proper"


def _redundant_family(rng):
    """Halfspace-given wedges, some with a positive combination of two of their rows appended.

    In half the families every row is orthogonal to one direction d, so
    that C holds the line through d.
    """
    dim = rng.randint(2, 3)
    d = [rng.randint(-2, 2) for _ in range(dim)] if rng.random() < 0.5 else [0] * dim
    dd = sum(e * e for e in d)
    family = []
    for _ in range(rng.randint(1, 3)):
        rows = []
        for _ in range(rng.randint(1, 3)):
            a = [rng.randint(-3, 3) for _ in range(dim)]
            ad = sum(x * y for x, y in zip(a, d))
            a = V([dd * x - ad * y for x, y in zip(a, d)]) if dd else V(a)
            if not a.is_zero():
                rows.append(a)
        if len(rows) >= 2:
            i, j = rng.sample(range(len(rows)), 2)
            combo = rng.randint(1, 2) * rows[i] + rng.randint(1, 2) * rows[j]
            if not combo.is_zero():
                rows.append(combo)
        if rows:
            family.append(TranslatedWedge(rand_vector(rng, dim, -3, 3, 2), Wedge(dim, halfspaces=rows)))
    return family or _redundant_family(rng)


def test_msup_matches_equality_system_oracle():
    # The oracle minimizes C's canonical rows; msup its rows as the family
    # gives them, which may be redundant.
    rng = random.Random(64)
    verdicts = Counter()
    for _ in range(600):
        dim = rng.randint(1, 3)
        size = rng.randint(1, 3)
        fam = [
            TranslatedWedge(rand_vector(rng, dim, -3, 3, 2), rand_wedge(rng, dim))
            for _ in range(size)
        ]
        verdicts[_oracle_verdict(fam)] += 1
    for verdict in ("not bounded", "empty", "proper", "non-proper"):
        assert verdicts[verdict] >= 40, verdicts
    # Families whose C has rows that its canonical rows do not list.
    redundant = Counter()
    for _ in range(600):
        fam = _redundant_family(rng)
        cw = intersect([tw.wedge for tw in fam])
        if set(cw.halfspaces) != set(cw.canonical_halfspaces):
            redundant[_oracle_verdict(fam)] += 1
    for verdict in ("not bounded", "empty", "proper", "non-proper"):
        assert redundant[verdict] >= 20, redundant


def test_intersection_closed_family_stays_lattice():
    # closure under pairwise intersection + 2-lattice behaviour propagates
    # to higher arities (sampled)
    w1 = halfplane([1, 0])
    w3 = halfplane([1, 1])
    meet = intersect([w1, w3])
    family = [w1, w3, meet]
    assert multilattice_search(family, 2, seed=3, budget=150) is None
    for k in range(3, 7):
        assert multilattice_search(family, k, seed=3, budget=150) is None


def test_family_json_roundtrip():
    fam = triple_family()
    again = [TranslatedWedge.from_json(tw.to_json()) for tw in fam]
    assert [tw.apex for tw in again] == [tw.apex for tw in fam]
    res = msup([tw for tw in again][:2])
    payload = res.to_json()
    assert set(payload) == {"witness", "lineality"}
