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

from multiwedge import multiorder
from multiwedge.lp import Farkas, Optima, Region, Session, Warm
from multiwedge.operators import RDPInstance, rdp_check, rdp_search
from multiwedge.multiorder import MultiSupSet, _below, _msup, _upper_bound_rhs, _upper_bound_rows, sample_apex

from conftest import (
    cold_multilattice_search,
    cold_rdp_search,
    equality_system_msup,
    fraction_sample_apex,
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
    quadrant = Wedge(2, generators=[V([1, 0]), V([0, 1])])
    diag = Wedge(2, generators=[V([1, 1])])
    for k in (2, 3, 4, 5):
        assert multilattice_search([quadrant, diag], k, seed=0, budget=1000) is None


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
    # wedges with lines, for k = 1..3.
    rng = random.Random(1729)
    quadrant = Wedge(2, generators=[V([1, 0]), V([0, 1])])
    diag = Wedge(2, generators=[V([1, 1])])
    coordinate = [Wedge(3, halfspaces=[V.unit(3, s)]) for s in range(3)]
    found = Counter()
    for run in range(400):
        kind = run % 4
        if kind == 0:
            wedges = list(w123())
        elif kind == 1:
            wedges = [quadrant, diag]
        elif kind == 2:
            wedges = coordinate
        else:
            dim = rng.randint(1, 3)
            wedges = [rand_wedge(rng, dim) for _ in range(rng.randint(1, 3))]
        k, seed, budget = 1 + run % 3, rng.randrange(1 << 20), rng.randint(10, 40)
        got = multilattice_search(wedges, k, seed=seed, budget=budget)
        assert got == cold_multilattice_search(wedges, k, seed=seed, budget=budget)
        found[got is not None] += 1
    assert found[True] >= 40 and found[False] >= 100, found


def test_msup_with_warm_matches_cold():
    # Families on one sorted wedge multiset share one Warm, as the search's
    # families do, but every verdict is read: empty sets, no upper bound,
    # and nonempty sets. A trial that no kept entry decides gets a cold
    # session, so its witness is cold msup's; one that kept bases decide
    # may give any point of the cold set. A trial decided by kept optima
    # has, for the sum of C's rows and for each row, the value y . b of a
    # kept basis optimal for it, which is the cold minimum, and cold msup's
    # verdict, on empty and on nonempty sets.
    class Watched(Warm):
        __slots__ = ()

        def solve(self, n, rhs, rows):
            solved = super().solve(n, rhs, rows)
            routes.append(type(solved))
            if isinstance(solved, Optima):
                objectives = [sum(cw.halfspaces, QVector.zero(n)), *cw.halfspaces]
                for value, c in zip(solved.values, objectives, strict=True):
                    assert value == Session(n, rows(), rhs).minimize(c).value
            return solved

    rng = random.Random(4242)
    quadrant = Wedge(2, generators=[V([1, 0]), V([0, 1])])
    diag = Wedge(2, generators=[V([1, 1])])
    outcomes = Counter()
    for run in range(60):
        if run % 3 == 0:
            wedges = list(w123())
        elif run % 3 == 1:
            wedges = [quadrant, diag]
        else:
            dim = rng.randint(1, 3)
            wedges = [rand_wedge(rng, dim) for _ in range(rng.randint(1, 3))]
        # ex2.7's halfplanes at k = 3 give empty sets, at k = 2 none.
        k, warm = 2 + (run % 3 == 2 or run % 6 == 0), {}
        for _ in range(30):
            indices = tuple(sorted(rng.randrange(len(wedges)) for _ in range(k)))
            family = [TranslatedWedge(sample_apex(rng, wedges[0].dim, 4), wedges[i]) for i in indices]
            results, routes = [], []
            cw = intersect([tw.wedge for tw in family])
            if indices not in warm:
                warm[indices] = Watched()
            for solve in (msup, lambda f: _msup(f, cw, warm[indices])):
                try:
                    results.append(solve(family))
                except NotMultiBoundedAbove:
                    results.append("not bounded")
            cold, got = results
            if cold is None or cold == "not bounded":
                assert got == cold
                outcomes[str(cold)] += 1
            else:
                assert got.lineality_basis == cold.lineality_basis and cold.contains(got.witness)
                outcomes["proper" if cold.is_proper else "lines"] += 1
                if routes == [Session]:
                    assert got.witness == cold.witness
                    outcomes["session", cold.is_proper] += 1
            if routes == [Optima]:
                outcomes["optima", cold is None] += 1
    for outcome in ("None", "not bounded", "proper", "lines", ("session", True), ("session", False)):
        assert outcomes[outcome] >= 20, outcomes
    assert min(outcomes["optima", True], outcomes["optima", False]) >= 20, outcomes


def test_search_builds_its_rows_once_per_wedge_multiset(row_builds):
    # ex2.7's pairs always have an upper bound. The rows of each of the 6
    # sorted pairs are built on its first trial and kept for every later one.
    assert multilattice_search(list(w123()), 2, seed=3, budget=200) is None
    assert len(row_builds) <= 6


def test_search_builds_one_warm_per_wedge_multiset(monkeypatch):
    # A Warm is built only for a multiset no earlier trial drew: 6 for the
    # 6 sorted pairs of ex2.7's 3 wedges, not one per trial.
    built = []
    init = Warm.__init__
    monkeypatch.setattr(Warm, "__init__", lambda self: built.append(init(self)))
    assert multilattice_search(list(w123()), 2, seed=3, budget=200) is None
    assert len(built) == 6


def test_search_at_arity_3_builds_its_rows_once_per_wedge_multiset(row_builds):
    # Coordinate wedges of Q^3 meet in the orthant, so every triple has an
    # upper bound and a multi-supremum: the rows are built once for each of
    # the C(5, 3) = 10 multisets of 3 out of 3 wedges, not per ordered triple.
    coord = [Wedge(3, halfspaces=[V.unit(3, s)]) for s in range(3)]
    assert multilattice_search(coord, 3, seed=3, budget=200) is None
    assert len(row_builds) <= 10


@pytest.mark.parametrize("k, most", [(2, 3), (3, 4)])
def test_search_without_upper_bounds_builds_its_rows_once_per_wedge_multiset(row_builds, k, most):
    # ex3.7's quadrant and ray: a trial with the ray twice has no upper
    # bound unless its apexes differ by a multiple of (1, 1), so those
    # multisets see infeasible trials only. Feasible or not, the rows of
    # each of the k + 1 sorted multisets are built once.
    quadrant = Wedge(2, generators=[V([1, 0]), V([0, 1])])
    ray = Wedge(2, generators=[V([1, 1])])
    assert multilattice_search([quadrant, ray], k, seed=3, budget=200) is None
    assert len(row_builds) <= most


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
            assert sample_apex(new, dim, bound) == fraction_sample_apex(old, dim, bound)
        assert new.getstate() == old.getstate()
        shapes["dim 0" if dim == 0 else "bound 0" if bound == 0 else "other"] += 1
    assert min(shapes[k] for k in ("dim 0", "bound 0", "other")) >= 100, shapes


def test_draws_below_n_match_randrange():
    # _below(rng, n) is rng.randrange(n): the same values and the same
    # generator states, for every width from 1 to 70 (1, the powers of two
    # and their neighbours among them) over many seeds.
    for seed in range(60):
        new, old = random.Random(seed), random.Random(seed)
        for n in range(1, 71):
            for _ in range(5):
                assert _below(new, n) == old.randrange(n)
            assert new.getstate() == old.getstate()


def test_empty_draw_ranges_raise_before_drawing():
    # randint(1, -1) raises, and so does the draw that replaces it, before
    # any bits are drawn: a bare getrandbits loop below -1 would never end.
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        sample_apex(rng, 2, -1)
    for n in (0, -1, -8):
        with pytest.raises(ValueError):
            _below(rng, n)
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
        rows, rhs = _upper_bound_rows(family), _upper_bound_rhs(family)
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


def test_a_certified_warm_basis_attains_every_minimum():
    # msup's no-LP paths. Whenever Warm.solve returns a kept Region, whose
    # basis no row of C pivoted at, its point at the trial's right-hand
    # sides attains the cold minimum of every row of C over P, and _msup
    # returns that point. Whenever it returns kept Optima, each value is
    # the cold minimum of its objective (the sum of C's rows, then each
    # row), the sum's kept basis has its point at the sum's minimum, and
    # _msup returns that point exactly when the set is nonempty. Trials
    # share one Warm per family of halfspaces, as the search's sorted
    # families do.
    outcomes = Counter()

    class Watched(Warm):
        __slots__ = ()

        def solve(self, n, rhs, rows):
            solved = super().solve(n, rhs, rows)
            if solved.feasible:
                outcomes[type(solved).__name__] += 1
            objectives = [sum(cw.halfspaces, QVector.zero(n)), *cw.halfspaces]
            if isinstance(solved, Region):
                point = solved.point(rhs)
                for a in objectives:
                    assert a.dot(point) == Session(n, rows(), rhs).minimize(a).value
                witness.append(point)
            elif isinstance(solved, Optima):
                for value, c in zip(solved.values, objectives, strict=True):
                    assert value == Session(n, rows(), rhs).minimize(c).value
                point = solved.region.point(rhs)
                assert objectives[0].dot(point) == solved.values[0]
                witness.append(point)
                empty.append(solved.values[0] != sum(solved.values[1:]))
            return solved

    rng = random.Random(1017)
    for _ in range(60):
        dim = rng.randint(1, 3)
        normals = [V([rng.randint(-2, 2) or 1 for _ in range(dim)]) for _ in range(rng.randint(2, 3))]
        wedges = [Wedge(dim, halfspaces=[a]) for a in normals]
        cw, warm = intersect(wedges), Watched()
        for _ in range(20):
            family = [TranslatedWedge(sample_apex(rng, dim, 2), w) for w in wedges]
            witness, empty = [], []
            try:
                res = _msup(family, cw, warm)
            except NotMultiBoundedAbove:
                continue
            if witness:
                assert (res is None) == (empty == [True])
                assert res is None or res.witness == witness[0]
    for outcome in ("Region", "Optima", "Session"):
        assert outcomes[outcome] >= 20, outcomes


def test_the_memo_decides_as_cold_sessions(monkeypatch):
    # Every trial of both searches that a Warm decides from kept entries
    # gets a cold session's verdict. In a lattice search a kept region's
    # point attains the cold minimum of every row of P: each is a
    # nonnegative combination of C's rows, so the point is a
    # multi-supremum. Kept optima, which only a lattice search keeps, give
    # each objective's cold minimum (the sum of C's rows, then each row)
    # and cold msup's verdict. Any other trial gets a session with a cold
    # one's basis, point and pivots. Gated on the ways a trial goes:
    # refuted by a kept Farkas vector, inside a kept region, decided by
    # kept optima, and passed on to a session.
    outcomes = Counter()
    lattice = [True]
    trial = {}

    class Watched(Warm):
        __slots__ = ()

        def solve(self, n, rhs, rows):
            solved = super().solve(n, rhs, rows)
            cold = Session(n, rows(), rhs)
            assert solved.feasible == cold.feasible
            if isinstance(solved, Farkas):
                outcomes["farkas"] += 1
            elif isinstance(solved, Region):
                outcomes["region"] += 1
                if lattice[0]:
                    point = solved.point(rhs)
                    for a in rows():
                        assert a.dot(point) == cold.minimize(a).value
            elif isinstance(solved, Optima):
                assert lattice[0]
                cw = trial["cw"]
                objectives = [sum(cw.halfspaces, QVector.zero(n)), *cw.halfspaces]
                for value, c in zip(solved.values, objectives, strict=True):
                    assert value == cold.minimize(c).value
                trial["optima"] = True
            else:
                assert solved._basis == cold._basis and solved.pivots == cold.pivots
                assert solved.feasible_point() == cold.feasible_point()
                outcomes["session"] += 1
            return solved

    def watched_msup(family, cw, warm, msup_=multiorder._msup):
        trial["cw"] = cw
        got = msup_(family, cw, warm)
        if trial.pop("optima", False):
            cold = msup(family)
            assert (got is None) == (cold is None)
            assert got is None or cold.contains(got.witness)
            outcomes["optima", got is None] += 1
        return got

    monkeypatch.setattr(multiorder, "_msup", watched_msup)
    monkeypatch.setattr(multiorder, "Warm", Watched)
    rng = random.Random(6007)
    quadrant, ray = Wedge(2, generators=[V([1, 0]), V([0, 1])]), Wedge(2, generators=[V([1, 1])])
    coord = [Wedge(3, halfspaces=[V.unit(3, s)]) for s in range(3)]
    for run in range(48):
        lattice[0] = run % 2 == 0
        if run % 6 < 2:
            wedges = list(w123())
        elif run % 6 < 4:
            wedges = [quadrant, ray]
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


def test_most_search_trials_are_decided_without_a_session(monkeypatch):
    # On ex2.7 at k = 2 fewer than a quarter of the trials build a
    # session: the rest are decided by the kept regions. On ex3.7 at
    # k = 3 a basis is seldom optimal for every row of C, so most trials
    # are decided by the kept optima of each row, and again fewer than a
    # quarter build a session. A fresh Warm, as msup and rdp_check build,
    # keeps nothing, so every call gets the cold session and no public
    # witness depends on an earlier call.
    calls = Counter()
    solve = Warm.solve

    def solved(self, n, rhs, rows):
        calls["trial"] += 1
        got = solve(self, n, rhs, rows)
        calls["session" if isinstance(got, Session) else "kept"] += 1
        return got

    monkeypatch.setattr(Warm, "solve", solved)
    assert multilattice_search(list(w123()), 2, seed=3, budget=200) is None
    assert calls["trial"] == 200 and calls["session"] * 4 < calls["trial"], calls

    calls.clear()
    quadrant, ray = Wedge(2, generators=[V([1, 0]), V([0, 1])]), Wedge(2, generators=[V([1, 1])])
    assert multilattice_search([quadrant, ray], 3, seed=3, budget=200) is None
    assert calls["trial"] == 200 and calls["session"] * 4 < calls["trial"], calls

    calls.clear()
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
        rdp_check(RDPInstance((quadrant, ray), xs, ys))
    assert calls["trial"] == calls["session"] == 33 and calls["kept"] == 0, calls


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
