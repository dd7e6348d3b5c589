import random
from collections import Counter
from fractions import Fraction as F

import pytest

from multiwedge import (
    QVector,
    Wedge,
    dual_wedge,
    hrep_to_vrep,
    intersect,
    is_cone,
    is_generating,
    lineality,
    member,
    vrep_to_hrep,
    wedge_equal,
    wedge_sum,
)
from multiwedge.wedges import _primitive

from conftest import diagonal_ray, quadrant, rand_vector, rand_wedge, subset_scan_rays

V = QVector


def test_conversion_first_quadrant():
    hs = vrep_to_hrep([V([1, 0]), V([0, 1])], 2)
    assert sorted(h.entries for h in hs) == [(F(0), F(1)), (F(1), F(0))]


def test_conversion_halfplane_membership_crosscheck():
    # halfspace y >= -x: generators must describe the same region
    gens = hrep_to_vrep([V([1, 1])], 2)
    w_h = Wedge(2, halfspaces=[V([1, 1])])
    w_v = Wedge(2, generators=gens)
    rng = random.Random(123)
    for _ in range(100):
        x = rand_vector(rng, 2)
        assert w_h.member(x) == w_v.member(x)
    assert wedge_equal(w_h, w_v)


def test_conversion_zero_wedge():
    hs = vrep_to_hrep([], 2)
    assert sorted(h.entries for h in hs) == [
        (F(-1), F(0)),
        (F(0), F(-1)),
        (F(0), F(1)),
        (F(1), F(0)),
    ]


def test_double_description_matches_subset_scan():
    # The canonical generators must equal those built from the subset
    # scan's lineality basis and extreme rays on every input.
    rng = random.Random(61)
    seen = Counter()
    for trial in range(500):
        dim = rng.randint(1, 5)
        kind = trial % 5
        zero = QVector.zero(dim)
        if kind == 0:  # rows of a random subspace: lineality, and d = 1 often
            span = [rand_vector(rng, dim, -2, 2, 1) for _ in range(rng.randint(1, dim))]
            coefs = [[rng.randint(-2, 2) for _ in span] for _ in range(rng.randint(0, 6))]
            rows = [sum((c * b for c, b in zip(cs, span)), zero) for cs in coefs]
        elif kind == 1:  # rows and minus their sum: {0} once they span
            rows = [rand_vector(rng, dim, -2, 2, 1) for _ in range(rng.randint(1, 6))]
            rows.append(-sum(rows, zero))
        elif kind == 4:  # a cone containing e_1, cut by a.x = 0 with a_1 = 0
            a = V([0, *(rng.randint(-2, 2) for _ in range(dim - 1))])
            rows = [V([1, *(rng.randint(-2, 2) for _ in range(dim - 1))]) for _ in range(dim + 3)]
            rows += [a, -a]
        else:
            rows = [rand_vector(rng, dim, -2, 2, 2) for _ in range(rng.randint(0, 7))]
        if rows and kind == 2:  # duplicated and parallel rows
            for _ in range(2):
                rows.append(F(rng.choice([1, 2, -1, -3]), rng.randint(1, 3)) * rng.choice(rows))
        if len(rows) > 1 and kind == 3:  # sums of rows: tight where both are
            rows += [rng.choice(rows) + rng.choice(rows) for _ in range(3)]
        rng.shuffle(rows)

        lin, rays = subset_scan_rays(rows, dim)
        gens = [v for b in lin for v in (b, -b)] + rays
        expected = sorted({_primitive(v) for v in gens}, key=lambda v: v.entries)
        assert hrep_to_vrep(rows, dim) == expected

        d = dim - len(lin)
        distinct = {_primitive(a) for a in rows if not a.is_zero()}
        seen["lineality"] += 0 < len(lin) < dim
        seen["zero"] += not gens
        seen["whole space"] += d == 0
        seen["d=1"] += d == 1
        seen["parallel rows"] += len(distinct) + sum(a.is_zero() for a in rows) < len(rows)
        tight = [sum(a.dot(r) == 0 for a in distinct) for r in rays]
        seen["degenerate ray"] += any(t > d - 1 for t in tight)
    for key in ("lineality", "zero", "whole space", "d=1", "parallel rows", "degenerate ray"):
        assert seen[key] >= 20, (key, seen)


def test_member_examples():
    assert member(quadrant(), V([1, 2]))
    assert not member(diagonal_ray(), V([1, 0]))
    assert member(diagonal_ray(), V([0, 0]))
    assert member(quadrant(), V([0, 0]))


def test_member_dim_mismatch():
    with pytest.raises(ValueError):
        member(quadrant(), V([1, 2, 3]))


def test_wedge_sum_absorbs_diagonal():
    total = wedge_sum([quadrant(), diagonal_ray()])
    assert wedge_equal(total, quadrant())


def test_wedge_sum_with_origin():
    w = Wedge(2, generators=[V([1, -1])])
    assert wedge_equal(wedge_sum([w, Wedge(2, generators=[])]), w)


def test_wedge_sum_opposite_rays_is_line():
    line = wedge_sum(
        [Wedge(2, generators=[V([1, 0])]), Wedge(2, generators=[V([-1, 0])])]
    )
    expected = Wedge(2, halfspaces=[V([0, 1]), V([0, -1])])
    assert wedge_equal(line, expected)


def test_intersect_halfplanes_is_quadrant():
    w1 = Wedge(2, halfspaces=[V([1, 0])])
    w2 = Wedge(2, halfspaces=[V([0, 1])])
    assert wedge_equal(intersect([w1, w2]), quadrant())


def test_intersect_with_whole_space():
    w = Wedge(2, halfspaces=[V([1, 2])])
    assert wedge_equal(intersect([w, Wedge(2, halfspaces=[])]), w)


def test_intersect_opposite_halfspaces_is_axis():
    w = intersect(
        [Wedge(2, halfspaces=[V([1, 0])]), Wedge(2, halfspaces=[V([-1, 0])])]
    )
    assert wedge_equal(w, Wedge(2, generators=[V([0, 1]), V([0, -1])]))


def test_lineality_examples():
    assert lineality(quadrant()) == []
    half = Wedge(2, halfspaces=[V([1, 0])])
    basis = lineality(half)
    assert len(basis) == 1 and basis[0].entries in ((F(0), F(1)), (F(0), F(-1)))
    assert len(lineality(Wedge(2, halfspaces=[]))) == 2


def test_is_cone_examples():
    assert is_cone(quadrant())
    assert not is_cone(Wedge(2, halfspaces=[V([1, 0])]))
    assert not is_cone(Wedge(2, halfspaces=[V([1, 1])]))  # halfplane


def test_is_generating_examples():
    assert is_generating(quadrant())
    assert not is_generating(diagonal_ray())
    assert not is_generating(Wedge(1, generators=[]))


def test_dual_examples():
    # coordinate wedge in Q^3 dualizes to the coordinate ray
    s_wedge = Wedge(3, halfspaces=[V([0, 1, 0])])
    assert wedge_equal(dual_wedge(s_wedge), Wedge(3, generators=[V([0, 1, 0])]))
    assert wedge_equal(dual_wedge(quadrant()), quadrant())
    assert wedge_equal(dual_wedge(Wedge(2, halfspaces=[])), Wedge(2, generators=[]))


def test_wedge_equal_examples():
    w = quadrant()
    assert wedge_equal(w, w)
    assert wedge_equal(dual_wedge(dual_wedge(w)), w)
    assert not wedge_equal(quadrant(), diagonal_ray())


def test_double_description_consistency_enforced():
    with pytest.raises(ValueError):
        Wedge(2, generators=[V([-1, 0])], halfspaces=[V([1, 0])])
    # consistent double description is accepted
    Wedge(2, generators=[V([1, 0]), V([0, 1])], halfspaces=[V([1, 0]), V([0, 1])])


def test_from_json_requires_both_sides_to_describe_one_wedge():
    # Generators {0} against the ray the halfspace gives: the constructor's
    # check (generators satisfy halfspaces) passes, from_json's converse fails.
    data = {"dim": 1, "generators": [], "halfspaces": [["1"]]}
    Wedge(1, generators=[], halfspaces=[V([1])])
    with pytest.raises(ValueError, match="inconsistent double description"):
        Wedge.from_json(data)
    # A ray against the half-plane it bounds.
    with pytest.raises(ValueError, match="inconsistent double description"):
        Wedge.from_json({"dim": 2, "generators": [["1", "0"]], "halfspaces": [["1", "0"]]})
    # Equal wedges with redundant, unscaled or reordered sides are accepted,
    # and so is each side alone.
    for gens, hs in [
        ([["1", "0"], ["0", "2"], ["1", "1"]], [["0", "1"], ["3", "0"]]),
        ([["1", "0"], ["-1", "0"], ["0", "1"]], [["0", "1"], ["0", "1/2"]]),
        ([], [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]),
        ([["1"], ["-1"]], []),
    ]:
        w = Wedge.from_json({"dim": len((gens or hs)[0]), "generators": gens, "halfspaces": hs})
        assert wedge_equal(w, Wedge(w.dim, generators=w.generators))
        assert wedge_equal(w, Wedge(w.dim, halfspaces=w.halfspaces))
    assert Wedge.from_json({"dim": 1, "halfspaces": [["1"]]}).canonical_generators == (V([1]),)
    assert Wedge.from_json({"dim": 1, "generators": []}).canonical_generators == ()


def test_wedge_needs_some_representation():
    with pytest.raises(ValueError):
        Wedge(2)


def test_json_roundtrip():
    w = Wedge(2, generators=[V(["1/2", "0"]), V([0, 1])])
    again = Wedge.from_json(w.to_json())
    assert wedge_equal(w, again)
    canon = w.to_json(canonical=True)
    assert set(canon) == {"dim", "generators", "halfspaces"}


def test_roundtrip_random_wedges():
    rng = random.Random(42)
    for _ in range(120):
        dim = rng.randint(1, 4)
        w = rand_wedge(rng, dim)
        hs = vrep_to_hrep(list(w.generators), dim)
        back = hrep_to_vrep(hs, dim)
        assert wedge_equal(w, Wedge(dim, generators=back))


def test_bidual_random_wedges():
    rng = random.Random(43)
    for _ in range(120):
        dim = rng.randint(1, 4)
        w = rand_wedge(rng, dim)
        assert wedge_equal(dual_wedge(dual_wedge(w)), w)


def test_sum_and_intersect_memberships():
    rng = random.Random(44)
    for _ in range(60):
        dim = rng.randint(1, 4)
        ws = [rand_wedge(rng, dim) for _ in range(rng.randint(1, 3))]
        total = wedge_sum(ws)
        for w in ws:
            for g in w.generators:
                assert total.member(g)
        meet = intersect(ws)
        for g in meet.generators:
            assert all(w.member(g) for w in ws)


def test_lineality_members_both_ways():
    rng = random.Random(45)
    for _ in range(80):
        dim = rng.randint(1, 4)
        w = rand_wedge(rng, dim)
        for v in lineality(w):
            assert w.member(v) and w.member(-v)


def test_each_side_is_converted_once(conversions):
    # H-given: one H->V scan for the generators, one V->H scan back.
    given = (V([1, 0, 0]), V([0, 1, 0]), V([1, 1, 1]))
    w = Wedge(3, halfspaces=given)
    gens = w.canonical_generators
    assert w.generators == gens
    assert w.canonical_halfspaces == tuple(sorted(given, key=lambda v: v.entries))
    assert w.halfspaces == given
    assert lineality(w) == []
    assert len(conversions) == 2

    # V-given: one V->H scan serves the halfspaces and the lineality.
    conversions.clear()
    w = Wedge(3, generators=[V([1, 0, 0]), V([0, 1, 0]), V([0, 0, 1]), V([0, 0, -1])])
    hs = w.canonical_halfspaces
    assert w.halfspaces == hs
    assert lineality(w) == [V([0, 0, 1])]
    assert len(conversions) == 1


def test_each_side_is_converted_once_across_threads(conversions):
    import sys
    import threading

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            conversions.clear()
            w = Wedge(4, halfspaces=[V([1, 0, 0, 0]), V([0, 1, 0, 0]), V([1, 1, 1, 0])])
            results = []

            def worker():
                gens = w.canonical_generators
                results.append((gens, w.generators, w.canonical_halfspaces, lineality(w)))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(results) == 8 and all(r == results[0] for r in results)
            assert len(conversions) == 2
    finally:
        sys.setswitchinterval(interval)


def test_lazy_representation_is_thread_safe():
    import threading

    rng = random.Random(47)
    for _ in range(10):
        dim = rng.randint(2, 4)
        w = rand_wedge(rng, dim)
        results = []

        def worker():
            results.append((w.canonical_generators, w.canonical_halfspaces))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)


def test_wedge_decomposes_into_lineality_plus_pointed():
    rng = random.Random(46)
    for _ in range(80):
        dim = rng.randint(1, 4)
        w = rand_wedge(rng, dim)
        lin = lineality(w)
        lin_gens = [v for b in lin for v in (b, -b)]
        pointed_gens = [g for g in w.canonical_generators if g not in set(lin_gens)]
        parts = []
        parts.append(Wedge(dim, generators=lin_gens))
        parts.append(Wedge(dim, generators=pointed_gens))
        assert is_cone(parts[1]) or not pointed_gens
        assert wedge_equal(wedge_sum(parts), w)
