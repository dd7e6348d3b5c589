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


def _oracle_vrep(rows, dim):
    """The lineality basis and canonical generators that ``subset_scan_rays`` gives for ``rows``."""
    lin, rays = subset_scan_rays(rows, dim)
    gens = {_primitive(v) for b in lin for v in (b, -b)} | {_primitive(v) for v in rays}
    return lin, tuple(sorted(gens, key=lambda v: v.num))


def test_one_pass_matches_the_subset_scan_twice():
    # A wedge given by one side converts it once and reads the second
    # canonical side off that pass; both sides must be the subset scan's,
    # the second one the scan applied to the first one's output.
    rng = random.Random(62)
    seen = Counter()
    for trial in range(400):
        dim = rng.randint(1, 5)
        kind = trial % 4
        zero = QVector.zero(dim)
        if kind == 0:  # vectors of a random subspace: not full-dimensional
            span = [rand_vector(rng, dim, -2, 2, 1) for _ in range(rng.randint(1, dim))]
            coefs = [[rng.randint(-2, 2) for _ in span] for _ in range(rng.randint(1, 5))]
            rows = [sum((c * b for c, b in zip(cs, span)), zero) for cs in coefs]
        elif kind == 1:  # a line and its negation among p/q vectors
            rows = [rand_vector(rng, dim, -3, 3, 3) for _ in range(rng.randint(1, 4))]
            rows.append(-rows[0])
        else:
            rows = [rand_vector(rng, dim, -2, 2, 2) for _ in range(rng.randint(0, 6))]
        if rows and trial % 3 == 0:  # repeated, parallel and zero vectors
            rows.append(F(rng.choice([1, 2, 3]), rng.randint(1, 3)) * rng.choice(rows))
            rows.append(zero)
        rng.shuffle(rows)

        side = rng.choice(["generators", "halfspaces"])
        first_lin, first = _oracle_vrep(rows, dim)
        second_lin, second = _oracle_vrep(first, dim)
        w = Wedge(dim, **{side: rows})
        # Either side may be read first.
        got = {"generators": None, "halfspaces": None}
        for name in rng.sample(sorted(got), 2):
            got[name] = getattr(w, f"canonical_{name}")
        other = "halfspaces" if side == "generators" else "generators"
        assert got[other] == first and got[side] == second, (trial, side, rows)

        # The shortcut runs when the kernel of the first pass is {0}.
        seen["rref" if second_lin else "full-dimensional"] += 1
        seen["lines"] += bool(first_lin if side == "halfspaces" else second_lin)
        seen["zero or parallel"] += len({_primitive(a) for a in rows if not a.is_zero()}) < len(rows)
        seen["p/q"] += any(a.den > 1 for a in rows)
        seen[side] += 1
        seen[f"dim {dim}"] += 1
    for key in ("full-dimensional", "rref", "lines", "zero or parallel", "p/q", "generators", "halfspaces"):
        assert seen[key] >= 120, (key, seen)
    assert all(seen[f"dim {dim}"] >= 50 for dim in range(1, 6)), seen


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


def test_each_wedge_is_converted_once(conversions):
    # A wedge given by one side makes one conversion, for both canonical
    # sides and the lineality, whichever side is given and read first: the
    # second side is read off the first pass.
    given = (V([1, 0, 0]), V([0, 1, 0]), V([1, 1, 1]))
    lines = (V([0, 0, -1]), V([0, 0, 1]), V([0, 1, 0]), V([1, 0, 0]))
    for first in ("canonical_generators", "canonical_halfspaces"):
        conversions.clear()
        w = Wedge(3, halfspaces=given)
        getattr(w, first)
        assert w.canonical_halfspaces == tuple(sorted(given, key=lambda v: v.num))
        assert w.generators == w.canonical_generators and w.halfspaces == given
        assert lineality(w) == []
        assert len(conversions) == 1

        conversions.clear()
        w = Wedge(3, generators=lines)
        getattr(w, first)
        assert w.canonical_generators == lines
        assert w.halfspaces == w.canonical_halfspaces and w.generators == lines
        assert lineality(w) == [V([0, 0, 1])]
        assert len(conversions) == 1

    # Both sides given: each canonical side is converted from the other.
    gens = Wedge(3, halfspaces=given).canonical_generators
    conversions.clear()
    w = Wedge(3, generators=gens, halfspaces=given)
    assert w.canonical_generators == gens and w.canonical_halfspaces == tuple(sorted(given, key=lambda v: v.num))
    assert len(conversions) == 2


def test_the_lineality_is_read_off_the_conversion(monkeypatch, conversions):
    # The pass that finds the canonical generators reduces the halfspaces,
    # given or canonical, and keeps their kernel as the lineality basis. So
    # reading both sides, in either order, and then the lineality makes one
    # kernel RREF for a halfspace-given halfplane (the conversion's) and two
    # for a generator-given wedge with a line (the conversion's, and the
    # round trip's of its canonical halfspaces). A lineality read first
    # reduces the given halfspaces itself and converts nothing. On random
    # wedges, rational and with redundant rows, the basis is the one that
    # a lineality read first gives.
    from multiwedge import wedges as wedges_module

    calls = []
    kernel = wedges_module._kernel

    def counted(rows, dim):
        calls.append(dim)
        return kernel(rows, dim)

    monkeypatch.setattr(wedges_module, "_kernel", counted)
    lines = (V([0, 0, -1]), V([0, 0, 1]), V([0, 1, 0]), V([1, 0, 0]))
    for names in (("canonical_generators", "canonical_halfspaces"), ("canonical_halfspaces", "canonical_generators")):
        counts = []
        for w in (Wedge(2, halfspaces=[V([1, 0])]), Wedge(3, generators=lines)):
            calls.clear()
            for name in names:
                getattr(w, name)
            assert lineality(w) == ([V([0, 1])] if w.dim == 2 else [V([0, 0, 1])])
            counts.append(len(calls))
        assert counts == [1, 2]

    calls.clear()
    conversions.clear()
    assert lineality(Wedge(2, halfspaces=[V([1, -1]), V([-2, 2])])) == [V([1, 1])]
    assert (len(calls), len(conversions)) == (1, 0)

    rng = random.Random(4417)
    shapes = Counter()
    for _ in range(200):
        dim = rng.randint(1, 4)
        w = rand_wedge(rng, dim, max_vectors=2 * dim + 1, max_den=rng.choice((1, 3)))
        sides = {"generators": w._generators, "halfspaces": w._halfspaces}
        fresh = Wedge(dim, **{k: v for k, v in sides.items() if v is not None})
        first = lineality(fresh)
        w.canonical_generators
        assert w._lineality is not None and lineality(w) == first
        shapes["given halfspaces" if w._halfspaces is not None else "given generators", bool(first)] += 1
    assert min(shapes.values()) >= 15 and len(shapes) == 4, shapes


def test_each_wedge_is_converted_once_across_threads(conversions):
    import sys
    import threading

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        vectors = [V([1, 0, 0, 0]), V([0, 1, 0, 0]), V([1, 1, 1, 0])]
        names = ["canonical_generators", "canonical_halfspaces"]
        for side in ("halfspaces", "generators"):
            for _ in range(5):
                conversions.clear()
                w = Wedge(4, **{side: vectors})
                results = []

                def worker(k):
                    # Half the readers ask for the generators first, half for the halfspaces.
                    got = {name: getattr(w, name) for name in (names if k % 2 else names[::-1])}
                    results.append((got[names[0]], got[names[1]], lineality(w)))

                threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert len(results) == 8 and all(r == results[0] for r in results)
                assert len(conversions) == 1
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
