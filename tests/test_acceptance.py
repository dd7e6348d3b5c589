"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is exact (tolerance zero). Each test prints a single
PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py`` to see
them. Randomized parts are seeded and deterministic.
"""

import random
import time
from fractions import Fraction as F

from multiwedge import (
    GE,
    Constraint,
    Infeasible,
    LinearProgram,
    NotMultiBoundedAbove,
    NotMultiBoundedBelow,
    Optimal,
    QMatrix,
    QVector,
    RDPInstance,
    TranslatedWedge,
    Unbounded,
    Wedge,
    decomposition_ok,
    dual_wedge,
    extend_additive,
    fs_decompose,
    functional_msup,
    is_generating,
    lineality,
    lp_solve,
    minf,
    msup,
    multilattice_search,
    op_is_positive,
    op_msup,
    op_wedge_is_cone,
    op_wedge_lineality,
    projections,
    rdp_check,
    rdp_search,
    rk_value,
    span_contains,
    wedge_equal,
    wedge_sum,
)
from multiwedge.wedges import coordinate_wedge

from conftest import (
    VertexEnumerator,
    decomposition_rows,
    enumerate_lp_minimum,
    point_feasible,
    rand_acute_cone,
    rand_member,
    rand_vector,
    rand_wedge,
)

V = QVector
M = QMatrix.from_rows


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def quadrant():
    return Wedge(2, generators=[V([1, 0]), V([0, 1])])


def diagonal_ray():
    return Wedge(2, generators=[V([1, 1])])


def standard_cone(n):
    return Wedge(n, generators=[QVector.unit(n, i) for i in range(n)])


def positive_ray():
    return Wedge(1, generators=[V([1])], halfspaces=[V([1])])


def test_ac1_triple_halfplane_reproduction():
    start = time.monotonic()
    w1 = Wedge(2, halfspaces=[V([1, 0])])
    w2 = Wedge(2, halfspaces=[V([0, 1])])
    w3 = Wedge(2, halfspaces=[V([1, 1])])
    origin = V([0, 0])

    triple = msup(
        [
            TranslatedWedge(origin, w1),
            TranslatedWedge(origin, w2),
            TranslatedWedge(V([1, 1]), w3),
        ]
    )
    pair_results = [
        msup([TranslatedWedge(origin, a), TranslatedWedge(origin, b)])
        for a, b in ((w1, w2), (w1, w3), (w2, w3))
    ]
    found3 = multilattice_search([w1, w2, w3], 3, seed=0, budget=1000)
    found2 = multilattice_search([w1, w2, w3], 2, seed=0, budget=1000)
    elapsed = time.monotonic() - start

    ok = (
        triple is None
        and all(r is not None and r.is_proper for r in pair_results)
        and found3 is not None
        and found2 is None
        and elapsed < 5.0
    )
    _report("AC1 two-of-three lattice reproduction", ok, f"{elapsed:.2f}s")


def test_ac2_decomposition_failure_reproduction():
    w1, w2 = quadrant(), diagonal_ray()
    inst = RDPInstance(
        (w1, w2), (V([2, 0]), V([0, 1])), (V([1, 0]), V([1, 1]))
    )
    check = rdp_check(inst)
    found = rdp_search([w1, w2], 2, 2, seed=0, budget=500)
    search_hits = [
        multilattice_search([w1, w2], k, seed=0, budget=1000) for k in range(2, 6)
    ]
    ok = (
        check is None
        and found is not None
        and rdp_check(found) is None
        and all(h is None for h in search_hits)
    )
    _report("AC2 quadrant-plus-diagonal decomposition failure", ok)


def _bounded_functional_family(rng, s_size, wedge_count):
    """Multi-bounded functionals over coordinate halfspace wedges."""
    idx = [rng.randrange(s_size) for _ in range(wedge_count)]
    base = rand_vector(rng, s_size, -3, 3, 2)
    phis = []
    for s in idx:
        drop = F(rng.randint(0, 4), rng.randint(1, 2))
        phis.append(base - drop * QVector.unit(s_size, s))
    return [coordinate_wedge(s_size, s) for s in idx], phis


def test_ac3_coordinate_wedges_reproduction():
    start = time.monotonic()
    s_size = 5
    wedges = [coordinate_wedge(s_size, s) for s in range(s_size)]
    rays = [Wedge(s_size, generators=[QVector.unit(s_size, s)]) for s in range(s_size)]
    duals_ok = all(wedge_equal(dual_wedge(w), r) for w, r in zip(wedges, rays))

    rng = random.Random(313)
    validated = 0
    attempts = 0
    while validated < 200 and attempts < 2000:
        attempts += 1
        my = rng.randint(1, 4)
        nx = rng.randint(1, 4)
        js = [rng.randrange(s_size) for _ in range(my)]
        ys = []
        for j in js:
            y = [F(rng.randint(-2, 2)) for _ in range(s_size)]
            y[j] = F(rng.randint(0, 3))
            ys.append(V(y))
        total = QVector.zero(s_size)
        for y in ys:
            total = total + y
        all_same = len(set(js)) == 1
        xs = []
        rem = total
        for _ in range(nx - 1):
            x = [F(rng.randint(-2, 2)) for _ in range(s_size)]
            if all_same:
                x[js[0]] = F(rng.randint(0, 2))
            xv = V(x)
            xs.append(xv)
            rem = rem - xv
        if all_same and rem[js[0]] < 0:
            continue
        xs.append(rem)
        z = fs_decompose(s_size, js, xs, ys)
        inst = RDPInstance(
            tuple(coordinate_wedge(s_size, j) for j in js), tuple(xs), tuple(ys)
        )
        if not decomposition_ok(inst, z):
            _report("AC3 coordinate-wedge reproduction", False, "invalid decomposition")
        validated += 1

    functional_ok = True
    for _ in range(25):
        fam_wedges, phis = _bounded_functional_family(rng, s_size, rng.randint(1, 3))
        res = functional_msup(phis, fam_wedges)
        functional_ok = functional_ok and res.is_proper

    elapsed = time.monotonic() - start
    ok = duals_ok and validated == 200 and functional_ok and elapsed < 30.0
    _report(
        "AC3 coordinate-wedge reproduction",
        ok,
        f"{validated} decompositions, {elapsed:.2f}s",
    )


def _value_oracle(ops, wedges, v_wedge):
    """Brute-force vertex-enumeration oracle for the decomposition polytope.

    Returns a function x -> multi-supremum of the finite value set at the
    polytope's vertices (None when the polytope is empty).
    """
    q = wedges[0].dim
    eq_rows, ineq_rows = decomposition_rows(wedges)
    enumerator = VertexEnumerator(eq_rows, ineq_rows)

    def msup_at(x):
        verts = enumerator.vertices(list(x.entries))
        if not verts:
            return None
        values = []
        for vert in verts:
            total = QVector.zero(v_wedge.dim)
            for i, t in enumerate(ops):
                total = total + t.apply(V(vert[i * q : (i + 1) * q]))
            values.append(total)
        return msup([TranslatedWedge(val, v_wedge) for val in values])

    return msup_at


def _simplicial_cone(rng, p):
    if p == 1:
        return positive_ray()
    while True:
        g1 = V([rng.randint(-3, 3), rng.randint(-3, 3)])
        g2 = V([rng.randint(-3, 3), rng.randint(-3, 3)])
        if g1[0] * g2[1] - g1[1] * g2[0] != 0:
            return Wedge(2, generators=[g1, g2])


def _simplicial_acute_cone(rng, q):
    """Independent first-coordinate-positive generators: such a cone has
    the full decomposition property (splits coefficientwise)."""
    while True:
        count = rng.randint(1, q)
        gens = [
            V([1] + [rng.randint(-3, 3) for _ in range(q - 1)]) for _ in range(count)
        ]
        mat = QMatrix.from_rows([g.entries for g in gens])
        from multiwedge import rref

        if len(rref(mat)[1]) == count:
            return Wedge(q, generators=gens)


def _timed(seconds, part, fn, *args):
    """Call ``fn(*args)`` and add its wall time to ``seconds[part]``."""
    t0 = time.monotonic()
    try:
        return fn(*args)
    finally:
        seconds[part] += time.monotonic() - t0


def test_ac4_value_formula_matches_vertex_oracle():
    start = time.monotonic()
    # oracle: vertex enumeration set-up and queries (with the msup of the
    # vertex values); library: the rk_value and op_msup calls under test
    seconds = {"oracle": 0.0, "library": 0.0}
    rng = random.Random(404)
    instances = 0
    rk_checks = 0
    op_equalities = 0
    justified_refusals = 0
    while instances < 500:
        q = rng.randint(1, 3)
        k = rng.randint(1, 3)
        if q == 3 and k == 3 and rng.random() < 0.7:
            k = rng.randint(1, 2)  # keep the largest corner occasional
        p = rng.randint(1, 2)
        if rng.random() < 0.6:
            # one simplicial cone used k times: decomposition always holds,
            # so the operator supremum must exist and match the oracle
            wedges = [_simplicial_acute_cone(rng, q)] * k
            rdp_guaranteed = True
        else:
            wedges = [rand_acute_cone(rng, q) for _ in range(k)]
            rdp_guaranteed = False
        v_wedge = _simplicial_cone(rng, p)
        ops = [
            QMatrix(p, q, [rng.randint(-3, 3) for _ in range(p * q)]) for _ in range(k)
        ]
        sum_gens = wedge_sum(wedges).canonical_generators
        canon_sum = Wedge(q, generators=list(sum_gens))
        oracle_at = _timed(seconds, "oracle", _value_oracle, ops, wedges, v_wedge)

        values = {}
        oracle_failed = False
        for g in sum_gens:
            oracle = _timed(seconds, "oracle", oracle_at, g)
            if oracle is None:
                oracle_failed = True
                break
            res = _timed(seconds, "library", rk_value, ops, wedges, v_wedge, g)
            if res.witness != oracle.witness:
                _report("AC4 value-formula oracle equivalence", False, "witness mismatch")
            rk_checks += 1
            values[g] = oracle.witness
        if oracle_failed:
            continue

        x = QVector.zero(q)
        for w in wedges:
            x = x + rand_member(rng, w, scale=2)
        oracle_x = _timed(seconds, "oracle", oracle_at, x)
        if oracle_x is not None:
            res_x = _timed(seconds, "library", rk_value, ops, wedges, v_wedge, x)
            if res_x.witness != oracle_x.witness:
                _report("AC4 value-formula oracle equivalence", False, "witness mismatch")
            rk_checks += 1

        from multiwedge import InconsistentValues, RDPViolated

        try:
            result = _timed(seconds, "library", op_msup, ops, wedges, v_wedge)
        except RDPViolated:
            if rdp_guaranteed:
                _report(
                    "AC4 value-formula oracle equivalence",
                    False,
                    "refusal on a decomposition-friendly family",
                )
            # the refusal must be justified by the oracle values themselves
            try:
                assembled = extend_additive(canon_sum, values, p)
            except InconsistentValues:
                justified_refusals += 1
            else:
                dominates = all(
                    op_is_positive(assembled - t, w, v_wedge)
                    for t, w in zip(ops, wedges)
                )
                if dominates:
                    _report(
                        "AC4 value-formula oracle equivalence",
                        False,
                        "unjustified refusal",
                    )
                justified_refusals += 1
            instances += 1
            continue

        assembled = extend_additive(canon_sum, values, p)
        if result.representative != assembled:
            _report("AC4 value-formula oracle equivalence", False, "operator mismatch")
        op_equalities += 1
        instances += 1
    elapsed = time.monotonic() - start
    ok = (
        instances >= 500
        and rk_checks >= 500
        and op_equalities >= 250
        and elapsed < 60.0
    )
    _report(
        "AC4 value-formula oracle equivalence",
        ok,
        f"{instances} instances, {rk_checks} value checks, "
        f"{op_equalities} operator equalities, {justified_refusals} justified refusals, "
        f"{elapsed:.2f}s: oracle {seconds['oracle']:.2f}s, "
        f"rk_value+op_msup {seconds['library']:.2f}s",
    )


def test_ac5_classical_componentwise_supremum():
    rng = random.Random(505)
    e3 = standard_cone(3)
    families = 0
    while families < 100:
        k = rng.randint(2, 3)
        ops = [
            QMatrix(3, 3, [rng.randint(-4, 4) for _ in range(9)]) for _ in range(k)
        ]
        res = op_msup(ops, [e3] * k, e3)
        oracle_entries = []
        for r in range(3):
            for j in range(3):
                coeffs = [t.entries[r * 3 + j] for t in ops]
                lp = LinearProgram(
                    k,
                    V(coeffs),
                    "max",
                    tuple(
                        [Constraint(V([1] * k), "==", F(1))]
                        + [
                            Constraint(QVector.unit(k, i), GE, F(0))
                            for i in range(k)
                        ]
                    ),
                )
                opt = lp_solve(lp)
                assert isinstance(opt, Optimal)
                oracle_entries.append(opt.value)
        oracle = QMatrix(3, 3, oracle_entries)
        if res.representative != oracle:
            _report("AC5 classical componentwise supremum", False, "mismatch")
        families += 1
    _report("AC5 classical componentwise supremum", True, f"{families} families")


def _same_set(a, b, dim):
    if a is None or b is None:
        return a is b
    if [v.entries for v in a.lineality_basis] != [v.entries for v in b.lineality_basis]:
        return False
    return span_contains(a.lineality_basis, a.witness - b.witness, dim)


def _random_family(rng, dim, size):
    return [
        TranslatedWedge(rand_vector(rng, dim, -3, 3, 2), rand_wedge(rng, dim))
        for _ in range(size)
    ]


def test_ac6_property_suites():
    start = time.monotonic()

    # Suite 1: negation/translation/scaling identities of multi-suprema.
    rng = random.Random(601)
    done = 0
    while done < 1000:
        dim = rng.randint(1, 4)
        fam = _random_family(rng, dim, rng.randint(1, 3))
        try:
            base = msup(fam)
        except NotMultiBoundedAbove:
            negated = [TranslatedWedge(-tw.apex, tw.wedge) for tw in fam]
            try:
                minf(negated)
                _report("AC6 property suites", False, "negation identity (error case)")
            except NotMultiBoundedBelow:
                done += 1
            continue
        done += 1
        negated = [TranslatedWedge(-tw.apex, tw.wedge) for tw in fam]
        mi = minf(negated)
        if base is None:
            assert mi is None
        else:
            moved = type(base)(-base.witness, base.lineality_basis)
            assert _same_set(moved, mi, dim), "negation identity"
        y = rand_vector(rng, dim, -2, 2, 2)
        shifted = msup([TranslatedWedge(y + tw.apex, tw.wedge) for tw in fam])
        if base is None:
            assert shifted is None
        else:
            moved = type(base)(base.witness + y, base.lineality_basis)
            assert _same_set(moved, shifted, dim), "translation identity"
        lam = F(rng.randint(1, 4), rng.randint(1, 3))
        scaled = msup([TranslatedWedge(lam * tw.apex, tw.wedge) for tw in fam])
        if base is None:
            assert scaled is None
        else:
            moved = type(base)(lam * base.witness, base.lineality_basis)
            assert _same_set(moved, scaled, dim), "scaling identity"

    # Suite 2: bidual identity.
    rng = random.Random(602)
    for _ in range(1000):
        dim = rng.randint(1, 4)
        w = rand_wedge(rng, dim)
        assert wedge_equal(dual_wedge(dual_wedge(w)), w), "bidual identity"

    # Suite 3: operator-wedge cone criterion against direct lineality.
    rng = random.Random(603)
    for _ in range(1000):
        dim_e = rng.randint(1, 3)
        dim_f = rng.randint(1, 3)
        ws = [rand_wedge(rng, dim_e) for _ in range(rng.randint(1, 2))]
        vs = [rand_wedge(rng, dim_f) for _ in range(rng.randint(1, 2))]
        assert op_wedge_is_cone(ws, vs) == (
            not op_wedge_lineality(ws, vs)
        ), "cone criterion"

    # Suite 4: extension is complement-independent for generating wedges.
    rng = random.Random(604)
    done = 0
    while done < 1000:
        dim = rng.randint(1, 4)
        w = rand_wedge(rng, dim)
        if not is_generating(w):
            continue
        done += 1
        p = rng.randint(1, 2)
        target = QMatrix(p, dim, [rng.randint(-3, 3) for _ in range(p * dim)])
        values = {g: target.apply(g) for g in w.generators}
        fwd = extend_additive(w, values, p, complement_order="forward")
        bwd = extend_additive(w, values, p, complement_order="backward")
        assert fwd == bwd == target, "complement independence"

    # Suite 5: projection identities.
    rng = random.Random(605)
    for _ in range(1000):
        dim = rng.randint(1, 4)
        v_wedge = rand_wedge(rng, dim)
        pp = projections(v_wedge)
        lin = lineality(v_wedge)
        x = rand_vector(rng, dim, -3, 3, 2)
        assert span_contains(lin, x - pp.p_u.apply(x), dim), "projection residue"
        d = QVector.zero(dim)
        for b in lin:
            d = d + F(rng.randint(-2, 2)) * b
        a = rand_vector(rng, dim, -3, 3, 2)
        assert pp.p_u.apply(a) == pp.p_u.apply(a - d), "projection invariance"

    # Suite 6: additivity of the supremum values on decomposition-friendly
    # spaces (single standard cones and coordinate wedges).
    rng = random.Random(606)
    assert rdp_search([standard_cone(2)], 2, 2, seed=1, budget=40) is None
    coord3 = [coordinate_wedge(3, s) for s in range(3)]
    assert rdp_search(coord3, 2, 2, seed=1, budget=40) is None
    done = 0
    while done < 1000:
        use_coords = rng.random() < 0.5
        if use_coords:
            dim = 3
            k = rng.randint(1, 2)
            wedges = [coord3[rng.randrange(3)] for _ in range(k)]
        else:
            dim = rng.randint(1, 3)
            k = rng.randint(1, 2)
            wedges = [standard_cone(dim)] * k
        p = rng.randint(1, 2)
        ops = [
            QMatrix(p, dim, [rng.randint(-2, 2) for _ in range(p * dim)])
            for _ in range(k)
        ]
        v_wedge = standard_cone(p)
        x1 = QVector.zero(dim)
        x2 = QVector.zero(dim)
        for w in wedges:
            x1 = x1 + rand_member(rng, w, scale=2)
            x2 = x2 + rand_member(rng, w, scale=2)
        pp = projections(v_wedge)
        try:
            w12 = rk_value(ops, wedges, v_wedge, x1 + x2).witness
            w1 = rk_value(ops, wedges, v_wedge, x1).witness
            w2 = rk_value(ops, wedges, v_wedge, x2).witness
        except NotMultiBoundedAbove:
            continue
        done += 1
        assert pp.p_u.apply(w12) == pp.p_u.apply(w1) + pp.p_u.apply(w2), "additivity"

    elapsed = time.monotonic() - start
    _report("AC6 property suites", True, f"6 suites x 1000, {elapsed:.2f}s")


def test_ac7_lp_self_verification():
    rng = random.Random(707)
    solved = 0
    unbounded_checked = 0
    while solved < 500:
        n = rng.randint(1, 4)
        bound = 5
        cons = [
            ([1 if j == i else 0 for j in range(n)], GE, F(-bound)) for i in range(n)
        ]
        cons.append(([1] * n, "<=", F(bound)))
        if rng.random() < 0.5:
            row = [rng.randint(-3, 3) for _ in range(n)]
            if any(row):
                cons.append((row, rng.choice([GE, "<="]), F(rng.randint(-4, 4))))
        objective = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]
        lp = LinearProgram(
            n,
            V(objective),
            "min",
            tuple(Constraint(V(r), rel, b) for r, rel, b in cons),
        )
        res = lp_solve(lp)
        oracle = enumerate_lp_minimum(n, objective, cons)
        if isinstance(res, Infeasible):
            assert oracle is None, "oracle disagrees on infeasibility"
            continue
        assert isinstance(res, Optimal)
        assert oracle is not None and res.value == oracle[0], "optimal value mismatch"
        rows = [list(c[0]) for c in cons]
        rels = [c[1] for c in cons]
        rhs = [c[2] for c in cons]
        assert point_feasible(list(res.point.entries), rows, rels, rhs)
        assert sum(o * e for o, e in zip(objective, res.point.entries)) == res.value
        solved += 1

    # deliberately unbounded instances with ray verification
    while unbounded_checked < 60:
        n = rng.randint(1, 4)
        cons = [
            ([1 if j == i else 0 for j in range(n)], GE, F(-3)) for i in range(n)
        ]
        objective = [rng.randint(-3, 3) for _ in range(n)]
        if all(o >= 0 for o in objective):
            continue
        lp = LinearProgram(
            n,
            V(objective),
            "min",
            tuple(Constraint(V(r), rel, b) for r, rel, b in cons),
        )
        res = lp_solve(lp)
        assert isinstance(res, Unbounded), "expected unbounded"
        ray = res.ray
        for r, rel, b in cons:
            val = sum(a * e for a, e in zip(r, ray.entries))
            assert val >= 0 if rel == GE else val <= 0, "ray not a recession direction"
        assert sum(o * e for o, e in zip(objective, ray.entries)) < 0, "ray not improving"
        unbounded_checked += 1

    _report(
        "AC7 LP self-verification",
        True,
        f"{solved} bounded + {unbounded_checked} unbounded",
    )
