"""The `operator` workload: operator suprema and decomposition checks.

Why: fewer, larger LPs that share one constraint system across calls.
`mw rk op-msup` runs one `rk_value` per generator of the sum wedge, and
`rk_value` runs one LP per normal of the codomain wedge over the same
constraints; `mw rdp check` is a single feasibility LP with 12-48
variables. This is where an integer-preserving simplex and a reused LP
session act, and it loads `lp` differently from `search`.

Inputs: families of k in {2, 3} operators Q^q -> Q^2, q in {3, 4}, with
domain wedges that are acute simplicial cones (nonnegative, diagonally
dominant generator matrices) and a pointed simplicial codomain cone.
About 60 % of the families use one cone k times, so the decomposition
property holds and the exact supremum has a closed form; the others may
be refused with `rdp_violated`, which is an answer (exit 1), not a
failure. Decomposition instances are built from a known z, so they are
always feasible. Op costs are heavy-tailed, so the inputs come from a
fixed pool (POOL_SEED) in the order the workload seed gives, and a timed
run ends on a whole pass: every seed measures the same inputs.

Sizes: on Python 3.11 without gmpy2 (2 CPUs) `op-msup` takes 55-530 ms,
the refused families being the slowest, `rk value` 7-55 ms and `rdp
check` 15-250 ms at 12-48 variables.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from .common import (
    Op,
    Workload,
    dot,
    expect_payload,
    inverse,
    mat_vec,
    pool_pass,
    qs,
    scale,
    simplicial_normals,
    total,
    vec,
)

# A pool of 120 `rk value`, 40 `op-msup` and 20 `rdp check` inputs takes
# about 10 s per pass. `rk value` (7-50 ms) is two thirds of the ops, so
# the median latency falls inside its dense range and not in the gap
# below the slower kinds.
POOL_SEED = 1609_05833
POOL_ROUNDS = 20
STRATA = [("rk-value", 6), ("rk-op-msup", 2), ("rdp-check", 1)]
SHARED_SHARE = 0.6


def _simplicial_cone(rng: random.Random, q: int) -> list[tuple[int, ...]]:
    """q generators in Q^q: columns of a nonnegative diagonally dominant matrix."""
    cols = []
    for j in range(q):
        cols.append(tuple(rng.randint(q, q + 2) if i == j else rng.randint(0, 1) for i in range(q)))
    return cols


def _codomain(rng: random.Random) -> list[tuple[int, ...]]:
    """Two independent integer generators of a pointed cone in Q^2."""
    while True:
        c1 = (rng.randint(-3, 3), rng.randint(-3, 3))
        c2 = (rng.randint(-3, 3), rng.randint(-3, 3))
        if c1[0] * c2[1] - c1[1] * c2[0]:
            return [c1, c2]


def _operator(rng: random.Random, q: int) -> list[list[int]]:
    return [[rng.randint(-3, 3) for _ in range(q)] for _ in range(2)]


def _wedge_json(gens) -> dict:
    return {"dim": len(gens[0]), "generators": [qs(g) for g in gens]}


def _member_of(rng: random.Random, gens) -> tuple[Fraction, ...]:
    lam = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in gens]
    return total([scale(c, vec(g)) for c, g in zip(lam, gens)], len(gens[0]))


class _Family:
    """k operators with their domain cones and one codomain cone."""

    def __init__(self, rng: random.Random):
        self.q = rng.choice((3, 4))
        self.k = rng.choice((2, 3))
        self.shared = rng.random() < SHARED_SHARE
        if self.shared:
            self.cones = [_simplicial_cone(rng, self.q)] * self.k
        else:
            self.cones = [_simplicial_cone(rng, self.q) for _ in range(self.k)]
        self.ops = [_operator(rng, self.q) for _ in range(self.k)]
        self.v_gens = _codomain(rng)
        self.v_normals = simplicial_normals(self.v_gens)

    def to_json(self) -> dict:
        return {
            "operators": [
                {"rows": 2, "cols": self.q, "entries": [qs(r) for r in t]} for t in self.ops
            ],
            "wedges": [_wedge_json(c) for c in self.cones],
            "codomain_wedge": _wedge_json(self.v_gens),
        }

    def in_v(self, z) -> bool:
        return all(dot(b, z) >= 0 for b in self.v_normals)

    def sup_point(self, values: list[tuple[Fraction, ...]], coefs) -> tuple[Fraction, ...]:
        """The point z with b.z = sum_j coefs[j] * max over values of b.T g_j.

        ``values[j]`` lists T_i g_j over i; for a pointed simplicial V in
        Q^2 the two normal equations fix z.
        """
        s = [
            sum((c * max(dot(b, v) for v in vals) for c, vals in zip(coefs, values)), Fraction(0))
            for b in self.v_normals
        ]
        return mat_vec(inverse(self.v_normals), s)


def _rk_value(rng: random.Random, fam: _Family) -> tuple[dict, object]:
    ys = [_member_of(rng, cone) for cone in fam.cones]
    x = total(ys, fam.q)
    data = fam.to_json()
    data["x"] = qs(x)

    def check(payload: dict) -> str | None:
        if payload["result"] != "set" or payload["lineality"] or payload["proper"] is not True:
            return "a pointed codomain gives one proper supremum"
        z = vec(payload["witness"])
        if fam.shared:
            # y_i = G lam_i with sum lam_i = G^-1 x, so the supremum splits
            # per generator: each g_j goes to the operator that maximises b.T g_j.
            gens = fam.cones[0]
            lam = mat_vec(inverse([[g[i] for g in gens] for i in range(fam.q)]), x)
            values = [[mat_vec(t, g) for t in fam.ops] for g in gens]
            if z != fam.sup_point(values, lam):
                return "supremum differs from the closed form"
            return None
        known = total([mat_vec(t, y) for t, y in zip(fam.ops, ys)], 2)
        if not fam.in_v(tuple(a - b for a, b in zip(z, known))):
            return "supremum does not dominate a known value"
        return None

    return data, expect_payload(check)


def _op_msup(fam: _Family) -> tuple[dict, object]:
    def dominates(payload: dict) -> str | None:
        if payload["lineality_ops"] or payload["proper"] is not True:
            return "a pointed codomain and generating domains give a proper supremum"
        rep = payload["representative"]
        r = [vec(row) for row in rep["entries"]]
        for t, cone in zip(fam.ops, fam.cones):
            for g in cone:
                diff = tuple(a - b for a, b in zip(mat_vec(r, g), mat_vec(t, g)))
                if not fam.in_v(diff):
                    return "representative does not dominate some T_i on W_i"
        if fam.shared:
            gens = fam.cones[0]
            for g in gens:
                want = fam.sup_point([[mat_vec(t, g) for t in fam.ops]], [Fraction(1)])
                if mat_vec(r, g) != want:
                    return "representative differs from the pointwise supremum"
        return None

    def check(rc: int, out: str) -> str | None:
        # Without one shared cone the decomposition property may fail, and
        # refusing the family (exit 1, rdp_violated) is then an answer.
        if rc == 1 and not fam.shared:
            try:
                if json.loads(out).get("error") == "rdp_violated":
                    return None
            except json.JSONDecodeError:
                pass
        return expect_payload(dominates)(rc, out)

    return fam.to_json(), check


def _rdp_check(rng: random.Random) -> tuple[dict, object]:
    """An instance built from z_ij in W_j, so a decomposition exists."""
    q = rng.choice((3, 4))
    m = rng.choice((2, 3))
    n = rng.choice((2, 3, 4))
    if rng.random() < SHARED_SHARE:
        cones = [_simplicial_cone(rng, q)] * n
    else:
        cones = [_simplicial_cone(rng, q) for _ in range(n)]
    normals = [simplicial_normals(c) for c in cones]
    z = [[_member_of(rng, c) for c in cones] for _ in range(m)]
    xs = [total(row, q) for row in z]
    ys = [total([z[i][j] for i in range(m)], q) for j in range(n)]
    data = {
        "wedges": [_wedge_json(c) for c in cones],
        "xs": [qs(x) for x in xs],
        "ys": [qs(y) for y in ys],
    }

    def check(payload: dict) -> str | None:
        if payload["result"] != "decomposition":
            return "a decomposition exists by construction"
        got = [[vec(v) for v in row] for row in payload["z"]]
        if len(got) != m or any(len(row) != n for row in got):
            return "z has the wrong shape"
        for row in got:
            for nj, v in zip(normals, row):
                if any(dot(a, v) < 0 for a in nj):
                    return "some z_ij is outside W_j"
        if [total(row, q) for row in got] != xs:
            return "row sums differ from xs"
        if [total([got[i][j] for i in range(m)], q) for j in range(n)] != ys:
            return "column sums differ from ys"
        return None

    return data, expect_payload(check)


def pool_item(kind: str, index: int) -> tuple[list[str], dict, object]:
    """The argv tail, input and check of one pool item."""
    rng = random.Random(f"{POOL_SEED}/{kind}/{index}")
    if kind == "rk-value":
        return ["rk", "value"], *_rk_value(rng, _Family(rng))
    if kind == "rk-op-msup":
        return ["rk", "op-msup"], *_op_msup(_Family(rng))
    return ["rdp", "check"], *_rdp_check(rng)


def build(seed: int, workdir: str) -> Workload:
    ops, fixtures = [], {}
    for kind, index in pool_pass(random.Random(seed), STRATA, POOL_ROUNDS):
        name = f"{kind}-{index}.json"
        argv, fixtures[name], check = pool_item(kind, index)
        ops.append(Op(kind, argv + ["-f", f"{workdir}/{name}"], check))
    return Workload(ops, fixtures, period=len(ops))
