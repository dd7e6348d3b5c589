"""The `conversion` workload: wedge algebra that is pure H<->V conversion.

Why: `mw wedge dual/sum/intersect/lineality` make no LP call at all; their
time goes to the subset scan in `wedges._solve_rays` and the RREF under
it. A double-description conversion acts here, and the two LP changes
(integer pivoting, one LP session per constraint system) should not move
it. It is the workload that bypasses `lp`.

Inputs: cones over 6-12 integer points in dimension 4 and 5-7 points in
dimension 5 (first coordinate 1-4, so each cone is pointed), and for
`intersect` the same shapes as halfspace normals. A third of the `dual`,
`sum` and `lineality` inputs add a line (a vector with first coordinate
0 and its negative), so the lineality split runs.

Sizes: on Python 3.11 without gmpy2 (2 CPUs) one op takes 0.01-0.75 s.
Dimension 5 with 9-11 points (1.7-50 s per op) and H->V->H round trips
in dimension 6 (about 60 s) are left out so that no single op runs for
tens of seconds.

The inputs come from a fixed pool of 16 items per stratum (POOL_SEED),
about 22 s of work per pass. Op costs are heavy-tailed (a dual takes
0.02-0.7 s), so the workload seed only orders the pass, and a timed run
ends on a whole pass: every seed measures the same inputs. With 8 items
per stratum the median fell in a 10 % gap between two items and moved
by that much from run to run; 16 fill the distribution more densely. The canonical
output of each pool item has a reference digest in digests.json, because
canonical forms must not change between versions of the program;
`run.py --write-digests` recomputes it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from .common import Op, Workload, canonical_problem, dot, expect_payload, pool_pass, qs, vec

POOL_SEED = 1609_05833
POOL_PER_STRATUM = 16
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# (kind, dimension, smallest and largest point count), one op per round each.
SHAPES = {
    "dual-d4": (4, 6, 12),
    "dual-d5": (5, 5, 7),
    "sum-d4": (4, 6, 12),
    "sum-d5": (5, 5, 7),
    "intersect-d4": (4, 6, 12),
    "intersect-d5": (5, 5, 7),
    "lineality-d4": (4, 6, 12),
    "lineality-d5": (5, 5, 7),
}
STRATA = [(kind, 1) for kind in SHAPES]


def _points(rng: random.Random, dim: int, count: int) -> list[tuple[int, ...]]:
    return [
        (rng.randint(1, 4),) + tuple(rng.randint(-3, 3) for _ in range(dim - 1))
        for _ in range(count)
    ]


def _line(rng: random.Random, dim: int) -> tuple[int, ...]:
    while True:
        v = (0,) + tuple(rng.randint(-2, 2) for _ in range(dim - 1))
        if any(v):
            return v


def _split(rng: random.Random, pts: list) -> list[list]:
    cut = rng.randint(len(pts) // 2 - 1, len(pts) // 2 + 1)
    return [pts[:cut], pts[cut:]]


def pool_item(kind: str, index: int) -> tuple[dict, dict]:
    """The input of one pool item and the facts its check needs."""
    rng = random.Random(f"{POOL_SEED}/{kind}/{index}")
    dim, lo, hi = SHAPES[kind]
    pts = _points(rng, dim, rng.randint(lo, hi))
    line = _line(rng, dim) if not kind.startswith("intersect") and rng.random() < 1 / 3 else None
    gens = pts + ([line, tuple(-e for e in line)] if line else [])
    if kind.startswith("sum"):
        parts = _split(rng, pts)
        if line:
            parts[0] = parts[0] + [line, tuple(-e for e in line)]
        data = {"wedges": [{"dim": dim, "generators": [qs(g) for g in part]} for part in parts]}
    elif kind.startswith("intersect"):
        parts = _split(rng, pts)
        data = {"wedges": [{"dim": dim, "halfspaces": [qs(a) for a in part]} for part in parts]}
    else:
        data = {"dim": dim, "generators": [qs(g) for g in gens]}
    return data, {"gens": gens, "line": line}


def _parallel(a, b) -> bool:
    n = len(a)
    return any(a) and all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(n))


def answer_check(kind: str, facts: dict):
    """Exact checks of one answer that need no reference output."""
    gens = [vec(g) for g in facts["gens"]]

    def check(payload: dict) -> str | None:
        if kind.startswith("lineality"):
            lin = [vec(v) for v in payload["lineality"]]
            line = facts["line"]
            if line is None:
                return None if not lin else "a pointed cone has no lineality"
            if len(lin) != 1 or not _parallel(lin[0], line):
                return "lineality is not the added line"
        else:
            out_g = [vec(v) for v in payload["generators"]]
            out_h = [vec(v) for v in payload["halfspaces"]]
            for part in (out_g, out_h):
                problem = canonical_problem(part)
                if problem:
                    return problem
            if any(dot(a, g) < 0 for a in out_h for g in out_g):
                return "an output generator violates an output halfspace"
            if kind.startswith("sum") and any(dot(a, g) < 0 for a in out_h for g in gens):
                return "an input generator is outside the sum"
            if not kind.startswith("sum") and any(dot(a, g) < 0 for a in gens for g in out_g):
                # dual: outputs must be nonnegative on the input generators;
                # intersect: outputs must satisfy the input normals.
                return "an output generator is outside the expected wedge"
        return None

    return expect_payload(check)


def _check(kind: str, facts: dict, digest: str | None):
    answer = answer_check(kind, facts)

    def run(rc: int, out: str) -> str | None:
        problem = answer(rc, out)
        if problem:
            return problem
        if digest is None:
            return "no reference digest for this input"
        if output_digest(out) != digest:
            return "canonical output differs from its reference"
        return None

    return run


def output_digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()[:16]


def load_digests() -> dict[str, list[str]]:
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def argv_for(kind: str, path: str) -> list[str]:
    return ["wedge", kind.split("-")[0], "-f", path]


def build(seed: int, workdir: str) -> Workload:
    digests = load_digests()
    ops, fixtures = [], {}
    for kind, index in pool_pass(random.Random(seed), STRATA, POOL_PER_STRATUM):
        name = f"{kind}-{index}.json"
        fixtures[name], facts = pool_item(kind, index)
        ref = digests.get(kind, [])
        digest = ref[index] if index < len(ref) else None
        ops.append(Op(kind, argv_for(kind, f"{workdir}/{name}"), _check(kind, facts, digest)))
    return Workload(ops, fixtures, period=len(ops))
