"""The `search` workload: the paper's randomized refutations at budget 100.

Why: thousands of tiny LPs (at most 12 variables and 25 rows) with the
wedge conversions cached per combination. This loads the per-call cost of
`lp_solve`, the search loops of `multiorder` and `operators`, and the
parse/emit work of `cli`. `wedges` takes about 15 % of the traced time
here against about 95 % on `conversion`, so this is the workload on which
a faster H-to-V conversion should move little.

Sizes: the searches that must come back empty run at budget 100. On
Python 3.11 without gmpy2 (2 CPUs) a call takes 3-470 ms (a counterexample
found early is cheap; a search that must exhaust its budget is not). The
two searches that must find a counterexample stop at the first one: over
400 seeds they needed a median of 5-7 checked families and at most 68.
Their budget of 400 only caps a search that fails, so that a rare miss by
chance at budget 100 does not show up as a wrong answer. `mw examples run
ex3.7`, which searches at budget 1000, takes 9-12 s and is left out so
that no single op dominates a run. The weights below put the run's median
inside the dense 50-170 ms band of the `lattice-search --k 2` and ex3.7
`rdp search` calls, and its tail inside the coordinate-wedge searches.
"""

from __future__ import annotations

import random

from .common import Op, Workload, dot, expect_payload, round_robin, total, vec

BUDGET = "100"
FIND_BUDGET = "400"
# A round of STRATA takes about 1.5 s; 40 rounds outlast a run of 60 s,
# and a run that gets through them starts over.
ROUNDS = 40

# (kind, ops per round). The verdicts are the paper's: ex2.7's halfplanes
# are a 2- but not a 3-multi-lattice, ex3.7's quadrant plus ray is a
# complete multi-lattice without the decomposition property, coordinate
# wedges always decompose, and ex3.13 reproduces its expected report.
STRATA = [
    ("lattice-ex2.7-k3", 2),
    ("lattice-ex2.7-k2", 3),
    ("lattice-ex3.7-k3", 1),
    ("rdp-search-ex3.7", 1),
    ("rdp-search-coordinate", 1),
    ("example-ex3.13", 1),
]

EX27 = {"wedges": [{"dim": 2, "halfspaces": [n]} for n in (["1", "0"], ["0", "1"], ["1", "1"])]}
EX37 = {
    "wedges": [
        {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
        {"dim": 2, "generators": [["1", "1"]]},
    ]
}
COORD3 = {
    "wedges": [
        {"dim": 3, "halfspaces": [["1" if i == s else "0" for i in range(3)]]} for s in range(3)
    ]
}


def _found_nothing(payload: dict) -> str | None:
    return None if payload["found"] is False else "found a counterexample the paper rules out"


def _ex27_triple(payload: dict) -> str | None:
    """A translated triple of ex2.7's halfplanes with an empty multi-supremum set.

    With W1 = {x >= 0}, W2 = {y >= 0}, W3 = {x + y >= 0} the upper bounds
    are P = {x >= a1, y >= a2, x + y >= a3}, where a_j is the largest
    value of W_j's normal over the apexes drawn with W_j. Any two of the
    normals are independent, so P is a translate of the intersection of
    the wedges exactly unless all three occur and x + y >= a3 is not
    implied, i.e. a3 > a1 + a2.
    """
    if payload["found"] is not True:
        return "ex2.7 lattice search at k=3 found no counterexample"
    apexes = [vec(a) for a in payload["apexes"]]
    idx = payload["wedge_indices"]
    if len(apexes) != 3 or len(idx) != 3 or sorted(set(idx)) != [0, 1, 2]:
        return "a counterexample must use all three halfplanes"
    normals = ((1, 0), (0, 1), (1, 1))
    a1, a2, a3 = (max(dot(normals[j], a) for a, i in zip(apexes, idx) if i == j) for j in range(3))
    if not a3 > a1 + a2:
        return "the reported triple has a multi-supremum"
    return None


def _ex37_instance(payload: dict) -> str | None:
    """A (2,2) instance over ex3.7's quadrant Q and diagonal ray R with no decomposition.

    Checks y_j in W_j, x_i in Q + R = Q and sum x = sum y. Then, with W
    one Q and one R, z_i2 = t_i (1, 1) and z_i1 = x_i - z_i2 in Q need
    0 <= t_i <= min(x_i) and t_1 + t_2 = t where y_R = t (1, 1); so a
    decomposition exists iff min(x_1) + min(x_2) >= t. Two equal wedges
    always decompose.
    """
    if payload["found"] is not True:
        return "ex3.7 decomposition search found no counterexample"
    inst = payload["instance"]
    wedges = inst["wedges"]
    xs = [vec(x) for x in inst["xs"]]
    ys = [vec(y) for y in inst["ys"]]
    if len(wedges) != 2 or len(xs) != 2 or len(ys) != 2:
        return "expected a (2,2) instance"
    quad, ray = EX37["wedges"]
    kinds = []
    for w, y in zip(wedges, ys):
        if w == quad:
            kinds.append("Q")
            ok = min(y) >= 0
        elif w == ray:
            kinds.append("R")
            ok = y[0] == y[1] and y[0] >= 0
        else:
            return "instance uses a wedge that is not an input wedge"
        if not ok:
            return "some y_j is not in its wedge"
    if any(min(x) < 0 for x in xs):
        return "some x_i is outside the sum wedge"
    if total(xs, 2) != total(ys, 2):
        return "sum of xs differs from sum of ys"
    if sorted(kinds) != ["Q", "R"]:
        return "equal wedges always decompose"
    t = ys[kinds.index("R")][0]
    if min(xs[0]) + min(xs[1]) >= t:
        return "the reported instance has a decomposition"
    return None


def _ex313(payload: dict) -> str | None:
    keys = ("dual_wedges_are_coordinate_rays", "all_wedges_generating", "fs_decomposition_valid")
    if payload.get("matches_expected") is not True or not all(payload[k] is True for k in keys):
        return "ex3.13 does not match its expected report"
    if payload["functional_msup"]["proper"] is not True:
        return "ex3.13 functional supremum is not proper"
    return None


def build(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    ex27, ex37, coord = (f"{workdir}/{n}.json" for n in ("ex27", "ex37", "coord3"))
    ops = []
    for kind in round_robin(rng, STRATA, ROUNDS):
        s = str(rng.randrange(1 << 30))
        budget = FIND_BUDGET if kind in ("lattice-ex2.7-k3", "rdp-search-ex3.7") else BUDGET
        if kind == "lattice-ex2.7-k3":
            argv, check = ["lattice-search", "-f", ex27, "--k", "3"], _ex27_triple
        elif kind == "lattice-ex2.7-k2":
            argv, check = ["lattice-search", "-f", ex27, "--k", "2"], _found_nothing
        elif kind == "lattice-ex3.7-k3":
            argv, check = ["lattice-search", "-f", ex37, "--k", "3"], _found_nothing
        elif kind == "rdp-search-ex3.7":
            argv, check = ["rdp", "search", "-f", ex37, "--m", "2", "--n", "2"], _ex37_instance
        elif kind == "rdp-search-coordinate":
            argv, check = ["rdp", "search", "-f", coord, "--m", "2", "--n", "2"], _found_nothing
        else:
            argv, check = ["examples", "run", "ex3.13"], _ex313
        ops.append(Op(kind, argv + ["--seed", s, "--budget", budget], expect_payload(check)))
    fixtures = {"ex27.json": EX27, "ex37.json": EX37, "coord3.json": COORD3}
    return Workload(ops, fixtures, period=sum(weight for _, weight in STRATA))

