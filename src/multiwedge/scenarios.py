"""Built-in worked scenarios exposed through the command line.

Each scenario builds a small wedge configuration with a known outcome,
runs the library on it, and reports computed-vs-expected results. The
outputs are deterministic for fixed seed and budget.
"""

from __future__ import annotations

from .linalg import QVector
from .multiorder import TranslatedWedge, msup, multilattice_search
from .operators import (
    RDPInstance,
    decomposition_ok,
    fs_decompose,
    functional_msup,
    rdp_check,
    rdp_search,
)
from .wedges import Wedge, coordinate_wedge, dual_wedge, is_generating, wedge_equal


def _halfplane(dim: int, normal: list[int]) -> Wedge:
    return Wedge(dim, halfspaces=[QVector(normal)])


def two_halfplanes_and_diagonal() -> list[Wedge]:
    """Three halfplane wedges in Q^2 forming a 2- but not 3-multi-lattice."""
    return [
        _halfplane(2, [1, 0]),
        _halfplane(2, [0, 1]),
        _halfplane(2, [1, 1]),
    ]


def quadrant_and_diagonal_ray() -> list[Wedge]:
    """Quadrant plus diagonal ray: complete multi-lattice without (2,2)-RDP."""
    return [
        Wedge(2, generators=[QVector([1, 0]), QVector([0, 1])]),
        Wedge(2, generators=[QVector([1, 1])]),
    ]


def coordinate_ray(s_size: int, s: int) -> Wedge:
    """V_s = the nonnegative ray of the s-th unit vector."""
    return Wedge(s_size, generators=[QVector.unit(s_size, s)])


def run_ex27(seed: int = 0, budget: int = 1000) -> dict:
    """Two halfplanes plus a diagonal halfplane: pairwise suprema exist and
    are proper, but one translated triple has none."""
    w1, w2, w3 = two_halfplanes_and_diagonal()
    origin = QVector([0, 0])
    pairs = {}
    for name, (a, b) in {
        "w1_w2": (w1, w2),
        "w1_w3": (w1, w3),
        "w2_w3": (w2, w3),
    }.items():
        res = msup([TranslatedWedge(origin, a), TranslatedWedge(origin, b)])
        pairs[name] = {
            "witness": res.witness.to_json(),
            "proper": res.is_proper,
        }
    triple = msup(
        [
            TranslatedWedge(origin, w1),
            TranslatedWedge(origin, w2),
            TranslatedWedge(QVector([1, 1]), w3),
        ]
    )
    found3 = multilattice_search([w1, w2, w3], 3, seed=seed, budget=budget)
    found2 = multilattice_search([w1, w2, w3], 2, seed=seed, budget=budget)
    report = {
        "scenario": "ex2.7",
        "pairwise_msups": pairs,
        "triple_msup": "empty" if triple is None else triple.to_json(),
        "search_k3": None if found3 is None else found3.to_json(),
        "search_k2": None if found2 is None else found2.to_json(),
        "expected": {
            "pairwise_proper": True,
            "triple_msup": "empty",
            "search_k3_finds": True,
            "search_k2_finds": False,
        },
    }
    report["matches_expected"] = (
        all(p["proper"] for p in pairs.values())
        and triple is None
        and found3 is not None
        and found2 is None
    )
    return report


def run_ex37(seed: int = 0, budget: int = 1000) -> dict:
    """Quadrant plus diagonal ray: the classical decomposition failure."""
    w1, w2 = quadrant_and_diagonal_ray()
    inst = RDPInstance(
        (w1, w2),
        (QVector([2, 0]), QVector([0, 1])),
        (QVector([1, 0]), QVector([1, 1])),
    )
    decomp = rdp_check(inst)
    found = rdp_search([w1, w2], 2, 2, seed=seed, budget=budget)
    lattice_hits = {}
    for k in range(2, 6):
        hit = multilattice_search([w1, w2], k, seed=seed, budget=budget)
        lattice_hits[f"k{k}"] = None if hit is None else hit.to_json()
    report = {
        "scenario": "ex3.7",
        "rdp_check": "infeasible" if decomp is None else "feasible",
        "rdp_search_counterexample": None if found is None else found.to_json(),
        "lattice_search": lattice_hits,
        "expected": {
            "rdp_check": "infeasible",
            "rdp_search_finds": True,
            "lattice_search_finds": False,
        },
    }
    report["matches_expected"] = (
        decomp is None
        and found is not None
        and all(v is None for v in lattice_hits.values())
    )
    return report


def run_ex313(seed: int = 0, budget: int = 1000) -> dict:
    """Coordinate wedges on a five-point index set: duals are coordinate
    rays, decompositions always exist, functional suprema are proper."""
    s_size = 5
    wedges = [coordinate_wedge(s_size, s) for s in range(s_size)]
    rays = [coordinate_ray(s_size, s) for s in range(s_size)]
    duals_match = all(
        wedge_equal(dual_wedge(w), r) for w, r in zip(wedges, rays)
    )
    generating = all(is_generating(w) for w in wedges)

    js = [0, 1]
    ys = [
        QVector([3] + [-1] * (s_size - 1)),
        QVector([0, 2] + [1] * (s_size - 2)),
    ]
    xs_total = ys[0] + ys[1]
    xs = [QVector([1] + [0] * (s_size - 1)), xs_total - QVector([1] + [0] * (s_size - 1))]
    z = fs_decompose(s_size, js, xs, ys)
    inst = RDPInstance(tuple(wedges[j] for j in js), tuple(xs), tuple(ys))
    decomposition_valid = decomposition_ok(inst, z)

    phis = [QVector([1] + [2] * (s_size - 1)), QVector([-1] + [2] * (s_size - 1))]
    fam = [wedges[0], wedges[0]]
    func = functional_msup(phis, fam)
    report = {
        "scenario": "ex3.13",
        "s_size": s_size,
        "dual_wedges_are_coordinate_rays": duals_match,
        "all_wedges_generating": generating,
        "fs_decomposition_valid": decomposition_valid,
        "functional_msup": {
            "representative": func.representative.to_json(),
            "proper": func.is_proper,
        },
        "expected": {
            "dual_wedges_are_coordinate_rays": True,
            "all_wedges_generating": True,
            "fs_decomposition_valid": True,
            "functional_msup_proper": True,
        },
    }
    report["matches_expected"] = (
        duals_match and generating and decomposition_valid and func.is_proper
    )
    return report


SCENARIOS = {
    "ex2.7": run_ex27,
    "ex3.7": run_ex37,
    "ex3.13": run_ex313,
}


def run_scenario(name: str, seed: int = 0, budget: int = 1000) -> dict:
    return SCENARIOS[name](seed=seed, budget=budget)
