"""Multi-bounds and multi-suprema of translated-wedge families.

A family is a list of (apex, wedge) pairs. Its multi-upper bounds form
the polyhedron P = intersection of apex_i + W_i. A point z is a
multi-supremum exactly when P = z + C with C = intersection of the W_i,
so the whole multi-supremum set is z + D(C): z is a point of P that
minimizes every row a of C at once. C's rows are the family's rows made
primitive, redundant ones included: a redundant row is a nonnegative
combination of others, attained wherever they are, so no conversion is
needed to drop it. P is one parametric system (``_upper_bound_system``,
its only builder), an ``lp.Warm`` with C's rows as its objectives: rows
that depend only on the sorted wedge multiset, and right-hand sides
a . apex_p linear in the apexes. ``Warm.solve`` answers whether P is
nonempty and gives a basis whose point is such a z, if there is one;
``msup`` and ``multi_bounded_above`` read that point.
``multilattice_search`` poses the same system, keeps one ``Warm`` per
multiset, so that most trials run no LP, and reads only its verdict: a
trial is a counterexample when P is nonempty and no basis is given, so
no trial builds a point. It converts only the input wedges that are
given by generators, each once. A trial stays in ints: its apexes are
drawn as int numerators over ``APEX_DEN`` (``sample_apex``),
``Warm.rhs`` takes them so, and ``QVector``s are built only for the
counterexample reported. The seeded draws read ``getrandbits`` in
place, in local loops, as ``randrange`` and ``randint`` read it (see
``_trials``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import NotMultiBoundedAbove, NotMultiBoundedBelow
from .linalg import QVector, _common, span_contains
from .lp import Warm
from .wedges import Wedge, intersect

# The denominator of every drawn apex: lcm(1, 2, 3, 4), so that each
# coordinate base + p/q, q <= 4, is an int over it.
APEX_DEN = 12


@dataclass(frozen=True)
class TranslatedWedge:
    """A pair (apex, wedge); the translate is apex + wedge."""

    apex: QVector
    wedge: Wedge

    def __post_init__(self):
        if self.apex.dim != self.wedge.dim:
            raise ValueError("apex dimension does not match the wedge")

    def to_json(self) -> dict:
        return {"apex": self.apex.to_json(), "wedge": self.wedge.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "TranslatedWedge":
        return cls(QVector.from_json(data["apex"]), Wedge.from_json(data["wedge"]))


@dataclass(frozen=True)
class MultiSupSet:
    """The set of multi-suprema: witness + span(lineality_basis)."""

    witness: QVector
    lineality_basis: tuple[QVector, ...]

    @property
    def is_proper(self) -> bool:
        return not self.lineality_basis

    def contains(self, x: QVector) -> bool:
        return span_contains(self.lineality_basis, x - self.witness, self.witness.dim)

    def to_json(self) -> dict:
        return {
            "witness": self.witness.to_json(),
            "lineality": [v.to_json() for v in self.lineality_basis],
        }


@dataclass(frozen=True)
class Counterexample:
    """A multi-bounded family whose multi-supremum set is empty."""

    apexes: tuple[QVector, ...]
    wedge_indices: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "apexes": [a.to_json() for a in self.apexes],
            "wedge_indices": list(self.wedge_indices),
        }


def _family_dim(family: Sequence[TranslatedWedge]) -> int:
    if not family:
        raise ValueError("family must be nonempty")
    dim = family[0].apex.dim
    if any(tw.apex.dim != dim for tw in family):
        raise ValueError("family members have mismatched dimensions")
    return dim


def _upper_bound_system(wedges: Sequence[Wedge], cw: Wedge | None) -> Warm:
    """P's rows a . x >= a . apex_p, for each halfspace a of each wedge W_p, as a system in the apexes.

    Its objectives are the rows of C = ``cw``, or none when ``cw`` is None.
    """
    rows = [a for w in wedges for a in w.halfspaces]
    terms = [(a, [(1, p)]) for p, w in enumerate(wedges) for a in w.halfspaces]
    return Warm(wedges[0].dim, rows, terms, () if cw is None else cw.halfspaces)


def is_multi_upper_bound(u: QVector, family: Sequence[TranslatedWedge]) -> bool:
    """Whether u - apex_i lies in W_i for every pair of the family."""
    dim = _family_dim(family)
    if u.dim != dim:
        raise ValueError("dimension mismatch")
    return all(tw.wedge.member(u - tw.apex) for tw in family)


def multi_bounded_above(family: Sequence[TranslatedWedge]) -> QVector | None:
    """A multi-upper bound of the family, or None when none exists."""
    _family_dim(family)
    warm = _upper_bound_system([tw.wedge for tw in family], None)
    rhs = warm.rhs(*_common([tw.apex for tw in family]))
    basis = warm.solve(rhs)[1]
    return None if basis is None else basis.point(rhs)


def msup(family: Sequence[TranslatedWedge]) -> MultiSupSet | None:
    """Multi-suprema of the family, None when the set is empty.

    Raises NotMultiBoundedAbove when the family has no multi-upper bound
    at all (the translate intersection P is empty); that case is an error
    by definition, distinct from an empty multi-supremum set. Each row a
    of C is bounded below on a nonempty P (its recession cone is exactly
    C), so the system gives a point minimizing every a exactly when the
    set is nonempty, and any such point is a multi-supremum.
    """
    _family_dim(family)
    wedges = [tw.wedge for tw in family]
    cw = intersect(wedges)
    warm = _upper_bound_system(wedges, cw)
    rhs = warm.rhs(*_common([tw.apex for tw in family]))
    feasible, basis = warm.solve(rhs)
    if not feasible:
        raise NotMultiBoundedAbove("the family has no multi-upper bound")
    return None if basis is None else MultiSupSet(basis.point(rhs), cw.lineality_basis)


def minf(family: Sequence[TranslatedWedge]) -> MultiSupSet | None:
    """Multi-infima: the negated multi-suprema of the negated apexes."""
    negated = [TranslatedWedge(-tw.apex, tw.wedge) for tw in family]
    try:
        res = msup(negated)
    except NotMultiBoundedAbove as exc:
        raise NotMultiBoundedBelow("the family has no multi-lower bound") from exc
    if res is None:
        return None
    return MultiSupSet(-res.witness, res.lineality_basis)


def is_proper(result: MultiSupSet) -> bool:
    """Whether the multi-supremum set is a single point."""
    return result.is_proper


def sample_apex(rng: random.Random, dim: int, bound: int) -> list[int]:
    """Integer point in [-bound, bound]^dim plus a perturbation p/q, q <= 4, drawn in that order.

    The draws are those of ``rng.randint(-bound, bound)``, ``randint(-2, 2)``
    and ``randint(1, 4)`` per coordinate, each read from ``getrandbits`` as
    they read it (see ``_trials``). The point is returned as int
    numerators over ``APEX_DEN``, 12, the lcm of every q: every apex has
    the same denominator whatever its q, so a trial's apexes go to
    ``Warm.rhs`` as they are drawn, and ``QVector._of(apex, APEX_DEN)``
    is the point.
    """
    width = 2 * bound + 1
    if width <= 0:
        raise ValueError(f"empty range for an apex bound {bound}")
    draw, k = rng.getrandbits, width.bit_length()
    apex = []
    for _ in range(dim):
        x = draw(k)
        while x >= width:
            x = draw(k)
        p = draw(3)
        while p >= 5:
            p = draw(3)
        q = draw(3)
        while q >= 4:
            q = draw(3)
        apex.append(APEX_DEN * (x - bound) + (p - 2) * (APEX_DEN // (q + 1)))
    return apex


def _trials(
    wedges: Sequence[Wedge], arity: int, seed: int, budget: int, system: Callable[[list[Wedge]], Warm]
) -> Iterator[tuple[random.Random, tuple[int, ...], list[int], Warm]]:
    """The seeded trials of both searches: ``budget`` draws of ``arity`` wedge indices.

    Yields the rng, for the trial's own draws; the indices as drawn; their
    positions in sorted order; and the property's ``system`` of the sorted
    wedges, one ``Warm`` per sorted wedge multiset, for this call only.
    Posed in sorted order, a trial is the drawn one with its rows
    permuted, and every verdict is exact: the first counterexample is
    that of cold sessions, reported in the drawn order.

    Every seeded draw below n, here and in the trials' own draws, is the
    one ``rng.randrange(n)`` and ``randint`` make (CPython's
    ``Random._randbelow_with_getrandbits``): k = n's bit length, and k
    fresh bits again while they are >= n. Each site reads ``getrandbits``
    so in a local loop, with no call per draw, after checking that its
    range is not empty.
    """
    if not wedges:
        raise ValueError("need at least one wedge")
    if any(w.dim != wedges[0].dim for w in wedges):
        raise ValueError("wedges have mismatched dimensions")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    rng, count = random.Random(seed), len(wedges)
    draw, k = rng.getrandbits, count.bit_length()
    warm: dict[tuple[int, ...], Warm] = {}
    for _ in range(budget):
        picks = []
        for _ in range(arity):
            r = draw(k)
            while r >= count:
                r = draw(k)
            picks.append(r)
        drawn = tuple(picks)
        order = sorted(range(arity), key=drawn.__getitem__)
        multiset = tuple(drawn[p] for p in order)
        if multiset not in warm:
            warm[multiset] = system([wedges[i] for i in multiset])
        yield rng, drawn, order, warm[multiset]


def multilattice_search(
    wedges: Sequence[Wedge], k: int, seed: int = 0, budget: int = 1000
) -> Counterexample | None:
    """Randomized refutation of the k-multi-lattice property.

    Samples families of k pairs (wedges drawn with repetition, rational
    apexes from ``sample_apex`` with bound 5) and returns the first
    multi-bounded-above family whose multi-supremum set is empty; None
    when the budget is exhausted. Deterministic for a fixed seed. Trials
    that are not multi-bounded above count against the budget. Each
    family is posed as ``msup`` poses it, in sorted wedge order (see
    ``_trials``), and only the verdict is read: P nonempty, with no point
    minimizing every row of C.
    """
    if k < 1:
        raise ValueError("arity must be at least 1")
    trials = _trials(wedges, k, seed, budget, lambda ws: _upper_bound_system(ws, intersect(ws)))
    for rng, indices, order, warm in trials:
        apexes = [sample_apex(rng, warm.n, 5) for _ in range(k)]
        feasible, basis = warm.solve(warm.rhs([apexes[p] for p in order], APEX_DEN))
        if feasible and basis is None:
            return Counterexample(tuple([QVector._of(a, APEX_DEN) for a in apexes]), indices)
    return None
