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
nonempty and gives such a z, if there is one. ``multilattice_search``
keeps one ``Warm`` per multiset, so that most trials run no LP, and
converts C once per wedge combination, so that no trial minimizes a
redundant row. The seeded draws take ``getrandbits`` directly
(``_below``), as ``randrange`` and ``randint`` do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterator, Sequence

from .errors import NotMultiBoundedAbove, NotMultiBoundedBelow
from .linalg import QVector, span_contains
from .lp import Warm
from .wedges import Wedge, intersect


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
    return warm.solve(warm.rhs([tw.apex for tw in family]))[1]


def msup(family: Sequence[TranslatedWedge]) -> MultiSupSet | None:
    """Multi-suprema of the family, None when the set is empty.

    Raises NotMultiBoundedAbove when the family has no multi-upper bound
    at all (the translate intersection P is empty); that case is an error
    by definition, distinct from an empty multi-supremum set.
    """
    _family_dim(family)
    wedges = [tw.wedge for tw in family]
    cw = intersect(wedges)
    return _msup([tw.apex for tw in family], cw, _upper_bound_system(wedges, cw))


def _msup(apexes: Sequence[QVector], cw: Wedge, warm: Warm) -> MultiSupSet | None:
    """``msup`` at the apexes, with C = ``cw`` given, and P the system ``warm`` of the family's wedges and C's rows.

    Each row a of C is bounded below on P (the recession cone of a
    nonempty P is exactly C), by m_a, so ``warm`` gives a point minimizing
    every a exactly when the set is nonempty, and any such point is a
    multi-supremum.
    """
    feasible, point = warm.solve(warm.rhs(apexes))
    if not feasible:
        raise NotMultiBoundedAbove("the family has no multi-upper bound")
    return None if point is None else MultiSupSet(point, cw.lineality_basis)


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


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``: the same value from the same ``getrandbits`` calls.

    It is CPython's ``Random._randbelow_with_getrandbits``, which
    ``randrange`` and ``randint`` call for every width n > 0: k = n's bit
    length, and k fresh bits again while they are >= n. An empty range
    raises ``ValueError``, as ``randrange`` does, before any draw.
    """
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def sample_apex(rng: random.Random, dim: int, bound: int) -> QVector:
    """Integer point in [-bound, bound]^dim plus a perturbation p/q, q <= 4, drawn in that order.

    The draws are those of ``rng.randint(-bound, bound)``, ``randint(-2, 2)``
    and ``randint(1, 4)`` per coordinate.
    """
    width = 2 * bound + 1
    draws = [(_below(rng, width) - bound, _below(rng, 5) - 2, _below(rng, 4) + 1) for _ in range(dim)]
    den = lcm(*(q for _, _, q in draws))
    return QVector._of([base * den + p * (den // q) for base, p, q in draws], den)


def _trials(
    wedges: Sequence[Wedge], arity: int, seed: int, budget: int,
    combine: Callable[[list[Wedge]], Wedge], system: Callable[[list[Wedge], Wedge], Warm],
) -> Iterator[tuple[random.Random, tuple[int, ...], list[int], Wedge, Warm]]:
    """The seeded trials of both searches: ``budget`` draws of ``arity`` wedge indices.

    Yields the rng, for the trial's own draws; the indices as drawn; their
    positions in sorted order; ``combine`` of the distinct wedges, cached
    per index set; and the property's ``system`` of the sorted wedges and
    that combined wedge, one ``Warm`` per sorted wedge multiset, for this
    call only. Posed in sorted order, a trial is the drawn one with its
    rows permuted, and every verdict is exact: the first counterexample
    is that of cold sessions, reported in the drawn order.
    """
    if not wedges:
        raise ValueError("need at least one wedge")
    if any(w.dim != wedges[0].dim for w in wedges):
        raise ValueError("wedges have mismatched dimensions")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    rng, count = random.Random(seed), len(wedges)
    combined: dict[tuple[int, ...], Wedge] = {}
    warm: dict[tuple[int, ...], Warm] = {}
    for _ in range(budget):
        drawn = tuple([_below(rng, count) for _ in range(arity)])
        order = sorted(range(arity), key=drawn.__getitem__)
        key = tuple(sorted(set(drawn)))
        if key not in combined:
            combined[key] = combine([wedges[i] for i in key])
        multiset = tuple(drawn[p] for p in order)
        if multiset not in warm:
            warm[multiset] = system([wedges[i] for i in multiset], combined[key])
        yield rng, drawn, order, combined[key], warm[multiset]


def multilattice_search(
    wedges: Sequence[Wedge], k: int, seed: int = 0, budget: int = 1000
) -> Counterexample | None:
    """Randomized refutation of the k-multi-lattice property.

    Samples families of k pairs (wedges drawn with repetition, rational
    apexes from ``sample_apex`` with bound 5) and returns the first
    multi-bounded-above family whose multi-supremum set is empty; None
    when the budget is exhausted. Deterministic for a fixed seed. Trials
    that are not multi-bounded above count against the budget. msup sees
    each family in sorted wedge order (see ``_trials``).
    """
    if k < 1:
        raise ValueError("arity must be at least 1")
    # C given by its extreme rays has the irredundant rows as its halfspaces.
    def combine(ws: list[Wedge]) -> Wedge:
        return Wedge(ws[0].dim, generators=intersect(ws).generators)

    for rng, indices, order, cw, warm in _trials(wedges, k, seed, budget, combine, _upper_bound_system):
        apexes = tuple(sample_apex(rng, cw.dim, 5) for _ in range(k))
        try:
            res = _msup([apexes[p] for p in order], cw, warm)
        except NotMultiBoundedAbove:
            continue
        if res is None:
            return Counterexample(apexes, indices)
    return None
