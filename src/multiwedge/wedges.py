"""Polyhedral wedges in Q^n with dual generator/halfspace representations.

A wedge is a set closed under addition and nonnegative scaling. It is
stored either as a V-representation (conic hull of finitely many rays;
lines appear as two opposite rays) or an H-representation (intersection
of homogeneous halfspaces {x : a.x >= 0}), or both. Whichever side is
missing reads as the canonical form of that side, computed lazily and
exactly from the other; each canonical side and the lineality basis are
computed at most once per wedge. A wedge given by one side makes one
conversion: the canonical form of the given side is read off that pass
(``_round_trip``), not converted back.

Conventions: an empty generator list denotes {0}; an empty halfspace list
denotes all of Q^n. Canonical representations scale every ray/normal to
coprime integer entries (``den == 1``) and sort lexicographically. The
conversion reads the vectors' int numerators, and membership the signs of
their int dot products (denominators are positive); neither builds a
``Fraction``.
"""

from __future__ import annotations

import threading
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .linalg import (
    QVector, _json_array, _json_size, _nullspace_from_rref, _Row, _rref_ints, span_rank,
)


def _coprime(ints: Sequence[int]) -> tuple[int, ...]:
    """``ints`` divided by their gcd (zero stays zero)."""
    g = gcd(*ints) or 1
    return tuple([x // g for x in ints])


def _primitive(v: QVector) -> QVector:
    """Scale by a positive rational so entries are coprime integers."""
    return QVector._of(_coprime(v.num))


def _kernel(rows: Sequence[Sequence[int]], dim: int) -> tuple[list[_Row], list[int], list[QVector]]:
    """The RREF of integer ``rows``, its pivot columns and a primitive basis of their kernel."""
    reduced = [_Row(list(a), 1) for a in rows]
    pivots = _rref_ints(reduced)
    return reduced, pivots, [_primitive(v) for v in _nullspace_from_rref(reduced, pivots, dim)]


def _dd_rays(rows: list[tuple[int, ...]], d: int) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {y : a.y >= 0 for a in rows} in Z^d.

    ``rows`` are integer rows of rank d, no two positively parallel. This is the
    double-description method (Motzkin et al. 1953; Fukuda & Prodon 1996).
    Its first cone is cut out by the greedily independent rows a_1..a_d in
    list order: one RREF of [a_1..a_m | I] (the a's as columns) leaves
    B^-T in the identity block, for B the matrix of those rows, so the
    i-th row of that block is the ray y_i with a_j.y_i = [i == j]. The
    other rows are then added in list order. Rays with a.r >= 0 stay; a
    ray r+ with a.r+ > 0 and a ray r- with a.r- < 0 give the new ray
    (a.r+)r- - (a.r-)r+ on a.y = 0 exactly when they are adjacent. Each
    ray keeps its zero set, the bitmask of the rows added so far that are
    tight at it. Two extreme rays of a pointed cone are adjacent exactly
    when no third one is tight on every row tight at both; at least d-2
    rows must be tight at both, which settles most pairs at once.
    """
    m = len(rows)
    block = [_Row([a[i] for a in rows] + [int(i == k) for k in range(d)], 1) for i in range(d)]
    first = _rref_ints(block)
    rays = [_coprime(row.num[m:]) for row in block]
    everything = sum(1 << j for j in first)
    zeros = [everything & ~(1 << j) for j in first]
    for i in sorted(set(range(m)) - set(first)):
        a, bit = rows[i], 1 << i
        values = [sum(map(mul, a, r)) for r in rays]
        pos = [k for k, v in enumerate(values) if v > 0]
        neg = [k for k, v in enumerate(values) if v < 0]
        kept_rays = [r for r, v in zip(rays, values) if v >= 0]
        kept_zeros = [z if v else z | bit for z, v in zip(zeros, values) if v >= 0]
        for p in pos:
            for n in neg:
                common = zeros[p] & zeros[n]
                if common.bit_count() < d - 2:
                    continue
                if any(z & common == common for k, z in enumerate(zeros) if k != p and k != n):
                    continue
                kept_rays.append(
                    _coprime([values[p] * y - values[n] * x for x, y in zip(rays[p], rays[n])])
                )
                kept_zeros.append(common | bit)
        rays, zeros = kept_rays, kept_zeros
    return rays


def _solve_rays(normals: Sequence[QVector], dim: int) -> tuple[list[QVector], list[QVector]]:
    """Lineality basis and extreme rays of {x : a.x >= 0 for a in normals}.

    The lineality space is the common kernel of the normals N. The pointed
    part lives in the greedy standard complement of it, spanned by e_p for
    the pivot columns p of N (unit vectors e_S complement ker N exactly when
    N's S-columns are independent), so each normal restricts to its pivot
    coordinates. The normals are scaled to primitive integers once, and the
    restriction is one-to-one on their span, so no two distinct restricted
    rows are positively parallel. They have full rank d and cut out a
    pointed cone, whose extreme rays the double-description method
    (`_dd_rays`) enumerates in integers; each is written back into the
    pivot coordinates.
    """
    rows = [_coprime(a.num) for a in normals]
    _, pivots, lin = _kernel(rows, dim)
    unique = dict.fromkeys(tuple([a[p] for p in pivots]) for a in rows)
    rays = [dict(zip(pivots, y)) for y in _dd_rays([a for a in unique if any(a)], len(pivots))]
    return lin, [QVector._of([ray.get(c, 0) for c in range(dim)]) for ray in rays]


def _kernel_basis(normals: Sequence[QVector], dim: int) -> list[QVector]:
    """Primitive basis of {x : a.x = 0 for a in normals}."""
    return _kernel([a.num for a in normals], dim)[2]


class _Generators(list):
    """Canonical generators, with the lineality basis that their pass found as ``lineality``."""

    __slots__ = ("lineality",)


def _sorted_generators(lin: Sequence[QVector], rays: Sequence[QVector]) -> _Generators:
    """Canonical generators from a primitive lineality basis and primitive extreme rays."""
    # Both are primitive (den == 1), so the canonical form only sorts them.
    gens = [v for b in lin for v in (b, -b)] + list(rays)
    out = _Generators(sorted(set(gens), key=lambda v: v.num))
    out.lineality = lin
    return out


def hrep_to_vrep(halfspaces: Sequence[QVector], dim: int) -> list[QVector]:
    """Canonical generators of the wedge cut out by ``halfspaces``, with its lineality basis as ``lineality``."""
    return _sorted_generators(*_solve_rays(list(halfspaces), dim))


def _round_trip(source: Sequence[QVector], out: Sequence[QVector], dim: int) -> _Generators:
    """``hrep_to_vrep(out, dim)`` for ``out = hrep_to_vrep(source, dim)``, with no second conversion.

    That is the canonical V-representation of cone(source). Its lineality
    space is the kernel of ``out``, and its extreme rays are the facet
    normals of W = {x : a.x >= 0 for a in source}: the nonzero rows whose
    tight set on ``out``, a bitmask, is proper and maximal among the proper
    ones (the faces of W are generated by the vectors of ``out`` they hold).
    Each is written in the pivot coordinates Q of the RREF of ``out``, as
    the conversion of ``out`` writes its rays: coordinate Q_i is a.r_i for
    the i-th reduced row r_i, since a differs from that representative by
    a vector of the kernel. When no such row vanishes on all of ``out``, W
    is full-dimensional: the kernel is {0} and Q is every coordinate, so no
    RREF is needed. The kernel is returned as ``lineality``.
    """
    rows = [_coprime(a.num) for a in source if any(a.num)]
    gens = [g.num for g in out]
    full = (1 << len(gens)) - 1
    tight = [sum([1 << j for j, g in enumerate(gens) if not sum(map(mul, a, g))]) for a in rows]
    proper = set(tight) - {full}
    facets = [a for a, t in zip(rows, tight) if t in proper and not any(t != u and t & u == t for u in proper)]
    if full not in tight:
        return _sorted_generators([], [QVector._of(a) for a in facets])
    reduced, pivots, lin = _kernel(gens, dim)
    reduced = reduced[: len(pivots)]
    den = lcm(*[r.den for r in reduced])  # a list: see QMatrix.col
    rays = []
    for a in facets:
        ray = [0] * dim
        for r, p in zip(reduced, pivots):
            ray[p] = sum(map(mul, a, r.num)) * (den // r.den)
        rays.append(QVector._of(_coprime(ray)))
    return _sorted_generators(lin, rays)


def vrep_to_hrep(generators: Sequence[QVector], dim: int) -> list[QVector]:
    """Canonical halfspace normals of the conic hull of ``generators``.

    The normals of W are exactly the generators of the dual wedge
    {a : a.g >= 0 for all g}, so this is the same ray enumeration with the
    roles of points and normals swapped.
    """
    return hrep_to_vrep(list(generators), dim)


class Wedge:
    """A polyhedral wedge; immutable apart from an internally locked cache.

    The cache holds the canonical generators, the canonical halfspaces and
    a lineality basis, each computed at most once, on first use. A side
    that was not given reads as its canonical form. The canonical form of
    a given side is converted from the other side when both are given, and
    read off the conversion of the given side otherwise. The pass that
    finds the canonical generators reads the kernel of the halfspaces,
    given or canonical, and keeps it as the lineality basis; only a
    lineality read before that pass reduces the halfspaces itself.
    """

    __slots__ = (
        "dim",
        "_generators",
        "_halfspaces",
        "_lock",
        "_canon_generators",
        "_canon_halfspaces",
        "_lineality",
    )

    def __init__(
        self,
        dim: int,
        generators: Sequence[QVector] | None = None,
        halfspaces: Sequence[QVector] | None = None,
    ):
        if generators is None and halfspaces is None:
            raise ValueError("a wedge needs generators or halfspaces (or both)")
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = dim
        self._generators = None if generators is None else tuple(generators)
        self._halfspaces = None if halfspaces is None else tuple(halfspaces)
        for vs in (self._generators, self._halfspaces):
            if vs is not None and any(v.dim != dim for v in vs):
                raise ValueError("vector dimension does not match the wedge dimension")
        if self._generators is not None and self._halfspaces is not None:
            for a in self._halfspaces:
                for g in self._generators:
                    if sum(map(mul, a.num, g.num)) < 0:
                        raise ValueError(
                            "inconsistent double description: generator violates halfspace"
                        )
        self._lock = threading.Lock()
        self._canon_generators = None
        self._canon_halfspaces = None
        self._lineality = None

    def _derived(self, slot: str, derive, *sources: str, lineality: bool = False) -> tuple[QVector, ...]:
        """The cached ``derive(*<sources>, dim)``, computed at most once.

        The sources are read before the lock is taken: reading one may fill
        another slot, and the lock is not reentrant. With ``lineality`` the
        result's ``lineality`` fills that slot too, if it is empty.
        """
        value = getattr(self, slot)
        if value is None:
            args = [getattr(self, source) for source in sources]
            with self._lock:
                value = getattr(self, slot)
                if value is None:
                    out = derive(*args, self.dim)
                    value = tuple(out)
                    setattr(self, slot, value)
                    if lineality and self._lineality is None:
                        self._lineality = tuple(out.lineality)
        return value

    @property
    def generators(self) -> tuple[QVector, ...]:
        """Generators as given, or else the canonical generators."""
        if self._generators is not None:
            return self._generators
        return self.canonical_generators

    @property
    def halfspaces(self) -> tuple[QVector, ...]:
        """Halfspace normals as given, or else the canonical halfspaces."""
        if self._halfspaces is not None:
            return self._halfspaces
        return self.canonical_halfspaces

    @property
    def canonical_halfspaces(self) -> tuple[QVector, ...]:
        """Irredundant canonical H-representation."""
        if self._generators is None:
            return self._derived("_canon_halfspaces", _round_trip, "_halfspaces", "canonical_generators")
        return self._derived("_canon_halfspaces", vrep_to_hrep, "_generators")

    @property
    def canonical_generators(self) -> tuple[QVector, ...]:
        """Irredundant canonical V-representation (lineality pairs + extreme rays)."""
        if self._halfspaces is None:
            return self._derived(
                "_canon_generators", _round_trip, "_generators", "canonical_halfspaces", lineality=True
            )
        return self._derived("_canon_generators", hrep_to_vrep, "_halfspaces", lineality=True)

    @property
    def lineality_basis(self) -> tuple[QVector, ...]:
        """Primitive basis of D(W) = W n (-W), the common kernel of the normals.

        Read off the pass that found the canonical generators, if one ran.
        """
        return self._derived("_lineality", _kernel_basis, "halfspaces")

    def member(self, x: QVector) -> bool:
        if x.dim != self.dim:
            raise ValueError("dimension mismatch in membership test")
        return all(sum(map(mul, a.num, x.num)) >= 0 for a in self.halfspaces)

    def __repr__(self) -> str:
        parts = [f"dim={self.dim}"]
        if self._generators is not None:
            parts.append(f"generators={len(self._generators)}")
        if self._halfspaces is not None:
            parts.append(f"halfspaces={len(self._halfspaces)}")
        return f"Wedge({', '.join(parts)})"

    def to_json(self, canonical: bool = False) -> dict:
        out: dict = {"dim": self.dim}
        if canonical:
            out["generators"] = [g.to_json() for g in self.canonical_generators]
            out["halfspaces"] = [h.to_json() for h in self.canonical_halfspaces]
            return out
        if self._generators is not None:
            out["generators"] = [g.to_json() for g in self._generators]
        if self._halfspaces is not None:
            out["halfspaces"] = [h.to_json() for h in self._halfspaces]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Wedge":
        """A wedge from ``{"dim", "generators"?, "halfspaces"?}``; two sides must be equal.

        The constructor checks that the generators satisfy the halfspaces,
        this the converse on the canonical forms; ValueError otherwise.
        """
        if "dim" not in data:
            raise ValueError("wedge JSON needs a 'dim' field")
        dim = _json_size(data["dim"], "dim")
        sides = {}
        for side in ("generators", "halfspaces"):
            if data.get(side) is not None:
                sides[side] = [QVector.from_json(v) for v in _json_array(data[side], side)]
        w = cls(dim, **sides)
        normals = w.canonical_halfspaces if len(sides) == 2 else ()
        if any(sum(map(mul, a.num, g.num)) < 0 for a in normals for g in w.canonical_generators):
            raise ValueError("inconsistent double description: the sides differ")
        return w


def coordinate_wedge(s_size: int, s: int) -> Wedge:
    """W_s = {f in Q^S : f(s) >= 0} for a finite index set."""
    return Wedge(s_size, halfspaces=[QVector.unit(s_size, s)])


def member(w: Wedge, x: QVector) -> bool:
    """Whether x belongs to the wedge (a.x >= 0 for every halfspace a)."""
    return w.member(x)


def wedge_sum(ws: Sequence[Wedge]) -> Wedge:
    """Smallest wedge containing every wedge in ``ws`` (union of generators)."""
    dim = _common_dim(ws)
    gens = dict.fromkeys(_primitive(g) for w in ws for g in w.generators)
    return Wedge(dim, generators=list(gens))


def intersect(ws: Sequence[Wedge]) -> Wedge:
    """Intersection of wedges (union of halfspace systems)."""
    dim = _common_dim(ws)
    hs = dict.fromkeys(_primitive(a) for w in ws for a in w.halfspaces)
    return Wedge(dim, halfspaces=list(hs))


def lineality(w: Wedge) -> list[QVector]:
    """Basis of D(W) = W n (-W), the largest subspace contained in W."""
    return list(w.lineality_basis)


def is_cone(w: Wedge) -> bool:
    """Whether W is pointed: W n (-W) = {0}."""
    return not lineality(w)


def is_generating(w: Wedge) -> bool:
    """Whether W - W is the whole space (the generators span Q^n)."""
    return span_rank(w.generators, w.dim) == w.dim


def dual_wedge(w: Wedge) -> Wedge:
    """Dual wedge W' = {a : a.x >= 0 for all x in W}.

    The generators of W serve directly as the halfspace normals of W'.
    """
    return Wedge(w.dim, halfspaces=list(w.generators))


def wedge_equal(w1: Wedge, w2: Wedge) -> bool:
    """Set equality via mutual generator membership."""
    if w1.dim != w2.dim:
        return False
    return all(w2.member(g) for g in w1.generators) and all(
        w1.member(g) for g in w2.generators
    )


def _common_dim(ws: Sequence[Wedge]) -> int:
    if not ws:
        raise ValueError("need at least one wedge")
    dim = ws[0].dim
    if any(w.dim != dim for w in ws):
        raise ValueError("wedges have mismatched dimensions")
    return dim
