"""Polyhedral wedges in Q^n with dual generator/halfspace representations.

A wedge is a set closed under addition and nonnegative scaling. It is
stored either as a V-representation (conic hull of finitely many rays;
lines appear as two opposite rays) or an H-representation (intersection
of homogeneous halfspaces {x : a.x >= 0}), or both. Whichever side is
missing reads as the canonical form of that side, computed lazily and
exactly from the other; each canonical side and the lineality basis are
computed at most once per wedge.

Conventions: an empty generator list denotes {0}; an empty halfspace list
denotes all of Q^n. Canonical representations scale every ray/normal to
coprime integer entries and sort lexicographically.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .linalg import QMatrix, QVector, _nullspace_from_rref, _rref_rows, nullspace, span_rank

_ZERO = Fraction(0)


def _primitive(v: QVector) -> QVector:
    """Scale by a positive rational so entries are coprime integers."""
    num_gcd = 0
    den_lcm = 1
    for e in v.entries:
        num_gcd = gcd(num_gcd, e.numerator)
        den_lcm = den_lcm * e.denominator // gcd(den_lcm, e.denominator)
    if num_gcd == 0:
        return v
    scale = Fraction(den_lcm, num_gcd)
    return QVector._of(tuple([e * scale for e in v.entries]))


def _canonical_set(vectors: Iterable[QVector]) -> tuple[QVector, ...]:
    return tuple(sorted({_primitive(v) for v in vectors}, key=lambda v: v.entries))


def _solve_rays(normals: Sequence[QVector], dim: int) -> tuple[list[QVector], list[QVector]]:
    """Lineality basis and extreme rays of {x : a.x >= 0 for a in normals}.

    The lineality space is the common kernel of the normals N. The pointed
    part lives in the greedy standard complement of it, spanned by e_p for
    the pivot columns p of N (unit vectors e_S complement ker N exactly when
    N's S-columns are independent), so each normal restricts to its pivot
    coordinates. Each extreme ray is cut out by some (d-1)-subset of
    independent active constraints, so enumerating those subsets finds
    exactly the extreme rays.
    """
    normals = [n for n in normals if not n.is_zero()]
    if not normals:
        basis = [QVector.unit(dim, i) for i in range(dim)]
        return basis, []
    rows = [list(n.entries) for n in normals]
    pivots = _rref_rows(rows)
    lin = _nullspace_from_rref(rows, pivots, dim)
    d = len(pivots)
    restricted = []
    seen_rows = set()
    for a in normals:
        row = QVector._of(tuple([a.entries[p] for p in pivots]))
        key = _primitive(row).entries
        if key in seen_rows:
            continue
        seen_rows.add(key)
        restricted.append(row)
    rays: set[QVector] = set()
    for subset in combinations(restricted, d - 1):
        sub_rows = [list(row.entries) for row in subset]
        sub_pivots = _rref_rows(sub_rows)
        if len(sub_pivots) != d - 1:
            continue
        direction = _nullspace_from_rref(sub_rows, sub_pivots, d)[0]
        signs = [row.dot(direction) for row in restricted]
        if all(s >= 0 for s in signs):
            pass
        elif all(s <= 0 for s in signs):
            direction = -direction
        else:
            continue
        ray = [_ZERO] * dim
        for p, coef in zip(pivots, direction.entries):
            ray[p] = coef
        rays.add(_primitive(QVector._of(tuple(ray))))
    return lin, sorted(rays, key=lambda v: v.entries)


def _kernel_basis(normals: Sequence[QVector], dim: int) -> list[QVector]:
    """Primitive basis of {x : a.x = 0 for a in normals}."""
    rows = [a.entries for a in normals if not a.is_zero()]
    if not rows:
        return [QVector.unit(dim, i) for i in range(dim)]
    return [_primitive(v) for v in nullspace(QMatrix.from_rows(rows))]


def hrep_to_vrep(halfspaces: Sequence[QVector], dim: int) -> list[QVector]:
    """Canonical generators of the wedge cut out by ``halfspaces``."""
    lin, rays = _solve_rays(list(halfspaces), dim)
    gens = [v for b in lin for v in (b, -b)] + rays
    return list(_canonical_set(gens))


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
    that was not given reads as its canonical form.
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
                    if a.dot(g) < 0:
                        raise ValueError(
                            "inconsistent double description: generator violates halfspace"
                        )
        self._lock = threading.Lock()
        self._canon_generators = None
        self._canon_halfspaces = None
        self._lineality = None

    def _derived(self, slot: str, source: str, derive) -> tuple[QVector, ...]:
        """The cached ``derive(self.<source>, dim)``, computed at most once.

        ``source`` is read before the lock is taken: reading it may fill
        another slot, and the lock is not reentrant.
        """
        value = getattr(self, slot)
        if value is None:
            side = getattr(self, source)
            with self._lock:
                value = getattr(self, slot)
                if value is None:
                    value = tuple(derive(side, self.dim))
                    setattr(self, slot, value)
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
        return self._derived("_canon_halfspaces", "generators", vrep_to_hrep)

    @property
    def canonical_generators(self) -> tuple[QVector, ...]:
        """Irredundant canonical V-representation (lineality pairs + extreme rays)."""
        return self._derived("_canon_generators", "halfspaces", hrep_to_vrep)

    @property
    def lineality_basis(self) -> tuple[QVector, ...]:
        """Primitive basis of D(W) = W n (-W), the common kernel of the normals."""
        return self._derived("_lineality", "halfspaces", _kernel_basis)

    def member(self, x: QVector) -> bool:
        if x.dim != self.dim:
            raise ValueError("dimension mismatch in membership test")
        return all(a.dot(x) >= 0 for a in self.halfspaces)

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
        if "dim" not in data:
            raise ValueError("wedge JSON needs a 'dim' field")
        dim = int(data["dim"])
        gens = data.get("generators")
        hs = data.get("halfspaces")
        return cls(
            dim,
            generators=None if gens is None else [QVector.from_json(v) for v in gens],
            halfspaces=None if hs is None else [QVector.from_json(v) for v in hs],
        )


def member(w: Wedge, x: QVector) -> bool:
    """Whether x belongs to the wedge (a.x >= 0 for every halfspace a)."""
    return w.member(x)


def wedge_sum(ws: Sequence[Wedge]) -> Wedge:
    """Smallest wedge containing every wedge in ``ws`` (union of generators)."""
    dim = _common_dim(ws)
    gens = []
    seen = set()
    for w in ws:
        for g in w.generators:
            p = _primitive(g)
            if p.entries not in seen:
                seen.add(p.entries)
                gens.append(p)
    return Wedge(dim, generators=gens)


def intersect(ws: Sequence[Wedge]) -> Wedge:
    """Intersection of wedges (union of halfspace systems)."""
    dim = _common_dim(ws)
    hs = []
    seen = set()
    for w in ws:
        for a in w.halfspaces:
            p = _primitive(a)
            if p.entries not in seen:
                seen.add(p.entries)
                hs.append(p)
    return Wedge(dim, halfspaces=hs)


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
