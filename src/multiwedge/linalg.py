"""Exact linear algebra over arbitrary-precision rationals.

A vector is int numerators over one positive int denominator, reduced by
their gcd: the invariant of the integer rows (``_Row``) that every
elimination here runs on. A matrix is a tuple of such vectors, its rows.
Every computation in this package is exact: equality means equality, no
tolerances anywhere. Scalars serialize as ``"p/q"`` (or ``"p"`` when the
denominator is 1) with the sign carried by the numerator.

All values are immutable after construction and all functions are pure,
so everything here can be shared freely between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Iterable, Sequence

Q = Fraction

# "p" or "p/q" with q > 0, captured as p and q; no decimals or exponents
# ("1e10000000" would take unbounded time to expand).
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def qparse(value: object) -> Fraction:
    """Parse a rational from ``"p/q"`` / ``"p"`` strings, ints (not bools) or Fractions."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError(f'not a rational "p" or "p/q" with q > 0: {value!r}')
        p, q = match.groups()
        return Fraction(int(p), int(q or 1))
    raise ValueError(f"cannot parse a rational from {value!r}")


def _json_array(value: object, name: str) -> list:
    """An array read from JSON: it must be a list, not a string or an object."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON array, got {value!r}")
    return value


def _json_size(value: object, name: str) -> int:
    """A size read from JSON: it must be an integer, and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


class QVector:
    """Immutable vector with rational entries: int numerators ``num`` over one ``den``.

    ``den > 0`` and ``gcd(den, *num) == 1``, so every vector has exactly one
    representation; the ``Fraction`` tuple ``entries`` is built on first use.
    """

    __slots__ = ("num", "den", "_entries")

    def __init__(self, entries: Iterable[object]):
        # Reduced fractions over their least common denominator share no factor with it.
        fs = [qparse(e) for e in entries]
        self.den = den = lcm(*[e.denominator for e in fs])
        self.num, self._entries = tuple([e.numerator * (den // e.denominator) for e in fs]), None

    @classmethod
    def _of(cls, num: Sequence[int], den: int = 1) -> "QVector":
        """The vector ``num / den`` for ints and ``den > 0``, reduced by the gcd, unparsed."""
        g = gcd(den, *num)
        v = object.__new__(cls)
        v.num = tuple(num) if g == 1 else tuple([e // g for e in num])
        v.den, v._entries = den // g, None
        return v

    @classmethod
    def zero(cls, dim: int) -> "QVector":
        return cls._of((0,) * dim)

    @classmethod
    def unit(cls, dim: int, index: int) -> "QVector":
        return cls._of([int(i == index) for i in range(dim)])

    @property
    def entries(self) -> tuple[Fraction, ...]:
        if self._entries is None:
            self._entries = tuple([Fraction(e, self.den) for e in self.num])
        return self._entries

    @property
    def dim(self) -> int:
        return len(self.num)

    def dot(self, other: "QVector") -> Fraction:
        if len(self.num) != len(other.num):
            raise ValueError("dimension mismatch in dot product")
        return Fraction(sum(map(mul, self.num, other.num)), self.den * other.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def _combine(self, other: "QVector", op, what: str) -> "QVector":
        if len(self.num) != len(other.num):
            raise ValueError(f"dimension mismatch in {what}")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return QVector._of([op(a * x, b * y) for x, y in zip(self.num, other.num)], den)

    def __add__(self, other: "QVector") -> "QVector":
        return self._combine(other, add, "vector sum")

    def __sub__(self, other: "QVector") -> "QVector":
        return self._combine(other, sub, "vector difference")

    def __neg__(self) -> "QVector":
        return QVector._of(tuple(map(neg, self.num)), self.den)

    def __mul__(self, scalar: object) -> "QVector":
        s = qparse(scalar)
        return QVector._of([s.numerator * e for e in self.num], s.denominator * self.den)

    __rmul__ = __mul__

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __len__(self) -> int:
        return len(self.num)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QVector) and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"QVector([{', '.join(str(e) for e in self.entries)}])"

    def to_json(self) -> list[str]:
        return [str(e) for e in self.entries]

    @classmethod
    def from_json(cls, data: list) -> "QVector":
        return cls(_json_array(data, "a vector"))


def _dots(pairs: Sequence[tuple[QVector, QVector]]) -> QVector:
    """The exact dot products a . v of ``pairs``, in ints over one lcm denominator."""
    dens = [a.den * v.den for a, v in pairs]
    den = lcm(*dens)
    return QVector._of([sum(map(mul, a.num, v.num)) * (den // d) for (a, v), d in zip(pairs, dens)], den)


class QMatrix:
    """Immutable matrix with rational entries: a tuple of ``QVector`` rows.

    Every row holds the vector invariant, so every matrix has exactly one
    representation; the row-major ``Fraction`` tuple ``entries`` is built
    on first use.
    """

    __slots__ = ("rows", "cols", "_rows", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[object]):
        entries = list(entries)
        if min(rows, cols) < 0 or len(entries) != rows * cols:
            raise ValueError("entry count does not match matrix shape")
        self.rows, self.cols, self._entries = rows, cols, None
        self._rows = tuple([QVector(entries[i * cols : (i + 1) * cols]) for i in range(rows)])

    @classmethod
    def _of(cls, rows: Sequence[QVector], cols: int) -> "QMatrix":
        """The matrix of ``rows``, QVectors of dimension ``cols``, unparsed."""
        m = object.__new__(cls)
        m.rows, m.cols, m._rows, m._entries = len(rows), cols, tuple(rows), None
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable[object]]) -> "QMatrix":
        rows = [QVector(r) for r in rows]
        if not rows:
            raise ValueError("from_rows requires at least one row")
        if any(r.dim != rows[0].dim for r in rows):
            raise ValueError("ragged rows")
        return cls._of(rows, rows[0].dim)

    @classmethod
    def from_cols(cls, cols: Sequence[Iterable[object]], nrows: int | None = None) -> "QMatrix":
        cols = [QVector(c) for c in cols]
        if not cols:
            if nrows is None:
                raise ValueError("from_cols with no columns needs nrows")
            return cls(nrows, 0, [])
        if any(c.dim != (cols[0].dim if nrows is None else nrows) for c in cols):
            raise ValueError("ragged columns, or columns of other than nrows entries")
        return cls._of(cols, cols[0].dim).transpose()

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._of([QVector.unit(n, i) for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls._of([QVector.zero(cols)] * rows, cols)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        if self._entries is None:
            self._entries = tuple([e for r in self._rows for e in r.entries])
        return self._entries

    def row(self, i: int) -> QVector:
        return self._rows[i]

    def col(self, j: int) -> QVector:
        # Star-args from a list, not a generator: a tuple built from a
        # generator is resized, which moves freed tuples between CPython's
        # per-size free lists and grows the heap over many calls.
        den = lcm(*[r.den for r in self._rows])
        return QVector._of([r.num[j] * (den // r.den) for r in self._rows], den)

    def row_list(self) -> list[list[Fraction]]:
        return [list(r.entries) for r in self._rows]

    def apply(self, v: QVector) -> QVector:
        if v.dim != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return _dots([(r, v) for r in self._rows])

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        # Row i of the product is other^T applied to row i.
        t = other.transpose()
        return QMatrix._of([t.apply(r) for r in self._rows], other.cols)

    def transpose(self) -> "QMatrix":
        return QMatrix._of([self.col(j) for j in range(self.cols)], self.rows)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._same_shape(other)
        return QMatrix._of([a + b for a, b in zip(self._rows, other._rows)], self.cols)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._same_shape(other)
        return QMatrix._of([a - b for a, b in zip(self._rows, other._rows)], self.cols)

    def __neg__(self) -> "QMatrix":
        return QMatrix._of([-r for r in self._rows], self.cols)

    def __mul__(self, scalar: object) -> "QMatrix":
        s = qparse(scalar)
        return QMatrix._of([r * s for r in self._rows], self.cols)

    __rmul__ = __mul__

    def _same_shape(self, other: "QMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape mismatch")

    def __eq__(self, other: object) -> bool:
        # Equal row tuples have equal lengths; cols tells 0 x m from 0 x n.
        return isinstance(other, QMatrix) and self.cols == other.cols and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.cols, self._rows))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in r.entries) for r in self._rows)
        return f"QMatrix({self.rows}x{self.cols}: [{body}])"

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": [r.to_json() for r in self._rows]}

    @classmethod
    def from_json(cls, data: dict) -> "QMatrix":
        rows, cols = _json_size(data["rows"], "rows"), _json_size(data["cols"], "cols")
        entries = [_json_array(r, "a matrix row") for r in _json_array(data["entries"], "entries")]
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("matrix entries do not match declared shape")
        return cls(rows, cols, [e for r in entries for e in r])


class _Row:
    """Tableau row: the value of column j is ``num[j] / den``, ``den > 0``."""

    __slots__ = ("num", "den")

    def __init__(self, num: list[int], den: int):
        self.num = num
        self.den = den


def _nonzero(row):
    return [j for j, e in enumerate(row.num) if e]


def _eliminate(row, prow, col, nz):
    """row -= row[col] * prow, for a pivot row with prow[col] == 1.

    ``nz`` lists the nonzero columns of prow; only those change beyond the
    common rescaling of the numerators.
    """
    pnum, pden = prow.num, prow.den
    # (R/D) - (R[col]/D) (P/pd) = (R (pd/g) - (R[col]/g) P) / (D pd/g)
    f = row.num[col]
    g = gcd(f, pden)
    f //= g
    scale = pden // g
    num = row.num if scale == 1 else [e * scale for e in row.num]
    for j in nz:
        num[j] -= f * pnum[j]
    den = row.den * scale
    g = gcd(den, *num)
    if g > 1:
        num = [e // g for e in num]
        den //= g
    row.num = num
    row.den = den


def _pivot(tableau, reduced, leave, enter):
    # Exact pivot on integer rows; the elimination touches only the nonzero
    # pivot-row columns, which dominate running time on these sparse
    # tableaus. ``reduced`` may be None when no cost row is kept.
    prow = tableau[leave]
    piv = prow.num[enter]
    if piv != prow.den:
        # Divide the row by its pivot value piv/den: num / piv.
        num = prow.num if piv > 0 else [-e for e in prow.num]
        g = gcd(*num)
        prow.num = num if g == 1 else [e // g for e in num]
        prow.den = abs(piv) // g
    nz = _nonzero(prow)
    for i, row in enumerate(tableau):
        if i != leave and row.num[enter]:
            _eliminate(row, prow, enter, nz)
    if reduced is not None and reduced.num[enter]:
        _eliminate(reduced, prow, enter, nz)


def _rref_ints(rows: list[_Row]) -> list[int]:
    """Reduce integer ``rows`` in place to reduced row echelon form; return pivot columns.

    This is the package's one elimination loop. Each column pivots on the
    first row at or below the current one that is nonzero there.
    """
    pivots: list[int] = []
    for col in range(len(rows[0].num) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i].num[col]), None)
        if pivot_row is not None:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            _pivot(rows, None, r, col)
            pivots.append(col)
    return pivots


def rref(m: QMatrix) -> tuple[QMatrix, list[int]]:
    """Reduced row echelon form of ``m`` and the list of pivot columns."""
    rows = [_Row(list(r.num), r.den) for r in m._rows]
    pivots = _rref_ints(rows)
    return QMatrix._of([QVector._of(r.num, r.den) for r in rows], m.cols), pivots


@dataclass(frozen=True)
class Solution:
    """A particular solution of A x = b together with a nullspace basis."""

    particular: QVector
    nullspace: tuple[QVector, ...]


def _nullspace_from_rref(rows: list[_Row], pivots: list[int], ncols: int) -> list[QVector]:
    """Canonical nullspace basis from reduced rows; columns from ``ncols`` on are not read."""
    pivot_set = set(pivots)
    den = lcm(*[rows[r].den for r in range(len(pivots))])  # a list: see QMatrix.col
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = den
        for row, pc in zip(rows, pivots):
            v[pc] = -row.num[free] * (den // row.den)
        basis.append(QVector._of(v, den))
    return basis


def nullspace(m: QMatrix) -> list[QVector]:
    """Canonical basis of {x : m x = 0} (from the reduced echelon form)."""
    rows = [_Row(list(r.num), r.den) for r in m._rows]
    return _nullspace_from_rref(rows, _rref_ints(rows), m.cols)


def solve_linear(a: QMatrix, b: QVector) -> Solution | None:
    """Solve A x = b exactly.

    Returns a particular solution (free variables set to zero) and a basis
    of the nullspace of A, or None when the system is inconsistent.
    """
    if a.rows != b.dim:
        raise ValueError("rows(A) must equal dim(b)")
    # Row i of [A | b] over the denominator of A's row i times that of b.
    rows = [
        _Row([*(e * b.den for e in r.num), be * r.den], r.den * b.den)
        for r, be in zip(a._rows, b.num)
    ]
    pivots = _rref_ints(rows)
    if pivots and pivots[-1] == a.cols:
        return None
    den = lcm(*[row.den for row in rows[: len(pivots)]])  # a list: see QMatrix.col
    particular = [0] * a.cols
    for row, pc in zip(rows, pivots):
        particular[pc] = row.num[a.cols] * (den // row.den)
    return Solution(QVector._of(particular, den), tuple(_nullspace_from_rref(rows, pivots, a.cols)))


def _pivot_columns(columns: Sequence[QVector], dim: int) -> list[int]:
    """Pivot columns of the RREF of the dim x len(columns) matrix of ``columns``.

    A column is a pivot exactly when it is independent of the columns
    before it, so the pivots are the greedy independent subset in list
    order. Scaling a column by its positive ``den`` keeps the pivots.
    """
    return _rref_ints([_Row([v.num[i] for v in columns], 1) for i in range(dim)])


def independent_indices(vectors: Sequence[QVector], dim: int) -> list[int]:
    """Greedy maximal linearly independent subset, scanning in list order."""
    return _pivot_columns(vectors, dim)


def span_rank(vectors: Sequence[QVector], dim: int) -> int:
    return len(_pivot_columns(vectors, dim))


def span_contains(vectors: Sequence[QVector], x: QVector, dim: int) -> bool:
    """Whether x lies in the linear span of ``vectors``."""
    return len(vectors) not in _pivot_columns([*vectors, x], dim)


def complement_basis(subspace_basis: Sequence[QVector], ambient_dim: int) -> list[QVector]:
    """Greedy standard-basis extension of ``subspace_basis`` to all of Q^n.

    Scans e_1, e_2, ... in index order and keeps each standard vector that
    is independent of everything kept so far. The fixed scan order makes
    every projection built on top reproducible.
    """
    cols = [*subspace_basis, *(QVector.unit(ambient_dim, k) for k in range(ambient_dim))]
    return [cols[p] for p in _pivot_columns(cols, ambient_dim) if p >= len(subspace_basis)]


def matrix_inverse(m: QMatrix) -> QMatrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    # Row i of [m | I] over the denominator of m's row i.
    rows = [_Row([*r.num, *(r.den * (i == j) for j in range(n))], r.den) for i, r in enumerate(m._rows)]
    if _rref_ints(rows) != list(range(n)):
        raise ValueError("matrix is singular")
    return QMatrix._of([QVector._of(row.num[n:], row.den) for row in rows], n)
