"""Positive operators between wedge-ordered spaces and their multi-suprema.

Operators are plain QMatrix values (codomain_dim x domain_dim). The heart
of the module is op_msup: the pointwise supremum values

    sup { sum_i T_i(y_i) : y_i in W_i, sum_i y_i = x }

are computed by exact LP for each generator x of the sum wedge, as
``wedge_sum`` lists them, each as a point of U, the complement of the
codomain wedge's lineality that ``projections`` projects onto, and
assembled into a linear representative. When the domain family lacks
the decomposition property this assembly can be impossible, and the
failure is reported instead of silently returning a wrong answer.

The values go through the dual LP of each normal of the codomain wedge,
whose constraints do not depend on x (see rk_value): rk_value and op_msup
share one q-variable session per normal for every x. Multi-bounds of the
operators are those of the family (vec T_i, L(W_i, V)) in the multiorder
layer. The primal decomposition system remains only in rdp_check (which
also answers fs_decompose, over coordinate wedges) and rdp_search, in
transportation form: the sums fix the last row and column of z, so it
has >= rows only. It is one parametric system (``_rdp_system``, its
only builder), an ``lp.Warm`` with no objective: rows that depend only
on m and the sorted wedge multiset, and right-hand sides -a . c_ij
linear in theta = (xs, ys) (``_blocks``). rdp_check reads its z off
the point of the basis ``Warm.solve`` gives. rdp_search keeps one
``Warm`` of it per multiset and reads only its feasibility verdicts, so
that most trials run no LP and none builds a point. Its trials stay in
ints: members are drawn as int numerators over 2, reading
``getrandbits`` in place, from generator numerators read once per wedge
and once per sum wedge, the last x and its membership in the sum wedge
are int dot products, ``Warm.rhs`` takes theta so, and ``QVector``s are
built only for the instance reported.

The witness of the values, b . z = s_b for every normal b of V, is the
particular solution of a linear system (``linalg.solve_linear``); no
simplex runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul, sub
from typing import Iterator, Mapping, Sequence

from .errors import (
    InconsistentValues,
    InternalInvariantError,
    InvalidInstance,
    NoMultiSupremum,
    NotInSumWedge,
    NotMultiBoundedAbove,
    NotMultiBoundedBelow,
    RDPViolated,
    ZeroSpace,
)
from .linalg import (
    QMatrix, QVector, _common, _dots, _pivot_columns, complement_basis, matrix_inverse, nullspace, solve_linear,
)
from .lp import Session, Unbounded, Warm
from .multiorder import MultiSupSet, TranslatedWedge, _trials, multi_bounded_above
from .wedges import Wedge, coordinate_wedge, intersect, is_cone, is_generating, lineality, wedge_sum

LinearOperator = QMatrix


@dataclass(frozen=True)
class ProjectionPair:
    """Complementary projections: p_d onto D(V), p_u = I - p_d onto U."""

    p_d: QMatrix
    p_u: QMatrix


@dataclass(frozen=True)
class OperatorMSupResult:
    """Multi-supremum set of operators: representative + span(lineality_ops)."""

    representative: QMatrix
    lineality_ops: tuple[QMatrix, ...]

    @property
    def is_proper(self) -> bool:
        return not self.lineality_ops

    def to_json(self) -> dict:
        return {
            "representative": self.representative.to_json(),
            "lineality_ops": [t.to_json() for t in self.lineality_ops],
        }


def op_is_positive(t: QMatrix, w: Wedge, v: Wedge) -> bool:
    """Whether T(W) is contained in V, tested on the generators of W."""
    if t.cols != w.dim or t.rows != v.dim:
        raise ValueError("operator shape does not match the wedges")
    return all(v.member(t.apply(g)) for g in w.generators)


def _positivity_normals(w: Wedge, v: Wedge) -> list[QVector]:
    """Normals of L(W, V) on the row-major entries of T: T -> b . T(g).

    g runs over the generators of W (outer loop), b over the halfspaces of V.
    """
    return [
        QVector._of([ba * gc for ba in b.num for gc in g.num], b.den * g.den)
        for g in w.generators
        for b in v.halfspaces
    ]


def op_wedge_lineality(ws: Sequence[Wedge], vs: Sequence[Wedge]) -> list[QMatrix]:
    """Basis of the operator subspace {T : T(sum of W_i) in D(intersection of V_j)}.

    This is the nullspace of the positivity normals of the sum wedge and V,
    read off their unique RREF, so the given sides of both serve as they are.
    """
    if not ws or not vs:
        raise ValueError("need at least one domain wedge and one codomain wedge")
    q = ws[0].dim
    p = vs[0].dim
    flat_basis = nullspace(QMatrix._of(_positivity_normals(wedge_sum(ws), intersect(vs)), p * q))
    return [
        QMatrix._of([QVector._of(v.num[i * q : (i + 1) * q], v.den) for i in range(p)], q)
        for v in flat_basis
    ]


def _vec(t: QMatrix) -> QVector:
    """The row-major entries of ``t`` as one vector, the coordinates of L(W, V)."""
    nums, den = _common([t.row(i) for i in range(t.rows)])
    return QVector._of([e for num in nums for e in num], den)


def op_wedge_is_cone(ws: Sequence[Wedge], vs: Sequence[Wedge]) -> bool:
    """Pointedness criterion for the intersection of operator positivity wedges."""
    if not ws or not vs:
        raise ValueError("need at least one domain wedge and one codomain wedge")
    if ws[0].dim == 0 or vs[0].dim == 0:
        raise ZeroSpace("ambient spaces must be nonzero")
    return is_generating(wedge_sum(ws)) and is_cone(intersect(vs))


def extend_additive(domain_wedge: Wedge, values: Mapping[QVector, QVector], codomain_dim: int) -> QMatrix:
    """Extend generator values to a linear map, zero on a standard complement.

    Picks a maximal independent subset of the wedge's generators (in
    listed order), solves for a matrix matching it, and verifies that the
    remaining generators agree; raises InconsistentValues otherwise. When
    the wedge is generating the complement is empty, so the extension is
    the unique one.
    """
    dim = domain_wedge.dim
    gens = domain_wedge.generators
    for g in gens:
        if g not in values:
            raise ValueError("a value is required for every generator of the wedge")
        if values[g].dim != codomain_dim:
            raise ValueError("every value must have codomain_dim entries")
    candidates = [*gens, *(QVector.unit(dim, k) for k in range(dim))]
    pivots = _pivot_columns(candidates, dim)
    m = QMatrix._of([candidates[p] for p in pivots], dim).transpose()
    zero = QVector.zero(codomain_dim)
    # The values are V's columns: its transpose takes them as rows, unparsed.
    v = QMatrix._of([values[gens[p]] if p < len(gens) else zero for p in pivots], codomain_dim)
    t = v.transpose() @ matrix_inverse(m)
    for g in gens:
        if t.apply(g) != values[g]:
            raise InconsistentValues(
                "generator values are not the restriction of any linear map"
            )
    return t


def projections(v_wedge: Wedge) -> ProjectionPair:
    """Projection onto D(V) along the greedy standard complement, and I minus it."""
    p = v_wedge.dim
    d_basis = lineality(v_wedge)
    comp = complement_basis(d_basis, p)
    m = QMatrix._of([*d_basis, *comp], p).transpose()
    # p_d m = [D | 0], the lineality basis D and then zero on the complement.
    d_zero = QMatrix._of([*d_basis, *(QVector.zero(p) for _ in comp)], p).transpose()
    p_d = d_zero @ matrix_inverse(m)
    return ProjectionPair(p_d, QMatrix.identity(p) - p_d)


@dataclass(frozen=True)
class RDPInstance:
    """Data of a decomposition instance: wedges W_j, vectors x_i and y_j.

    Invariants: y_j in W_j, every x_i in the sum of the W_j, and the two
    sums agree.
    """

    wedges: tuple[Wedge, ...]
    xs: tuple[QVector, ...]
    ys: tuple[QVector, ...]

    @property
    def dim(self) -> int:
        return self.wedges[0].dim

    def _validate(self) -> None:
        """Every invariant but the x_i in the sum wedge, which ``rdp_check`` tests only without a z."""
        if not self.wedges or not self.xs:
            raise InvalidInstance("need at least one wedge and one x")
        if len(self.wedges) != len(self.ys):
            raise InvalidInstance("one y per wedge is required")
        dim = self.dim
        if any(w.dim != dim for w in self.wedges) or any(
            v.dim != dim for v in self.xs + self.ys
        ):
            raise InvalidInstance("mismatched dimensions")
        for w, y in zip(self.wedges, self.ys):
            if not w.member(y):
                raise InvalidInstance("some y_j is not a member of its wedge")
        if sum(self.xs, QVector.zero(dim)) != sum(self.ys, QVector.zero(dim)):
            raise InvalidInstance("sum of xs does not equal sum of ys")

    def to_json(self) -> dict:
        return {
            "wedges": [w.to_json() for w in self.wedges],
            "xs": [x.to_json() for x in self.xs],
            "ys": [y.to_json() for y in self.ys],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RDPInstance":
        return cls(
            tuple(Wedge.from_json(w) for w in data["wedges"]),
            tuple(QVector.from_json(x) for x in data["xs"]),
            tuple(QVector.from_json(y) for y in data["ys"]),
        )


def decomposition_ok(inst: RDPInstance, z: Sequence[Sequence[QVector]]) -> bool:
    """Check a witness matrix: memberships plus exact row and column sums."""
    m, n, dim = len(inst.xs), len(inst.wedges), inst.dim
    if len(z) != m or any(len(row) != n for row in z):
        return False
    for row in z:
        for w, zij in zip(inst.wedges, row):
            if not w.member(zij):
                return False
    for i in range(m):
        if sum(z[i], QVector.zero(dim)) != inst.xs[i]:
            return False
    for j in range(n):
        if sum((z[i][j] for i in range(m)), QVector.zero(dim)) != inst.ys[j]:
            return False
    return True


def rdp_check(inst: RDPInstance) -> list[list[QVector]] | None:
    """Find z_ij in W_j with row sums x_i and column sums y_j, or None.

    The instance is validated, and its sums solved in closed form as a
    transportation system (Hitchcock 1941, The distribution of a product
    from several sources to numerous localities; see ``_blocks``). Each
    halfspace of W_j on each z_ij is then a >= row in t, and exact LP
    feasibility decides; None means no decomposition exists. With m = 1
    or n = 1 there is no variable and z is fixed; else z is a free witness,
    where the dual simplex stops.
    """
    # A decomposition puts every x_i in the sum wedge, so that check, a
    # conversion of the sum, runs only when there is none.
    inst._validate()
    m, n, dim = len(inst.xs), len(inst.ys), inst.dim
    theta, warm = (*inst.xs, *inst.ys), _rdp_system(inst.wedges, m)
    rhs = warm.rhs(*_common(theta))
    basis = warm.solve(rhs)[1]
    if basis is None:
        if not all(map(wedge_sum(inst.wedges).member, inst.xs)):
            raise InvalidInstance("some x_i is outside the sum of the wedges")
        return None
    point = basis.point(rhs)
    t = [QVector._of(point.num[k * dim : (k + 1) * dim], point.den) for k in range((m - 1) * (n - 1))]
    z = []
    for _, cs, ts in _blocks(m, n):
        parts = [(s, theta[p]) for s, p in cs] + [(s, t[k]) for s, k in ts]
        z.append(sum([v if s > 0 else -v for s, v in parts], QVector.zero(dim)))
    return [z[i : i + n] for i in range(0, len(z), n)]


def _blocks(m: int, n: int) -> Iterator[tuple[int, list[tuple[int, int]], list[tuple[int, int]]]]:
    """(j, [(sign, p)], [(sign, k)]) per block, row-major: z_ij = c_ij + sum of sign * t_k.

    c_ij is the sum of sign * theta_p over theta = (x_1, ..., x_m, y_1,
    ..., y_n). t_k = z_ij, k = i * (n - 1) + j, for i < m - 1 and j < n - 1;
    the sums fix z_in = x_i - sum_j t_ij, z_mj = y_j - sum_i t_ij,
    z_mn = y_n - sum_{i<m} x_i + sum t.
    """
    for i in range(m):
        for j in range(n):
            if i < m - 1 and j < n - 1:
                yield j, [], [(1, i * (n - 1) + j)]
            elif i < m - 1:
                yield j, [(1, i)], [(-1, i * (n - 1) + k) for k in range(n - 1)]
            elif j < n - 1:
                yield j, [(1, m + j)], [(-1, k * (n - 1) + j) for k in range(m - 1)]
            else:
                yield j, [(1, m + j), *[(-1, k) for k in range(m - 1)]], [(1, k) for k in range((m - 1) * (n - 1))]


def _rdp_system(wedges: Sequence[Wedge], m: int) -> Warm:
    """The rows a . (c_ij + sum of sign * t_k) >= 0 in t, for each halfspace a of W_j, as a system in theta.

    Row (i, j, a) reads a . sum of sign * t_k >= -a . c_ij, whose
    right-hand side is linear in theta = (x_1, ..., x_m, y_1, ..., y_n)
    (``_blocks``). The rows depend only on m and the wedges.
    """
    n, dim = len(wedges), wedges[0].dim
    nt = (m - 1) * (n - 1) * dim
    rows, terms = [], []
    for j, cs, ts in _blocks(m, n):
        for a in wedges[j].halfspaces:
            num = [0] * nt
            for s, k in ts:
                num[k * dim : (k + 1) * dim] = [s * e for e in a.num]
            # Each row keeps its halfspace's den: the simplex must see the values as given.
            rows.append(QVector._of(num, a.den))
            terms.append((a, [(-s, p) for s, p in cs]))
    return Warm(nt, rows, terms)


def _random_member(rng: random.Random, gens: Sequence[Sequence[int]], dim: int) -> list[int]:
    """Random nonnegative combination p/q (p in 0..3, then q in 1..2) of a
    wedge's canonical generators ``gens``, their int numerators (each has
    ``den == 1``), as int numerators over 2; ``dim`` entries.

    The draws are those of ``rng.randint(0, 3)`` and ``randint(1, 2)`` per
    generator, in generator order, read from ``getrandbits`` as they read
    it (see ``multiorder._trials``).
    """
    draw, coefficients = rng.getrandbits, []
    for _ in gens:
        p = draw(3)
        while p >= 4:
            p = draw(3)
        q = draw(2)
        while q >= 2:
            q = draw(2)
        coefficients.append(p * (2 // (q + 1)))
    return [sum(map(mul, coefficients, column)) for column in zip(*gens)] if gens else [0] * dim


def rdp_search(
    wedges: Sequence[Wedge], m: int, n: int, seed: int = 0, budget: int = 500
) -> RDPInstance | None:
    """Randomized refutation of the (m, n) decomposition property.

    Samples y_j from n wedges (drawn with repetition), splits their sum
    into m pieces inside the sum wedge, and returns the first instance
    whose rdp_check system is infeasible; None when the budget runs out.
    Only the verdict of ``lp.Warm`` is read: no trial assembles a z.
    The sum wedge is built once per set of distinct wedges drawn, and
    each wedge's generators and the sum's generators and normals are
    read once, as ints. Deterministic for a fixed seed. Each instance is
    checked in sorted wedge order, its ys with them (see
    ``multiorder._trials``).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    dim = wedges[0].dim if wedges else 0
    # Numerators of each wedge's canonical generators; per set of distinct
    # wedges, those of the sum's (read only when xs are drawn) and of its normals.
    gens: dict[int, list[tuple[int, ...]]] = {}
    sums: dict[tuple[int, ...], tuple[list, list]] = {}
    for rng, js, order, warm in _trials(wedges, n, seed, budget, lambda ws: _rdp_system(ws, m)):
        key = tuple(sorted(set(js)))
        if key not in sums:
            sw = wedge_sum([wedges[j] for j in key])
            for j in key:
                if j not in gens:
                    gens[j] = [g.num for g in wedges[j].canonical_generators]
            sums[key] = ([g.num for g in sw.canonical_generators] if m > 1 else [], [a.num for a in sw.halfspaces])
        sum_gens, normals = sums[key]
        ys = [_random_member(rng, gens[j], dim) for j in js]
        xs = [_random_member(rng, sum_gens, dim) for _ in range(m - 1)]
        last = [sum(column) for column in zip(*ys)]
        for x in xs:
            last = list(map(sub, last, x))
        if any(sum(map(mul, a, last)) < 0 for a in normals):
            continue
        xs.append(last)
        if not warm.solve(warm.rhs([*xs, *(ys[p] for p in order)], 2))[0]:
            return RDPInstance(
                tuple(wedges[j] for j in js),
                tuple([QVector._of(x, 2) for x in xs]),
                tuple([QVector._of(y, 2) for y in ys]),
            )
    return None


def fs_decompose(
    s_size: int,
    js: Sequence[int],
    xs: Sequence[QVector],
    ys: Sequence[QVector],
) -> list[list[QVector]]:
    """``rdp_check``'s z over the coordinate wedges W_j = {f : f(s_j) >= 0}.

    The wedges are ``coordinate_wedge(s_size, js[j])``. After the checks of
    the indices and dimensions here, ``rdp_check`` raises the errors of any
    instance: y_j outside W_j, unequal sums, then x_i outside the sum
    wedge. Coordinate wedges always decompose, so a valid instance without
    a z raises InternalInvariantError.
    """
    if not xs or not ys or len(js) != len(ys):
        raise InvalidInstance("need xs, ys, and one wedge index per y")
    if any(not (0 <= j < s_size) for j in js):
        raise InvalidInstance("wedge index out of range")
    if any(v.dim != s_size for v in list(xs) + list(ys)):
        raise InvalidInstance("vector dimension must equal the index set size")
    z = rdp_check(RDPInstance(tuple(coordinate_wedge(s_size, j) for j in js), tuple(xs), tuple(ys)))
    if z is None:
        raise InternalInvariantError("a valid instance over coordinate wedges has no decomposition")
    return z


def _check_rk_shapes(
    ops: Sequence[QMatrix], wedges: Sequence[Wedge], v_wedge: Wedge
) -> tuple[int, int]:
    if not ops or len(ops) != len(wedges):
        raise ValueError("need one operator per domain wedge")
    q = wedges[0].dim
    p = v_wedge.dim
    if any(w.dim != q for w in wedges):
        raise ValueError("domain wedges have mismatched dimensions")
    if any(t.cols != q or t.rows != p for t in ops):
        raise ValueError("operator shapes do not match the wedges")
    return p, q


def rk_value(
    ops: Sequence[QMatrix],
    wedges: Sequence[Wedge],
    v_wedge: Wedge,
    x: QVector,
) -> MultiSupSet:
    """Multi-supremum over V of { sum_i T_i(y_i) : y_i in W_i, sum y_i = x }.

    For each canonical normal b of V the supremum s_b(x) of
    b . sum T_i(y_i) over the decompositions of x is, by LP duality,

        s_b(x) = min { u . x : u . g >= b . T_i(g) for g in gens(W_i), every i },

    one q-variable session per normal whose constraints do not depend on x.
    A point z with b . z = s_b for every b, together with the lineality of
    V, describes the full multi-supremum set. When a dual is infeasible or
    V has no normals, x is tested on the dual of b = 0, so NotInSumWedge
    takes precedence over NotMultiBoundedAbove.
    """
    p, q = _check_rk_shapes(ops, wedges, v_wedge)
    if x.dim != q:
        raise ValueError("x dimension does not match the domain")
    images = _images(ops, wedges)
    try:
        witness = _rk_sups(images, q, v_wedge, [x])[0]
    except NotMultiBoundedAbove:
        _require_in_sum(images, q, p, x)
        raise
    if not v_wedge.canonical_halfspaces:
        _require_in_sum(images, q, p, x)
    return MultiSupSet(witness, v_wedge.lineality_basis)


def _images(ops: Sequence[QMatrix], wedges: Sequence[Wedge]) -> list[tuple[QVector, QVector]]:
    """(g, T_i g) for g in gens(W_i), every i: each image is computed once per call."""
    return [(g, t.apply(g)) for t, w in zip(ops, wedges) for g in w.generators]


def _dual_session(images: list[tuple[QVector, QVector]], q: int, b: QVector) -> Session:
    """Rows u . g >= b . T_i(g) = (T_i^T b) . g over ``images``: min u . x is s_b(x).

    At b = 0 it is unbounded at x exactly when x lies outside the sum wedge.
    """
    return Session(q, [g for g, _ in images], _dots([(b, tg) for _, tg in images]))


def _require_in_sum(images: list[tuple[QVector, QVector]], q: int, p: int, x: QVector) -> None:
    if isinstance(_dual_session(images, q, QVector.zero(p)).minimize(x), Unbounded):
        raise NotInSumWedge("x is not in the sum of the domain wedges")


def _rk_sups(
    images: list[tuple[QVector, QVector]], q: int, v_wedge: Wedge, xs: Sequence[QVector]
) -> list[QVector]:
    """A witness z with b . z = s_b(x) for every canonical normal b of V, per x.

    The dual session of each normal b is minimized at every x. The values
    s_b(x) are unique, so z is the particular solution of the equations
    b . z = s_b(x) (``solve_linear``, on their unique reduced echelon form).
    It is zero off the pivot columns of that form, which are the greedy
    complement of D(V) that ``projections`` takes, so ``p_u`` fixes it.
    An infeasible dual, which does not depend on x, raises
    NotMultiBoundedAbove; a dual unbounded at x means x is outside the sum
    wedge. With no normals no x is read, and every witness is 0.
    """
    normals = v_wedge.canonical_halfspaces
    sessions = []
    for b in normals:
        session = _dual_session(images, q, b)
        if not session.feasible:
            raise NotMultiBoundedAbove("the value set is unbounded in the V order")
        sessions.append(session)

    witnesses = []
    for x in xs:
        sups = []
        for session in sessions:
            res = session.minimize(x)
            if isinstance(res, Unbounded):
                raise NotInSumWedge("x is not in the sum of the domain wedges")
            sups.append(res.value)
        solution = solve_linear(QMatrix._of(normals, v_wedge.dim), QVector(sups))
        if solution is None:
            raise NoMultiSupremum(
                "the codomain wedge admits no multi-supremum for this value set"
            )
        witnesses.append(solution.particular)
    return witnesses


def op_msup(
    ops: Sequence[QMatrix], wedges: Sequence[Wedge], v_wedge: Wedge
) -> OperatorMSupResult:
    """Multi-supremum of (T_i, L_{W_i,V}) as representative + operator lineality.

    The family (vec T_i, L(W_i, V)) on matrix entries decides in the
    multiorder layer whether any operator dominates every T_i
    (NotMultiBoundedAbove otherwise). The representative is zero on the
    complement of the span of the sum wedge; the full multi-supremum set
    is recovered by adding the span of ``lineality_ops``. The values are
    taken at the generators that ``wedge_sum`` lists, unconverted: a
    dominating additive extension equals the superadditive values on the
    whole sum, so any generating set gives the same answer. Raises
    NoMultiSupremum when the values at some generator have no
    multi-supremum in V. Raises RDPViolated when the supremum values fail
    to extend additively, which certifies that the domain family lacks
    the required decomposition property. An additive extension rep
    dominates the family: ``wedge_sum`` keeps every generator g of every
    W_i, so b . rep(g) = s_b(g) >= b . T_i(g) for each canonical normal b
    of V, and every normal of V is a nonnegative combination of those.
    """
    p, q = _check_rk_shapes(ops, wedges, v_wedge)
    family = [
        TranslatedWedge(_vec(t), Wedge(p * q, halfspaces=_positivity_normals(w, v_wedge)))
        for t, w in zip(ops, wedges)
    ]
    if multi_bounded_above(family) is None:
        raise NotMultiBoundedAbove("no operator dominates the whole family")
    sw = wedge_sum(wedges)
    values = dict(zip(sw.generators, _rk_sups(_images(ops, wedges), q, v_wedge, sw.generators)))
    try:
        rep = extend_additive(sw, values, p)
    except InconsistentValues as exc:
        raise RDPViolated(
            "supremum values are not additive on the generators of the sum wedge"
        ) from exc
    return OperatorMSupResult(rep, tuple(op_wedge_lineality(wedges, [v_wedge])))


def functional_msup(
    phis: Sequence[QVector], wedges: Sequence[Wedge]
) -> OperatorMSupResult:
    """Specialization of op_msup to functionals (codomain Q with wedge Q+)."""
    if not phis:
        raise ValueError("need at least one functional")
    if len(phis) != len(wedges):
        raise ValueError("need one functional per domain wedge")
    if any(phi.dim != w.dim for phi, w in zip(phis, wedges)):
        raise ValueError(
            f"functional lengths {[phi.dim for phi in phis]} do not match "
            f"the wedge dimensions {[w.dim for w in wedges]}"
        )
    ops = [QMatrix._of([phi], phi.dim) for phi in phis]
    ray = QVector.unit(1, 0)
    return op_msup(ops, wedges, Wedge(1, generators=[ray], halfspaces=[ray]))


def op_minf(
    ops: Sequence[QMatrix], wedges: Sequence[Wedge], v_wedge: Wedge
) -> OperatorMSupResult:
    """Multi-infimum via negation of the multi-supremum of the negated family."""
    try:
        res = op_msup([-t for t in ops], wedges, v_wedge)
    except NotMultiBoundedAbove as exc:
        raise NotMultiBoundedBelow("no operator is dominated by the whole family") from exc
    return OperatorMSupResult(-res.representative, res.lineality_ops)
