import random
from collections import Counter
from fractions import Fraction as F
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from multiwedge import (
    QMatrix,
    QVector,
    complement_basis,
    matrix_inverse,
    nullspace,
    qparse,
    rref,
    solve_linear,
    span_contains,
)
from multiwedge.linalg import independent_indices, span_rank

from conftest import GreedyEchelon, fraction_rref, gauss_solve, greedy_complement

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)


def test_qparse_formats():
    assert qparse("3/4") == F(3, 4)
    assert qparse("-2") == F(-2)
    assert qparse(5) == F(5)
    assert str(F(-3, 4)) == "-3/4"
    assert str(F(6, 3)) == "2"
    assert qparse("+3") == F(3) and qparse("-6/4") == F(-3, 2)
    assert qparse("007/010") == F(7, 10) and qparse("-0/5") == 0 and qparse("+0") == 0
    for bad in (object(), "1/0", "-3/0", "0/0", True, False, 0.5, "1e3", "1.5", "1e10000000",
                "3/-4", " 1", "1_000", "", "/2"):
        with pytest.raises(ValueError):
            qparse(bad)


@given(rationals, rationals)
def test_exact_addition_roundtrip(a, b):
    assert (a + b) - b == a


@given(rationals, rationals)
def test_exact_multiplication_roundtrip(a, b):
    if b != 0:
        assert (a * b) / b == a


def test_vector_arithmetic():
    v = QVector(["1/2", "-1"])
    w = QVector([1, 3])
    assert v + w == QVector([F(3, 2), 2])
    assert v - w == QVector([F(-1, 2), -4])
    assert 2 * v == QVector([1, -2])
    assert v.dot(w) == F(1, 2) - 3
    assert (-v).entries == (F(-1, 2), F(1))
    assert QVector.unit(3, 1) == QVector([0, 1, 0])
    assert QVector.from_json(v.to_json()) == v


def test_vector_sum_and_difference_require_equal_dimensions():
    # Like dot and the matrix operations, + and - refuse vectors of
    # different dimensions instead of truncating to the shorter one.
    for v, w in [(QVector([1, 2]), QVector([1])), (QVector([1, 2]), QVector([5])),
                 (QVector([]), QVector([F(1, 2)])), (QVector([1]), QVector([0, 0, 0]))]:
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(ValueError, match="dimension mismatch"):
                op(v, w)
            with pytest.raises(ValueError, match="dimension mismatch"):
                op(w, v)


def _spellings(rng, dim, seen):
    """One vector's entries written twice: as given, and with a common factor
    multiplied into numerator and denominator ("1/2" and "2/4")."""
    given, rewritten = [], []
    for _ in range(dim):
        pick = rng.random()
        if pick < 0.2:
            e = F(0)
        elif pick < 0.5:
            e = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        else:
            e = F(rng.randint(-9, 9), rng.randint(1, 6))
        k = rng.randint(2, 9)
        given.append(str(e) if rng.random() < 0.5 else e)
        rewritten.append(f"{e.numerator * k}/{e.denominator * k}")
        seen["negative"] += e < 0
        seen["large_den"] += e.denominator > 10**5
    seen["dim_0"] += dim == 0
    seen["zero_vector"] += all(F(e) == 0 for e in given)
    return given, rewritten


def _assert_invariant(v):
    assert v.den > 0 and gcd(v.den, *v.num) == 1
    assert all(type(e) is int for e in v.num) and len(v.num) == len(v) == v.dim
    assert v.entries == tuple(F(e, v.den) for e in v.num)


def test_vector_invariant_and_arithmetic_match_fractions():
    rng = random.Random(4242)
    seen = Counter()
    vectors = []
    for case in range(600):
        dim = 0 if case % 50 == 0 else rng.randint(1, 5)
        pair = []
        for _ in range(2):
            given, rewritten = _spellings(rng, dim, seen)
            v = QVector(given)
            _assert_invariant(v)
            assert v.entries == tuple(F(e) for e in given)
            # One value has one representation, whatever its spelling.
            again = QVector(rewritten)
            assert again == v and hash(again) == hash(v) and (again.num, again.den) == (v.num, v.den)
            assert QVector(v.entries) == v
            assert v.is_zero() == all(e == 0 for e in v.entries)
            pair.append(v)
        v, w = pair
        a, b = v.entries, w.entries
        assert (v == w) == (a == b)
        for got, want in [(v + w, [x + y for x, y in zip(a, b)]),
                          (v - w, [x - y for x, y in zip(a, b)]),
                          (-v, [-x for x in a])]:
            _assert_invariant(got)
            assert got.entries == tuple(want)
        scalar = rng.choice([0, -1, 3, F(-7, 4), "5/6", F(rng.randint(-10**6, 10**6), 999983)])
        got = scalar * v
        _assert_invariant(got)
        assert got.entries == tuple(qparse(scalar) * x for x in a) and v * scalar == got
        assert v.dot(w) == sum((x * y for x, y in zip(a, b)), F(0))
        seen["equal_pair"] += v == w
        vectors.append(v)
    # == and hash read (num, den): they agree with the entries across vectors too.
    for v in vectors[:200]:
        for w in vectors[:200]:
            assert (v == w) == (v.entries == w.entries)
            if v == w:
                assert hash(v) == hash(w)
    for case in ("negative", "large_den", "dim_0", "zero_vector", "equal_pair"):
        assert seen[case] > 0, case


def test_vector_json_matches_the_fraction_route():
    # QVector reads ints and "p" / "p/q" strings without a Fraction, and
    # to_json prints from num / den: both must give what parsing each entry
    # with qparse and printing each Fraction entry gave.
    rng = random.Random(4444)
    spellings = [
        lambda e: e.numerator if e.denominator == 1 else e,
        str,
        lambda e: f"{e.numerator * 3}/{e.denominator * 3}",
        lambda e: f"+{e}" if e >= 0 else str(e),
        lambda e: f"00{e.numerator}/0{e.denominator}" if e >= 0 else str(e),
        lambda e: e,
    ]
    fixed = [[5, "12", "+5", "-0/3", "007/010", "-6/4", 10**40 + 1, f"{-(10**30)}/{10**29 * 7}", F(-3, 8)]]
    cases = fixed + [
        [rng.choice(spellings)(F(rng.randint(-10**rng.randint(1, 25), 10**12), rng.randint(1, 40))) for _ in range(rng.randint(0, 6))]
        for _ in range(500)
    ]
    for entries in cases:
        fs = [qparse(e) for e in entries]
        den = lcm(*[f.denominator for f in fs])
        v = QVector(entries)
        assert (v.num, v.den) == (tuple([f.numerator * (den // f.denominator) for f in fs]), den)
        assert v.to_json() == [str(f) for f in fs]
        assert QVector.from_json(v.to_json()) == v
    for bad in (True, False, "1/0", "1.5", "1e3", " 1", "1_000", "3/-4", 0.5):
        with pytest.raises(ValueError) as parsed:
            qparse(bad)
        for entries in ([bad], [1, "2/3", bad]):
            with pytest.raises(ValueError) as read:
                QVector(entries)
            assert str(read.value) == str(parsed.value)


def _fraction_rows(m):
    """The entries of ``m`` as a list of Fraction rows, after checking every row's invariant."""
    for i in range(m.rows):
        _assert_invariant(m.row(i))
        assert m.row(i).dim == m.cols
    assert all(type(e) is F for e in m.entries) and len(m.entries) == m.rows * m.cols
    return [list(m.entries[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


def _matrix_spellings(rng, rows, cols, seen):
    pairs = [_spellings(rng, cols, seen) for _ in range(rows)]
    return [g for g, _ in pairs], [r for _, r in pairs]


def test_matrix_invariant_and_arithmetic_match_fractions():
    rng = random.Random(4343)
    seen = Counter()
    scalars = [0, -1, 3, F(-7, 4), "5/6", F(rng.randint(-10**6, 10**6), 999983)]
    for _ in range(300):
        r, c, k = (rng.randint(0, 4) for _ in range(3))
        given, rewritten = _matrix_spellings(rng, r, c, seen)
        m = QMatrix(r, c, [e for row in given for e in row])
        a = _fraction_rows(m)
        assert a == [[F(e) for e in row] for row in given]
        assert [m.row(i).entries for i in range(r)] == [tuple(row) for row in a]
        assert [list(m.col(j).entries) for j in range(c)] == [[row[j] for row in a] for j in range(c)]
        # One value is == and hash-equal to itself, whatever its spelling and constructor.
        spelled = [
            QMatrix(r, c, [e for row in rewritten for e in row]),
            QMatrix.from_cols([[row[j] for row in rewritten] for j in range(c)], nrows=r),
            QMatrix.from_json({"rows": r, "cols": c, "entries": rewritten}),
            QMatrix.from_json(m.to_json()),
        ]
        if r:
            spelled.append(QMatrix.from_rows(rewritten))
        for s in spelled:
            assert (s.rows, s.cols) == (r, c) and s == m and hash(s) == hash(m)
            assert s.to_json() == m.to_json()
        # Arithmetic against list-of-Fraction formulas.
        other = QMatrix(r, c, [e for row in _matrix_spellings(rng, r, c, seen)[0] for e in row])
        b = _fraction_rows(other)
        assert (m == other) == (a == b)
        assert _fraction_rows(m + other) == [[x + y for x, y in zip(u, w)] for u, w in zip(a, b)]
        assert _fraction_rows(m - other) == [[x - y for x, y in zip(u, w)] for u, w in zip(a, b)]
        assert _fraction_rows(-m) == [[-x for x in u] for u in a]
        scalar = rng.choice(scalars)
        assert _fraction_rows(scalar * m) == [[qparse(scalar) * x for x in u] for u in a]
        assert m * scalar == scalar * m
        right = QMatrix(c, k, [e for row in _matrix_spellings(rng, c, k, seen)[0] for e in row])
        rb = _fraction_rows(right)
        prod = m @ right
        assert (prod.rows, prod.cols) == (r, k)
        assert _fraction_rows(prod) == [
            [sum((a[i][t] * rb[t][j] for t in range(c)), F(0)) for j in range(k)] for i in range(r)
        ]
        v = QVector(_spellings(rng, c, seen)[0])
        assert m.apply(v).entries == tuple(sum((x * y for x, y in zip(u, v)), F(0)) for u in a)
        t = m.transpose()
        assert (t.rows, t.cols) == (c, r)
        assert _fraction_rows(t) == [[a[i][j] for i in range(r)] for j in range(c)]
        seen["rows_0"] += r == 0 < c
        seen["cols_0"] += c == 0 < r
        seen["inner_0"] += c == 0 < r * k
        seen["mixed_dens"] += len({m.row(i).den for i in range(r)}) > 1
    assert QMatrix(2, 0, []) @ QMatrix(0, 3, []) == QMatrix.zeros(2, 3)
    assert QMatrix(0, 2, []) != QMatrix(0, 3, []) and QMatrix(2, 0, []) != QMatrix(3, 0, [])
    assert QMatrix.from_rows([["1/2", 1]]) == QMatrix(1, 2, ["2/4", "3/3"])
    for case in ("rows_0", "cols_0", "inner_0", "mixed_dens", "large_den", "negative"):
        assert seen[case] > 0, case


def test_matrix_basics():
    m = QMatrix.from_rows([[1, 2], [3, 4]])
    assert m.row(1) == QVector([3, 4])
    assert m.col(0) == QVector([1, 3])
    assert m.transpose() == QMatrix.from_rows([[1, 3], [2, 4]])
    assert m.apply(QVector([1, 1])) == QVector([3, 7])
    assert (m @ QMatrix.identity(2)) == m
    assert QMatrix.from_json(m.to_json()) == m
    assert QMatrix.from_cols([[1, 3], [2, 4]]) == m


def test_from_cols_rejects_ragged_columns_and_a_wrong_nrows():
    for cols, nrows in [([[1], [2, 3]], None), ([[1, 2], [3]], None), ([[1, 2]], 5),
                        ([[1, 2], [3, 4]], 1)]:
        with pytest.raises(ValueError, match="ragged columns"):
            QMatrix.from_cols(cols, nrows=nrows)
    assert QMatrix.from_cols([[1, 2]], nrows=2) == QMatrix.from_rows([[1], [2]])
    assert QMatrix.from_cols([], nrows=3) == QMatrix(3, 0, [])


def test_matrix_sizes_must_not_be_negative():
    for rows, cols, entries in [(-2, -3, [1] * 6), (0, -3, []), (-1, 0, [])]:
        with pytest.raises(ValueError, match="matrix shape"):
            QMatrix(rows, cols, entries)
    with pytest.raises(ValueError, match="matrix shape"):
        QMatrix.from_json({"rows": 0, "cols": -3, "entries": []})


def test_rref_identity():
    reduced, pivots = rref(QMatrix.identity(2))
    assert reduced == QMatrix.identity(2)
    assert pivots == [0, 1]


def test_rref_rank_one():
    reduced, pivots = rref(QMatrix.from_rows([[2, 4], [1, 2]]))
    assert reduced == QMatrix.from_rows([[1, 2], [0, 0]])
    assert pivots == [0]


def _det(m: QMatrix) -> F:
    # independent determinant by permutation expansion
    n = m.rows
    total = F(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = F(1)
        for i in range(n):
            term *= m.entries[i * n + perm[i]]
        total += sign * term
    return total


def test_rref_random_invertible_is_identity():
    rng = random.Random(7)
    checked = 0
    while checked < 20:
        m = QMatrix(4, 4, [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(16)])
        if _det(m) == 0:
            continue
        checked += 1
        reduced, pivots = rref(m)
        assert reduced == QMatrix.identity(4)
        assert pivots == [0, 1, 2, 3]
        # cross-check: columns of the inverse solved by the independent
        # Gaussian oracle reproduce the identity under multiplication
        inv_cols = []
        for j in range(4):
            rhs = [F(1) if i == j else F(0) for i in range(4)]
            col = gauss_solve(m.row_list(), rhs)
            assert col is not None
            inv_cols.append(col)
        for j, col in enumerate(inv_cols):
            image = m.apply(QVector(col))
            assert image == QVector.unit(4, j)


def _rand_q(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def _rref_cases():
    """Hand-picked and seeded Fraction matrices for the row-reduction check."""
    yield []
    yield [[]]
    yield [[], [], []]
    yield [[F(0)] * 4 for _ in range(3)]
    yield [[F(-3), F(1), F(2)], [F(0), F(0), F(0)], [F(6), F(-2), F(5)]]
    yield [[F(0), F(2, 3), F(-1)], [F(0), F(-5, 7), F(4, 9)]]
    rng = random.Random(9191)
    for nrows, ncols in [(1, 1), (2, 6), (3, 7), (4, 4), (6, 2), (7, 3), (5, 5), (8, 4)]:
        for _ in range(12):
            rows = []
            for _ in range(nrows):
                pick = rng.random()
                if pick < 0.15:
                    rows.append([F(0)] * ncols)
                elif pick < 0.3 and rows:
                    # a rational combination of earlier rows lowers the rank
                    a, b = rng.choice(rows), rng.choice(rows)
                    c, d = _rand_q(rng), _rand_q(rng)
                    rows.append([c * x + d * y for x, y in zip(a, b)])
                else:
                    row = [_rand_q(rng) if rng.random() < 0.7 else F(0) for _ in range(ncols)]
                    rows.append(row)
            yield rows


def _first_pivot(rows):
    """The entry the reduction pivots on first, or None for a zero matrix."""
    for col in range(len(rows[0]) if rows else 0):
        for row in rows:
            if row[col]:
                return row[col]
    return None


def test_rref_matches_fraction_rref():
    # rref runs the package's elimination on integer rows and converts
    # back; the result must be the Fraction loop's, entry for entry, on
    # every shape, empty and zero-column matrices included.
    seen = Counter()
    for rows in _rref_cases():
        ncols = len(rows[0]) if rows else 0
        reduced, pivots = rref(QMatrix(len(rows), ncols, [e for row in rows for e in row]))
        want = [list(r) for r in rows]
        assert pivots == fraction_rref(want)
        assert (reduced.rows, reduced.cols) == (len(rows), ncols)
        assert reduced.row_list() == want
        assert all(type(e) is F for e in reduced.entries)
        seen["empty_row"] += ncols == 0 and bool(rows)
        seen["zero_row"] += any(not any(r) for r in rows) and ncols > 0
        seen["wide"] += len(rows) < ncols
        seen["tall"] += len(rows) > ncols > 0
        pivot = _first_pivot(rows)
        seen["negative_pivot"] += pivot is not None and pivot < 0
        seen["fractional_pivot"] += pivot is not None and pivot.denominator > 1
    for case in ("empty_row", "zero_row", "wide", "tall", "negative_pivot", "fractional_pivot"):
        assert seen[case] > 0, case


def test_solve_single_equation():
    sol = solve_linear(QMatrix.from_rows([[2]]), QVector([1]))
    assert sol.particular == QVector([F(1, 2)])
    assert sol.nullspace == ()


def test_solve_underdetermined():
    sol = solve_linear(QMatrix.from_rows([[1, 1]]), QVector([0]))
    assert sol.particular == QVector([0, 0])
    assert len(sol.nullspace) == 1
    v = sol.nullspace[0]
    # (1, -1) up to scaling
    assert v[0] * QVector([1, -1])[1] == v[1] * QVector([1, -1])[0]
    assert not v.is_zero()


def test_solve_inconsistent():
    assert solve_linear(QMatrix.from_rows([[1, 0], [1, 0]]), QVector([0, 1])) is None


def test_solve_random_postconditions():
    rng = random.Random(11)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = QMatrix(rows, cols, [rng.randint(-4, 4) for _ in range(rows * cols)])
        b = QVector([rng.randint(-4, 4) for _ in range(rows)])
        sol = solve_linear(a, b)
        if sol is None:
            continue
        assert a.apply(sol.particular) == b
        for v in sol.nullspace:
            assert a.apply(v) == QVector.zero(rows)


def test_complement_basis_examples():
    assert complement_basis([QVector([1, 1])], 2) == [QVector([1, 0])]
    assert complement_basis([], 2) == [QVector([1, 0]), QVector([0, 1])]
    assert complement_basis([QVector([1, 0]), QVector([0, 1])], 2) == []


def test_complement_spans_and_independent():
    rng = random.Random(3)
    for _ in range(100):
        dim = rng.randint(1, 5)
        k = rng.randint(0, dim)
        vecs = []
        for _ in range(k):
            v = QVector([rng.randint(-3, 3) for _ in range(dim)])
            if not v.is_zero():
                vecs.append(v)
        comp = complement_basis(vecs, dim)
        combined = QMatrix.from_rows([v.entries for v in vecs + comp]) if vecs + comp else None
        if combined is None:
            assert dim == 0
            continue
        _, pivots = rref(combined)
        assert len(pivots) == dim  # spans
        # independence: rank equals the vector count once duplicates in the
        # random span are accounted for
        base_rank = len(rref(QMatrix.from_rows([v.entries for v in vecs]))[1]) if vecs else 0
        assert base_rank + len(comp) == dim


def test_pivot_reads_match_greedy_echelon():
    # independent_indices, span_rank, span_contains and complement_basis
    # read pivots off one RREF; the incremental echelon is the oracle.
    rng = random.Random(29)
    seen = Counter()
    for _ in range(800):
        dim = rng.choice([0, 1, 1, 2, 3, 4, 5])
        vecs = []
        for _ in range(rng.randint(0, dim + 3)):
            roll = rng.random()
            if vecs and roll < 0.2:
                vecs.append(rng.choice(vecs))
                seen["duplicate"] += 1
            elif vecs and roll < 0.35:
                vecs.append(F(rng.randint(-3, 3), rng.randint(1, 3)) * rng.choice(vecs))
            elif roll < 0.45:
                vecs.append(QVector.zero(dim))
                seen["zero"] += 1
            else:
                vecs.append(QVector([F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim)]))
        if vecs and rng.random() < 0.5:
            x = sum((rng.randint(-2, 2) * v for v in vecs), QVector.zero(dim))
        else:
            x = QVector([rng.randint(-2, 2) for _ in range(dim)])
        ech = GreedyEchelon()
        kept = [i for i, v in enumerate(vecs) if ech.add(v.entries)]
        assert independent_indices(vecs, dim) == kept
        assert span_rank(vecs, dim) == len(kept)
        contains = ech.contains(x.entries)
        assert span_contains(vecs, x, dim) == contains
        comp = complement_basis(vecs, dim)
        assert [list(v.entries) for v in comp] == greedy_complement([v.entries for v in vecs], dim)
        seen[f"dim{dim}"] += 1
        seen[f"contains={contains}"] += 1
        seen["dependent"] += len(kept) < len(vecs)
    for key in ("duplicate", "zero", "dim0", "dim1", "contains=True", "contains=False", "dependent"):
        assert seen[key] >= 20, (key, seen)


def test_nullspace_and_inverse():
    m = QMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    null = nullspace(m)
    assert len(null) == 2
    for v in null:
        assert m.apply(v) == QVector.zero(2)
    inv = matrix_inverse(QMatrix.from_rows([[2, 1], [1, 1]]))
    assert inv == QMatrix.from_rows([[1, -1], [-1, 2]])
    with pytest.raises(ValueError):
        matrix_inverse(QMatrix.from_rows([[1, 2], [2, 4]]))


def test_zero_row_matrices_keep_their_shape():
    # Echelon forms and inverses are built with the input's shape, so a
    # matrix without rows passes through; from_rows still cannot tell the
    # column count of no rows.
    for cols in range(4):
        assert rref(QMatrix(0, cols, [])) == (QMatrix(0, cols, []), [])
        assert nullspace(QMatrix(0, cols, [])) == [QVector.unit(cols, i) for i in range(cols)]
    assert rref(QMatrix(2, 0, [])) == (QMatrix(2, 0, []), [])
    assert matrix_inverse(QMatrix(0, 0, [])) == QMatrix(0, 0, [])
    with pytest.raises(ValueError, match="at least one row"):
        QMatrix.from_rows([])
