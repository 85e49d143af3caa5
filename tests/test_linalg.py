"""Exact linear algebra: goldens first, then structural properties."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finhopf import linalg
from finhopf.errors import DimensionMismatch, SolverIncomplete
from finhopf.linalg import QMatrix, rational_eigenvalues, rational_roots
from finhopf.rationals import exact, rat


def F(x):
    return Fraction(x)


# A dense Gauss-Jordan reference, independent of the library's sparse core:
# first nonzero entry in the column as pivot, every other row cleared.
def dense_rref(data, cols):
    m = [list(r) for r in data]
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def dense_nullspace(data, cols):
    reduced, pivots = dense_rref(data, cols)
    raw = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        raw.append(v)
    return [tuple(r) for r in dense_rref(raw, cols)[0]]


def dense_solve(data, cols, rhs):
    reduced, pivots = dense_rref([list(r) + [b] for r, b in zip(data, rhs)], cols + 1)
    if cols in pivots:
        return None
    x = [F(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][cols]
    return tuple(x)


def dense_matvec(data, v):
    """The product of a dense matrix with a vector, entry by entry."""
    return tuple(sum((a * rat(x) for a, x in zip(r, v)), F(0)) for r in data)


def dense_inverse(data, n):
    ident = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    reduced, pivots = dense_rref([list(r) + e for r, e in zip(data, ident)], 2 * n)
    if pivots != tuple(range(n)):
        return None
    return QMatrix([r[n:] for r in reduced], cols=n)


ENTRIES = st.sampled_from(
    [F(0)] * 6 + [F(1), F(-1), F(2), F(-3), Fraction(1, 2), Fraction(-5, 3),
                  Fraction(10**12, 7), Fraction(-7, 10**12)]
)


def dense_matrices(max_rows=6, max_cols=6):
    return st.integers(0, max_rows).flatmap(
        lambda r: st.integers(0, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(ENTRIES, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: QMatrix(rows, cols=c))
        )
    )


def block_diagonal(blocks):
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    dense = [[F(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b.data):
            dense[r0 + i][c0:c0 + b.cols] = row
        r0 += b.rows
        c0 += b.cols
    return QMatrix(dense, cols=cols)


MATRICES = st.one_of(
    dense_matrices(),
    st.lists(dense_matrices(3, 3), min_size=1, max_size=3).map(block_diagonal),
)


@settings(derandomize=True, database=None, max_examples=200)
@given(MATRICES, st.data())
def test_product_matches_summing_over_every_inner_index(left, data):
    """The product, which walks only nonzero entries, equals the sums of
    a_ik * b_kj over every k, zeros included."""
    cols = data.draw(st.integers(0, 5))
    right = QMatrix([[data.draw(ENTRIES) for _ in range(cols)] for _ in range(left.cols)],
                    cols=cols)
    expected = [[sum((left.data[i][k] * right.data[k][j] for k in range(left.cols)), F(0))
                 for j in range(cols)] for i in range(left.rows)]
    assert left * right == QMatrix(expected, cols=cols)


def test_rref_golden():
    m = QMatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    reduced, pivots = m.rref()
    assert pivots == (0, 1)
    assert reduced.data == (
        (F(1), F(0), F(-1)),
        (F(0), F(1), F(2)),
        (F(0), F(0), F(0)),
    )


def test_rank_golden():
    assert QMatrix([[1, 2], [2, 4]]).rank() == 1
    assert QMatrix([[1, 0], [0, 1]]).rank() == 2
    assert QMatrix.zeros(3, 4).rank() == 0
    assert QMatrix([], cols=5).rank() == 0


def test_nullspace_canonical_form():
    # the kernel basis itself is echelonized with pivot entries 1
    v, = QMatrix([[1, 1]]).nullspace()
    assert v == (F(1), F(-1))
    m = QMatrix([[1, 0, 1, 0], [0, 1, 1, 0]])
    basis = m.nullspace()
    assert basis == [
        (F(1), F(1), F(-1), F(0)),
        (F(0), F(0), F(0), F(1)),
    ]


def test_nullspace_empty_when_injective():
    assert QMatrix([[1, 0], [0, 1], [3, 7]]).nullspace() == []


def test_solve_and_inconsistency():
    m = QMatrix([[1, 1], [0, 1]])
    assert m.solve([3, 1]) == (F(2), F(1))
    assert QMatrix([[1, 1], [1, 1]]).solve([0, 1]) is None
    assert QMatrix([[1, 1], [1, 1]]).solve([2, 2]) is not None


def test_inverse_golden():
    m = QMatrix([[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv.data == ((F(1), F(-1)), (F(-1), F(2)))
    assert (m * inv) == QMatrix.identity(2)
    assert QMatrix([[1, 2], [2, 4]]).inverse() is None
    assert not QMatrix([[1, 2], [2, 4]]).is_invertible()


SQUARE_MATRICES = st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    .map(lambda data: QMatrix(data, cols=n))
)


@settings(derandomize=True, database=None, max_examples=200)
@given(st.one_of(SQUARE_MATRICES, MATRICES))
def test_invertible_exactly_when_an_inverse_exists(m):
    assert m.is_invertible() == (m.inverse() is not None)


@pytest.mark.parametrize("m, invertible", [
    (QMatrix([], cols=0), True),
    (QMatrix.identity(3), True),
    (QMatrix([[1, 2], [2, 4]]), False),
    (QMatrix([[1, 0, 0], [0, 1, 0]]), False),
    (QMatrix([[1, 0], [0, 1], [0, 0]]), False),
    (QMatrix.from_columns([], rows=2), False),
])
def test_invertibility_on_square_non_square_and_empty_shapes(m, invertible):
    assert m.is_invertible() is invertible
    assert (m.inverse() is not None) is invertible


def test_zero_dimensional_edge_cases():
    empty = QMatrix([], cols=0)
    assert empty.inverse() == empty
    assert empty.rank() == 0
    assert QMatrix.from_columns([], rows=0) == empty
    tall = QMatrix.from_columns([], rows=3)
    assert (tall.rows, tall.cols) == (3, 0)
    assert tall.rank() == 0


def test_char_poly_golden():
    # x^2 - 5x - 2 for [[1,2],[3,4]], coefficients ascending
    m = QMatrix([[1, 2], [3, 4]])
    assert list(m.char_poly()) == [F(-2), F(-5), F(1)]


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_char_poly_multiplies_by_the_matrix_once_per_step(n, monkeypatch):
    m = QMatrix([[(i * n + j) % 7 - 3 + (i == j) for j in range(n)] for i in range(n)])
    calls = []
    real = QMatrix.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(QMatrix, "__mul__", counting)
        coeffs = m.char_poly()
    assert len(calls) == n
    # Cayley-Hamilton: the polynomial vanishes at the matrix.
    assert poly_at_matrix(coeffs, m) == [[0] * n for _ in range(n)]


def poly_at_matrix(coeffs, m):
    """The sum of c_k m**k over the ascending coefficients, as dense rows."""
    value, power = [[F(0)] * m.cols for _ in range(m.rows)], QMatrix.identity(m.rows)
    for c in coeffs:
        value = [[v + c * x for v, x in zip(rv, rp)] for rv, rp in zip(value, power.data)]
        power = power * m
    return value


def test_rational_roots_golden():
    # 2x^3 - x^2 - 7x + 6 = (x-1)(x+2)(2x-3)
    coeffs = (F(6), F(-7), F(-1), F(2))
    assert sorted(rational_roots(coeffs)) == [F(-2), F(1), Fraction(3, 2)]
    # zero roots deflate
    assert sorted(rational_roots((F(0), F(0), F(1)))) == [F(0)]


def test_rational_roots_refuses_a_search_above_the_bound():
    bound = linalg.ROOT_SEARCH_BOUND
    # |a_0 * a_n| is read after clearing denominators and taking out zero roots
    assert rational_roots((F(-1), F(bound))) == [Fraction(1, bound)]
    assert rational_roots((F(0), Fraction(-1, bound), F(1))) == [F(0), Fraction(1, bound)]
    assert rational_roots((F(bound), F(0), F(1))) == []
    for coeffs in ((F(-1), F(bound + 1)), (Fraction(-1, bound + 1), F(1)),
                   (F(-2), F(0), F(0), F(bound // 2 + 1))):
        with pytest.raises(SolverIncomplete, match="root search limited"):
            rational_roots(coeffs)


def fraction_roots(coeffs):
    """Every candidate p/q, evaluated in Fractions: the search before the bound."""
    roots = {F(0)} if coeffs[0] == 0 else set()
    while coeffs[0] == 0:
        coeffs = coeffs[1:]
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]

    def divisors(n):
        small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
        return small + [abs(n) // d for d in small]

    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * cand**i for i, c in enumerate(ints)) == 0:
                    roots.add(cand)
    return sorted(roots)


def test_rational_roots_of_products_of_linear_factors():
    rng = random.Random(13)
    for _ in range(60):
        roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
        coeffs = [F(rng.choice([1, 2, 3])), F(0), F(rng.choice([1, 5]))]  # no rational root
        for r in roots:
            coeffs = [a - r * b for a, b in zip([F(0)] + coeffs, coeffs + [F(0)])]
        assert rational_roots(coeffs) == sorted(set(roots)) == fraction_roots(coeffs)
    # many divisors on both ends, below the bound: 240 x 256 pairs
    start = time.perf_counter()
    assert rational_roots([F(720720)] + [F(1)] * 11 + [F(1081080)]) == []
    assert time.perf_counter() - start < 0.5


def test_rational_eigenvalues_golden():
    m = QMatrix([[2, 0, 0], [0, 3, 1], [0, 0, 3]])
    assert sorted(rational_eigenvalues(m)) == [F(2), F(3)]
    rot = QMatrix([[0, -1], [1, 0]])  # no rational eigenvalues
    assert rational_eigenvalues(rot) == []


def test_block_rank_matches_dense_rank():
    rng = random.Random(5)
    for _ in range(20):
        blocks = []
        for _b in range(rng.randint(1, 3)):
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            blocks.append(QMatrix([[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]))
        m = block_diagonal(blocks)
        # reference: rank by pivot count of the dense oracle
        assert m.rank() == len(dense_rref(m.data, m.cols)[1])


@settings(derandomize=True, database=None, max_examples=300)
@given(MATRICES, st.data())
def test_sparse_core_matches_dense_oracle(m, data):
    reduced, pivots = dense_rref(m.data, m.cols)
    assert m.rref() == (QMatrix(reduced, cols=m.cols), pivots)
    assert m.rank() == len(pivots)
    assert m.nullspace() == dense_nullspace(m.data, m.cols)
    rhs = data.draw(st.lists(ENTRIES, min_size=m.rows, max_size=m.rows))
    x = data.draw(st.lists(ENTRIES, min_size=m.cols, max_size=m.cols))
    for b in (rhs, dense_matvec(m.data, x)):
        assert m.solve(b) == dense_solve(m.data, m.cols, b)
    assert m.solve(dense_matvec(m.data, x)) is not None
    assert m.inverse() == (dense_inverse(m.data, m.rows) if m.rows == m.cols else None)


# The oracle for ``nullspace_of_rows``, which pivots from the right: one
# elimination of every row with pivots from the left, then one of the kernel
# vectors.
def single_system_nullspace(rows, cols):
    pivots, reduced = linalg._eliminate(rows)
    pivot_set = set(pivots)
    raw = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = {f: F(1)}
        for p, row in zip(pivots, reduced):
            if f in row:
                v[p] = -row[f]
        raw.append(v)
    _, canonical = linalg._eliminate(raw)
    return [tuple(row.get(j, F(0)) for j in range(cols)) for row in canonical]


SPARSE_VALUES = st.sampled_from(
    [1, -1, 2, -3, F(1), F(-2), Fraction(1, 2), Fraction(-5, 3), Fraction(10**12, 7)]
)


@st.composite
def block_systems(draw):
    """Sparse rows over planted blocks of columns (interleaved, some with no
    row at all), with rows of one entry, empty rows and int/Fraction values."""
    cols = draw(st.integers(0, 12))
    block_of = draw(st.lists(st.integers(0, 3), min_size=cols, max_size=cols))
    rows = [{} for _ in range(draw(st.integers(0, 2)))]
    for b in sorted(set(block_of)):
        members = [c for c in range(cols) if block_of[c] == b]
        for _ in range(draw(st.integers(0, len(members) + 1))):
            support = draw(st.lists(st.sampled_from(members), min_size=1, max_size=3,
                                    unique=True))
            rows.append({c: draw(SPARSE_VALUES) for c in support})
    return draw(st.permutations(rows)), cols


def typed(basis):
    return [tuple((x, type(x)) for x in v) for v in basis]


@settings(derandomize=True, database=None, max_examples=200)
@given(block_systems())
def test_blockwise_nullspace_matches_the_single_system_oracle(system):
    rows, cols = system
    expected = typed(single_system_nullspace([dict(r) for r in rows], cols))
    assert typed(linalg.nullspace_of_rows([dict(r) for r in rows], cols)) == expected


def test_matrix_arithmetic_and_immutability():
    a = QMatrix([[1, 2], [3, 4]])
    b = QMatrix([[0, 1], [1, 0]])
    assert a * b == QMatrix([[2, 1], [4, 3]])
    assert b * b == QMatrix.identity(2)
    with pytest.raises(AttributeError):
        a.rows = 5
    with pytest.raises(DimensionMismatch):
        a * QMatrix([[1]])


def test_rat_rejects_floats_and_bools():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(-2) == F(-2)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_exact_keeps_integral_values_as_ints():
    for value, expected in ((3, 3), (F(6), 6), ("-4/2", -2), ("3/4", Fraction(3, 4)),
                            (Fraction(10**12, 7), Fraction(10**12, 7))):
        assert exact(value) == expected
        assert type(exact(value)) is type(expected)
    for bad in (0.5, 2.0, True):
        with pytest.raises(TypeError):
            exact(bad)
    with pytest.raises(ValueError):
        exact("1/0")


def test_from_columns_coerces_each_cell_into_the_transposed_matrix():
    m = QMatrix.from_columns([[1, "1/2"], (F(3), 0)])
    assert m.data == ((F(1), F(3)), (Fraction(1, 2), F(0)))
    assert all(type(x) is Fraction for row in m.data for x in row)
    with pytest.raises(TypeError):
        QMatrix.from_columns([[0.5]])
    with pytest.raises(DimensionMismatch):
        QMatrix.from_columns([[1, 2], [3]])
