import random
from fractions import Fraction
from math import gcd

import pytest

from femforge.exact import (
    DimensionMismatchError,
    Matrix,
    SingularMatrixError,
    _back_reduce,
    _int_echelon,
    image_basis,
    kron_sum,
    is_direct_sum,
    rref_kernel,
    subspace_equal,
    subspace_sum,
)
from reference import (
    frac_det,
    frac_matmul,
    frac_rows,
    frac_rref,
    frac_transpose,
    subspace_contains,
    subspace_intersection,
)


def test_rank_identity():
    assert Matrix.identity(2).rank() == 2


def test_rank_zero_matrix():
    assert Matrix.zeros(3, 4).rank() == 0


def test_rank_proportional_rows():
    assert Matrix([[1, 2], [2, 4]]).rank() == 1


def test_null_space_identity_empty():
    ns = Matrix.identity(3).null_space()
    assert ns.cols == 0


def test_null_space_single_row():
    ns = Matrix([[1, 1]]).null_space()
    assert ns.cols == 1
    v = ns.column(0)
    assert v[0] == -v[1] and v[0] != 0


def test_null_space_proportional():
    # hand elimination: kernel of [[1,2],[2,4]] spans (2,-1)
    ns = Matrix([[1, 2], [2, 4]]).null_space()
    assert ns.cols == 1
    v = ns.column(0)
    assert v[0] * (-1) == v[1] * 2


def test_solve_identity():
    b = Matrix([[3], [7]])
    assert Matrix.identity(2).solve(b) == b


def test_solve_diagonal():
    a = Matrix([[2, 0], [0, 3]])
    b = Matrix([[1], [1]])
    x = a.solve(b)
    assert x.column(0) == (Fraction(1, 2), Fraction(1, 3))


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        Matrix([[1, 2], [2, 4]]).solve(Matrix([[1], [1]]))


def test_subspace_equal_trivial():
    e1 = Matrix([[1], [0]])
    assert subspace_equal(e1, e1.scale(5))


def test_direct_sum_axes():
    e1 = Matrix([[1], [0]])
    e2 = Matrix([[0], [1]])
    assert is_direct_sum(e1, e2)
    s = subspace_sum(e1, e2)
    assert s.rank() == 2
    assert subspace_intersection(e1, e2).cols == 0


def test_intersection_brute_force_case():
    e1 = Matrix([[1], [0]])
    other = Matrix([[1, 1], [1, 0]])  # span{e1+e2, e1} = all of R^2
    inter = subspace_intersection(e1, other)
    assert subspace_equal(inter, e1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        subspace_equal(Matrix([[1], [0]]), Matrix([[1], [0], [0]]))


def _random_matrix(rng, rows, cols, lo=-5, hi=5):
    return Matrix(
        [[Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    )


@pytest.mark.parametrize("seed", range(8))
def test_rank_nullity(seed):
    rng = random.Random(seed)
    a = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
    ns = a.null_space()
    assert a.rank() + ns.cols == a.cols
    if ns.cols:
        assert a.matmul(ns).is_zero()


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_column_elimination(seed):
    # self-consistency: row-elimination rank equals column-elimination rank
    rng = random.Random(100 + seed)
    a = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    assert a.rank() == a.transpose().rank()
    assert image_basis(a).cols == a.rank()


@pytest.mark.parametrize("seed", range(6))
def test_solve_roundtrip_exact(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(1, 6)
    while True:
        a = _random_matrix(rng, n, n)
        if a.rank() == n:
            break
    b = _random_matrix(rng, n, 2)
    x = a.solve(b)
    assert a.matmul(x) == b


@pytest.mark.parametrize("seed", range(6))
def test_det_nonzero_iff_full_rank(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(1, 6)
    a = _random_matrix(rng, n, n)
    assert (a.det() != 0) == (a.rank() == n)


def test_direct_sum_dims_and_intersection():
    a = Matrix([[1, 0], [0, 1], [0, 0]])
    b = Matrix([[0], [0], [1]])
    assert is_direct_sum(a, b)
    assert subspace_sum(a, b).cols == a.cols + b.cols
    assert subspace_intersection(a, b).cols == 0


def test_subspace_contains():
    a = Matrix([[1, 0], [0, 1], [0, 0]])
    b = Matrix([[1], [2], [0]])
    c = Matrix([[0], [0], [1]])
    assert subspace_contains(a, b)
    assert not subspace_contains(a, c)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_empty_shapes_are_kept(n):
    # no constraints on R^n: the whole space is the kernel
    assert Matrix.zeros(0, n).null_space() == Matrix.identity(n)
    assert Matrix.zeros(0, n).transpose().rows == n
    ib = image_basis(Matrix.zeros(n, 0))
    assert (ib.rows, ib.cols) == (n, 0)
    prod = Matrix.zeros(2, 0).matmul(Matrix.zeros(0, n))
    assert (prod.rows, prod.cols) == (2, n) and prod.is_zero()
    stacked = Matrix.zeros(0, n).hstack(Matrix.zeros(0, 2))
    assert (stacked.rows, stacked.cols) == (0, n + 2)
    stacked = Matrix.vstack([Matrix.zeros(0, n), Matrix.identity(n)], n)
    assert stacked == Matrix.identity(n)
    assert Matrix.vstack([], n).cols == n
    with pytest.raises(DimensionMismatchError):
        Matrix.vstack([Matrix.zeros(1, n), Matrix.zeros(1, n + 1)], n)


def test_equality_and_hash_see_the_shape():
    # two matrices with no rows differ in width alone
    a, b = Matrix.zeros(0, 3), Matrix.zeros(0, 5)
    assert a != b and hash(a) != hash(b)
    assert len({a, b, Matrix.zeros(0, 3)}) == 2
    assert Matrix.zeros(0, 3) == a and hash(Matrix.zeros(0, 3)) == hash(a)
    assert Matrix.zeros(3, 0) != Matrix.zeros(5, 0)
    assert Matrix.identity(2) == Matrix([[1, 0], [0, 1]])


def test_public_constructor_converts_and_checks_internal_results_are_fractions():
    m = Matrix([[1, Fraction(1, 2)], (3, 4)])
    assert all(type(x) is Fraction for i in range(2) for x in m.row(i))
    assert isinstance(m.row(1), tuple)
    with pytest.raises(DimensionMismatchError):
        Matrix([[1, 2], [3]])
    rng = random.Random(3)
    a = Matrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)] for _ in range(3)])
    outputs = [a.transpose(), a.matmul(a.transpose()), a.rref()[0], a.hstack(a), Matrix.vstack([a, a], 4),
               a.matmul(a.transpose()).solve(Matrix.identity(3))]
    for out in outputs:
        rows = [out.row(i) for i in range(out.rows)]
        assert all(type(row) is tuple and all(type(x) is Fraction for x in row) for row in rows)
        assert out == Matrix(rows, out.cols)


# -- differential and property tests ------------------------------------------
#
# The references below are the previous all-Fraction routines: back-substitution
# on the rational RREF one Fraction operation at a time, and the entrywise
# Fraction matrix product.  The integer core must return equal results.


def _reference_back_reduce(ech, pivots):
    out = [[Fraction(v) for v in row] for row in ech]
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        piv = out[r][pc]
        if piv != 1:
            out[r] = [v / piv for v in out[r]]
        for i in range(r):
            f = out[i][pc]
            if f:
                out[i] = [a - f * b for a, b in zip(out[i], out[r])]
    return out


def _reference_rref(a):
    ech, pivots = _int_echelon(a._int_rows(), a.cols)
    return Matrix(_reference_back_reduce(ech, pivots), a.cols), tuple(pivots)


def _reference_matmul(a, b):
    return Matrix(frac_matmul(frac_rows(a), frac_rows(b), b.cols), b.cols)


def _primitive_column(vec):
    """Scale a rational vector to coprime integers with a positive leading entry."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    ints = [v // g for v in ints] if g > 1 else ints
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def _reference_null_space(red_rows, pivots, cols):
    """The kernel basis read off a rational RREF, one primitive column per
    free column."""
    expected = []
    for f in (j for j in range(cols) if j not in pivots):
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for row, pc in zip(red_rows, pivots):
            vec[pc] = -row[f]
        expected.append(_primitive_column(vec))
    return Matrix.from_columns(expected, rows=cols)


def _qq(x):
    return Fraction(int(x.numerator), int(x.denominator))


def _sympy_matrix(a):
    dm = pytest.importorskip("sympy.polys.matrices")
    QQ = pytest.importorskip("sympy").QQ
    return dm.DomainMatrix(
        [[QQ(x.numerator, x.denominator) for x in a.row(i)] for i in range(a.rows)], (a.rows, a.cols), QQ
    )


def _edge_matrices():
    f = Fraction
    return [
        Matrix.zeros(0, 4),
        Matrix.zeros(3, 0),
        Matrix.zeros(3, 4),
        Matrix([[1, 2, 3], [1, 2, 3], [2, 4, 6]]),  # duplicate rows
        Matrix([[f(1, 2), f(1, 3), f(-5, 7)], [f(2, 9), 0, f(1, 6)], [f(1, 2), f(1, 3), f(-5, 7)]]),
        Matrix([[f(3, 4), f(-1, 6), 0, f(10**6, 3)], [0, f(1, 11), f(2, 5), f(-1, 10**4)]]),
        Matrix([[0, 0, 5], [0, 0, f(1, 3)], [0, 7, 0]]),
    ]


def _random_matrices():
    rng = random.Random(4242)
    out = []
    for _ in range(40):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        a = _random_matrix(rng, rows, cols, -30, 30)
        if rows > 2 and rng.random() < 0.5:  # force a dependent row
            rows_ = [a.row(i) for i in range(rows)]
            rows_[2] = tuple(x - 3 * y for x, y in zip(rows_[0], rows_[1]))
            a = Matrix(rows_)
        out.append(a)
    return out


_CORPUS = _edge_matrices() + _random_matrices()


@pytest.mark.parametrize("a", _CORPUS, ids=lambda a: f"{a.rows}x{a.cols}")
def test_rref_and_null_space_match_fraction_reference(a):
    red, pivots = a.rref()
    assert (red, pivots) == _reference_rref(a)
    assert red.cols == a.cols
    assert a.null_space() == _reference_null_space(frac_rows(red), pivots, a.cols)


@pytest.mark.parametrize("a", _CORPUS, ids=lambda a: f"{a.rows}x{a.cols}")
def test_matmul_matches_fraction_reference(a):
    rng = random.Random(a.rows * 31 + a.cols)
    for cols in (0, 1, 4):
        b = _random_matrix(rng, a.cols, cols, -40, 40)
        assert a.matmul(b) == _reference_matmul(a, b)
    assert a.transpose().matmul(a) == _reference_matmul(a.transpose(), a)


@pytest.mark.parametrize("a", _CORPUS, ids=lambda a: f"{a.rows}x{a.cols}")
def test_kron_sum_matches_fraction_reference(a):
    # sum_p A_p (x) w_p: column j * width + c is sum_p w_p[c] A_p[:, j]
    rng = random.Random(a.rows * 17 + a.cols)
    for width in (1, 3):
        terms = [(Matrix(frac_rows(_random_matrix(rng, a.rows, a.cols, -9, 9)), a.cols),
                  [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(width)]) for _ in range(2)]
        terms.append((a, [0] * width))  # an all-zero weight adds nothing
        terms.append((a, [Fraction(1, 3)] + [0] * (width - 1)))
        expected = [[sum((w[c] * m[i, j] for m, w in terms), Fraction(0)) for j in range(a.cols) for c in range(width)]
                    for i in range(a.rows)]
        got = kron_sum(terms, width)
        _assert_normal_form(got)
        assert got == Matrix(expected, a.cols * width)
    with pytest.raises(DimensionMismatchError):
        kron_sum([(a, [1]), (Matrix.zeros(a.rows + 1, a.cols), [1])], 1)


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_identity_storage_is_the_unit_rows(n):
    assert Matrix.identity(n) == Matrix([[int(i == j) for j in range(n)] for i in range(n)], n)


@pytest.mark.parametrize("a", _CORPUS, ids=lambda a: f"{a.rows}x{a.cols}")
def test_identity_factor_returns_the_other(a):
    # A I == A == I A, through the general product
    right, left = Matrix.identity(a.cols), Matrix.identity(a.rows)
    assert a.matmul(right) == a == left.matmul(a)
    assert a == _reference_matmul(a, right) == _reference_matmul(left, a)
    with pytest.raises(DimensionMismatchError):
        a.matmul(Matrix.identity(a.cols + 1))


@pytest.mark.parametrize("a", _CORPUS, ids=lambda a: f"{a.rows}x{a.cols}")
def test_kernel_read_off_an_augmented_rref(a):
    # a consistent right-hand side adds no pivot, and the kernel of the
    # first columns is the null space of a
    x = _random_matrix(random.Random(a.rows + 7 * a.cols), a.cols, 2, -9, 9)
    red, pivots = a.hstack(a.matmul(x)).rref()
    assert all(p < a.cols for p in pivots)
    assert rref_kernel(red, pivots, a.cols) == a.null_space()


@pytest.mark.parametrize("a", _CORPUS, ids=lambda a: f"{a.rows}x{a.cols}")
def test_exact_core_matches_sympy(a):
    dm = _sympy_matrix(a)
    red, pivots = a.rref()
    sred, spivots = dm.rref()
    assert pivots == tuple(spivots)
    assert a.rank() == dm.rank()
    sym_rows = sred.to_list()[: len(pivots)]
    assert [[_qq(x) for x in row] for row in sym_rows] == [list(red.row(i)) for i in range(red.rows)]
    sym_kernel = [_primitive_column([_qq(x) for x in row]) for row in dm.nullspace().to_list()]
    assert a.null_space() == Matrix.from_columns(sym_kernel, rows=a.cols)


@pytest.mark.parametrize("seed", range(12))
def test_solve_matches_sympy(seed):
    rng = random.Random(500 + seed)
    n = rng.randint(1, 7)
    while True:
        a = _random_matrix(rng, n, n, -50, 50)
        if a.rank() == n:
            break
    b = _random_matrix(rng, n, rng.randint(1, 3), -50, 50)
    x = a.solve(b)
    sx = _sympy_matrix(a).lu_solve(_sympy_matrix(b))
    assert [list(x.row(i)) for i in range(n)] == [[_qq(v) for v in row] for row in sx.to_list()]


def _matrices():
    st = pytest.importorskip("hypothesis.strategies")
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
    )
    return st.integers(0, 6).flatmap(
        lambda cols: st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=6).map(
            lambda rows: Matrix(rows, cols)
        )
    )


def test_rank_nullity_properties():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(_matrices())
    def check(a):
        ns = a.null_space()
        assert (ns.rows, ns.cols) == (a.cols, a.cols - a.rank())
        assert a.rank() == a.transpose().rank()
        assert a.matmul(ns).is_zero()
        assert (a.rref(), a.matmul(Matrix.identity(a.cols))) == (_reference_rref(a), a)

    check()


def _staircases():
    """Wide, rank-deficient matrices in staircase form: row i is zero left of
    its pivot column, the pivots skip columns, and rows that are rational
    combinations of the others are mixed in, so that back-reduction updates
    rows whose tails start at many different offsets."""
    st = pytest.importorskip("hypothesis.strategies")
    entry = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    lead = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 6))

    @st.composite
    def build(draw):
        gaps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=7))
        pivots = [sum(gaps[:i + 1]) + i for i in range(len(gaps))]
        cols = pivots[-1] + 1 + draw(st.integers(3, 6))  # wider than it is tall
        rows = [[Fraction(0)] * p + [draw(lead)] + draw(st.lists(entry, min_size=cols - 1 - p, max_size=cols - 1 - p))
                for p in pivots]
        for _ in range(draw(st.integers(1, 3))):
            weights = draw(st.lists(entry, min_size=len(pivots), max_size=len(pivots)))
            rows.append([sum((w * row[j] for w, row in zip(weights, rows)), Fraction(0)) for j in range(cols)])
        return Matrix(draw(st.permutations(rows)), cols)

    return build()


def test_rref_of_staircases_matches_the_fraction_oracles():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(_staircases())
    def check(a):
        red, pivots = a.rref()
        assert len(pivots) < a.rows <= a.cols
        assert (red, pivots) == _reference_rref(a)
        frac_red, frac_pivots = frac_rref(frac_rows(a), a.cols)
        assert (red, pivots) == (Matrix(frac_red, a.cols), frac_pivots)
        assert a.null_space() == _reference_null_space(frac_red, frac_pivots, a.cols)

    check()


@pytest.mark.parametrize("columns", [[(1,), (3, 4)], [(1, 2), (3,)]])
def test_from_columns_rejects_ragged_columns(columns):
    with pytest.raises(DimensionMismatchError):
        Matrix.from_columns(columns)


def test_float_entries_are_rejected():
    for build in (lambda: Matrix([[1, 0.1]]), lambda: Matrix([[1.0]]), lambda: Matrix.from_columns([(0.5,)]),
                  lambda: Matrix.identity(2).scale(0.5)):
        with pytest.raises(TypeError):
            build()


def _assert_normal_form(m):
    """Each row is ints / den in lowest terms, den > 0, a zero row over 1."""
    for i in range(m.rows):
        den, ints = m.int_row(i)
        assert type(ints) is tuple and len(ints) == m.cols and all(type(v) is int for v in ints)
        assert den > 0 and gcd(den, *ints) == 1 and (any(ints) or den == 1)


def test_equal_matrices_are_equal_across_construction_routes():
    half = Matrix([[Fraction(1, 2), 1]])
    routes = [
        Matrix([[Fraction(2, 4), 1]]),
        Matrix([["1/2", Fraction(3, 3)]]),
        Matrix.from_int_rows([(4, [2, 4])]),
        Matrix.from_columns([(Fraction(1, 2),), (1,)]),
        Matrix([[1, 2]]).scale(Fraction(1, 2)),
        Matrix([[Fraction(1, 6)], [Fraction(1, 3)]]).transpose().scale(3),
        Matrix([[Fraction(3, 2), 2]]) - Matrix([[1, 1]]),
        Matrix([[Fraction(1, 2)]]).hstack(Matrix([[1]])),
        Matrix([[1, 0], [0, 2]]).matmul(Matrix([[Fraction(1, 2), 1], [0, 0]])).take([0]),
        Matrix([[2, 4]]).rref()[0].scale(Fraction(1, 2)),
    ]
    for m in routes:
        _assert_normal_form(m)
        assert m == half and hash(m) == hash(half)
    assert Matrix([[0, Fraction(0, 5)]]).int_row(0) == (1, (0, 0))
    assert all(type(x) is Fraction for x in half.row(0) + half.column(1) + (half[0, 0], half[0, 1]))


def _entries():
    st = pytest.importorskip("hypothesis.strategies")
    # small and multi-word numerators over mixed denominators
    return st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
        st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**40)),
    )


def _shaped(rows, cols):
    st = pytest.importorskip("hypothesis.strategies")
    row = st.lists(_entries(), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows).map(lambda data: Matrix(data, cols))


def _frac_null_space(rows, cols):
    red, pivots = frac_rref(rows, cols)
    out = []
    for f in (j for j in range(cols) if j not in pivots):
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][f]
        out.append(_primitive_column(vec))
    return Matrix.from_columns(out, rows=cols)


def test_integer_core_matches_fraction_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        r, n, c = (data.draw(st.integers(0, 5)) for _ in range(3))
        a, a2, b, sq = data.draw(_shaped(r, n)), data.draw(_shaped(r, n)), data.draw(_shaped(n, c)), data.draw(
            _shaped(n, n))
        s = data.draw(_entries())
        fa, fa2, fb, fsq = frac_rows(a), frac_rows(a2), frac_rows(b), frac_rows(sq)
        red, pivots = frac_rref(fa, n)
        cases = {
            "matmul": (a.matmul(b), Matrix(frac_matmul(fa, fb, c), c)),
            "hstack": (a.hstack(a2), Matrix([x + y for x, y in zip(fa, fa2)], 2 * n)),
            "vstack": (Matrix.vstack([a, a2], n), Matrix(fa + fa2, n)),
            "transpose": (a.transpose(), Matrix(frac_transpose(fa, n), r)),
            "sub": (a - a2, Matrix([[x - y for x, y in zip(u, v)] for u, v in zip(fa, fa2)], n)),
            "scale": (a.scale(s), Matrix([[s * x for x in u] for u in fa], n)),
            "rref": (a.rref()[0], Matrix(red, n)),
            "null_space": (a.null_space(), _frac_null_space(fa, n)),
            "image_basis": (image_basis(a), Matrix(frac_transpose(frac_rref(frac_transpose(fa, n), r)[0], r),
                                                   len(frac_rref(frac_transpose(fa, n), r)[1]))),
        }
        for name, (got, want) in cases.items():
            _assert_normal_form(got)
            assert got == want, name
        assert (a.rank(), a.rref()[1]) == (len(pivots), pivots)
        assert sq.det() == frac_det(fsq)
        if frac_det(fsq):
            sred, _ = frac_rref([u + v for u, v in zip(fsq, fb)], n + c)
            x = sq.solve(b)
            _assert_normal_form(x)
            assert x == Matrix([row[n:] for row in sred], c)
        else:
            with pytest.raises(SingularMatrixError):
                sq.solve(b)

    check()


def _divisible_rows():
    """Integer rows for ``_int_echelon`` itself (no content taken first),
    built so that every update rule runs.  Row a = f (p, u, ...) has a common
    factor f and a non-unit pivot p of either sign, prime to u; row c has
    k f p (|k| >= 2) under it, so the pivot divides the entry it clears and c
    takes a sparse update.  Row b = (0, q, q m +- 1, ...), primitive, then
    pivots column 1, where c holds q t + 1 (|t| >= 3), not divisible by q:
    c next takes a dense update.  Rows zero in the first two columns with
    common factors, and multiples of combinations of all rows (scaled by
    2^bits(q), so that a and b keep the two smallest pivots), ride along.
    Each case is (rows, cols, the first two echelon rows: a and b, each made
    primitive with a positive pivot)."""
    st = pytest.importorskip("hypothesis.strategies")
    small, sign = st.integers(-9, 9), st.sampled_from([1, -1])

    @st.composite
    def build(draw):
        cols = draw(st.integers(3, 8))

        def tail(n):
            return draw(st.lists(small, min_size=n, max_size=n))

        p = draw(st.sampled_from([2, 3, 4, 6])) * draw(sign)
        q = draw(st.sampled_from([2, 3, 5])) * draw(sign)
        f, k, t = draw(st.integers(1, 4)), draw(st.integers(2, 5)) * draw(sign), draw(st.integers(3, 6)) * draw(sign)
        u = p * draw(small) + draw(sign)
        a, b = [p, u] + tail(cols - 2), [0, q, q * draw(small) + draw(sign)] + tail(cols - 3)
        rows = [[f * x for x in a], b, [k * f * p, q * t + 1 + k * f * u] + tail(cols - 2)]
        for _ in range(draw(st.integers(0, 3))):
            g = draw(st.integers(1, 6))
            rows.append([0, 0] + [g * x for x in tail(cols - 2)])
        scale = 2 ** abs(q).bit_length()
        for _ in range(draw(st.integers(0, 2))):
            w = tail(len(rows))
            rows.append([scale * sum(x * row[j] for x, row in zip(w, rows)) for j in range(cols)])
        first = [[x if row[c] > 0 else -x for x in row] for row, c in ((a, 0), (b, 1))]
        return draw(st.permutations(rows)), cols, first

    return build()


def test_divided_updates_match_the_fraction_oracles():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(_divisible_rows())
    def check(case):
        rows, cols, first = case
        frac = [[Fraction(v) for v in row] for row in rows]
        red, pivots = frac_rref(frac, cols)
        ech, got = _int_echelon(rows, cols)
        assert tuple(got) == pivots and ech[:2] == first
        for row, pc in zip(ech, got):
            assert not any(row[:pc]) and row[pc] > 0 and gcd(*row) == 1
        for tail, want, pc in zip(_back_reduce(ech, got), red, pivots):
            assert tail[0] > 0 and gcd(*tail) == 1
            assert [Fraction(v, tail[0]) for v in tail] == want[pc:]
        a = Matrix(rows, cols)
        assert a.rank() == len(pivots)
        assert a.rref() == (Matrix(red, cols), pivots)
        assert a.null_space() == _frac_null_space(frac, cols)

    check()


def test_integer_core_matches_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def to_fractions(dm):
        return [[_qq(x) for x in row] for row in dm.to_list()]

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        r, n, c = (data.draw(st.integers(1, 5)) for _ in range(3))
        a, a2, b, sq = data.draw(_shaped(r, n)), data.draw(_shaped(r, n)), data.draw(_shaped(n, c)), data.draw(
            _shaped(n, n))
        da, da2, db, dsq = (_sympy_matrix(m) for m in (a, a2, b, sq))
        assert [list(a.matmul(b).row(i)) for i in range(r)] == to_fractions(da.matmul(db))
        assert [list((a - a2).row(i)) for i in range(r)] == to_fractions(da - da2)
        assert [list(a.hstack(a2).row(i)) for i in range(r)] == to_fractions(da.hstack(da2))
        assert [list(Matrix.vstack([a, a2], n).row(i)) for i in range(2 * r)] == to_fractions(da.vstack(da2))
        assert [list(a.transpose().row(i)) for i in range(n)] == to_fractions(da.transpose())
        assert a.rank() == da.rank()
        sred, spivots = da.rref()
        red, pivots = a.rref()
        assert pivots == tuple(spivots)
        assert [list(red.row(i)) for i in range(red.rows)] == to_fractions(sred)[: len(pivots)]
        kernel = [_primitive_column([_qq(x) for x in row]) for row in da.nullspace().to_list()]
        assert a.null_space() == Matrix.from_columns(kernel, rows=n)
        assert sq.det() == _qq(dsq.det())

    check()


def test_take_selects_a_column_window_in_normal_form():
    m = Matrix([[Fraction(1, 2), 2, 3, 0], [4, Fraction(1, 3), 5, 6]])
    assert m.take([1, None], 1, 3) == Matrix([[Fraction(1, 3), 5], [0, 0]])
    assert m.take([0], 0, 2) == Matrix([[Fraction(1, 2), 2]])
    assert m.take([0], 2, 4) == Matrix([[3, 0]])
    assert m.take([0, 1], 0, 4) == m and m.take([0], 3, 3).cols == 0
    for got in (m.take([1, None], 1, 3), m.take([0], 2, 4)):
        _assert_normal_form(got)
    # an empty right block leaves the matrix as it is
    assert m.hstack(Matrix.zeros(2, 0)) is m
