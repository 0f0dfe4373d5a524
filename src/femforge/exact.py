"""Exact dense linear algebra over the rationals.

Every operation here is exact and runs on Python integers.  Rows (and, for
a product, the columns of the right factor) are cleared of denominators
first; elimination and back-substitution then work by fraction-free
cross-multiplication with gcd reduction to keep entries small, and a product
entry is one integer dot product.  ``Fraction``s are created only for the
entries a method returns.  There is no floating-point path anywhere in this
module.

Scalars are ``fractions.Fraction`` values, which already guarantee lowest
terms and a positive denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)
_FRACTION = {Fraction}


class SingularMatrixError(ArithmeticError):
    """Raised when a solve requires an invertible matrix and rank falls short."""


class DimensionMismatchError(ValueError):
    """Raised when operands do not share a compatible ambient dimension."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _cleared(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(l, ints) with ``ints[j] == values[j] * l`` and l the lcm of denominators."""
    l = 1
    for x in values:
        d = x.denominator
        if l % d:
            l = l // gcd(l, d) * d
    return l, [x.numerator * (l // x.denominator) for x in values]


def _primitive(ints: list[int]) -> list[int]:
    """Divide an integer row by its content (the gcd of its entries)."""
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


class Matrix:
    """Immutable dense matrix with Fraction entries (row-major).

    ``cols`` gives the width of a matrix with no rows; with rows it must
    match their length.
    """

    __slots__ = ("rows", "cols", "_rows", "_rank", "_rref")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = [tuple(row) for row in data]
        rows = [row if set(map(type, row)) <= _FRACTION else tuple(map(_as_fraction, row)) for row in rows]
        self._rows = tuple(rows)
        self.rows = len(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        self.cols = cols
        for row in rows:
            if len(row) != self.cols:
                raise DimensionMismatchError("ragged rows")
        self._rank = None
        self._rref = None

    @classmethod
    def _trusted(cls, rows: Iterable[Sequence[Fraction]], cols: int) -> "Matrix":
        """A matrix over rows of ``Fraction``s this module built itself, taken
        as they are: no entry conversion and no width check."""
        m = cls.__new__(cls)
        m._rows = tuple(map(tuple, rows))
        m.rows = len(m._rows)
        m.cols = cols
        m._rank = None
        m._rref = None
        return m

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[_ZERO] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        columns = [tuple(col) for col in columns]
        if not columns:
            return cls.zeros(rows or 0, 0)
        n = len(columns[0])
        return cls([[columns[j][i] for j in range(len(columns))] for i in range(n)], len(columns))

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self._rows)

    def columns(self) -> list[tuple]:
        return [self.column(j) for j in range(self.cols)]

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and (self.rows, self.cols, self._rows) == (other.rows, other.cols, other._rows)

    def __hash__(self):
        return hash((self.rows, self.cols, self._rows))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def transpose(self) -> "Matrix":
        return Matrix._trusted(zip(*self._rows) if self.rows else [()] * self.cols, self.rows)

    @classmethod
    def vstack(cls, blocks: Sequence["Matrix"], cols: int) -> "Matrix":
        """The rows of ``blocks`` in order; every block is ``cols`` wide."""
        if any(b.cols != cols for b in blocks):
            raise DimensionMismatchError("vstack needs equal column counts")
        return cls._trusted([row for b in blocks for row in b._rows], cols)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack needs equal row counts")
        return Matrix._trusted([a + b for a, b in zip(self._rows, other._rows)], self.cols + other.cols)

    def matmul(self, other: "Matrix") -> "Matrix":
        """Product with one integer dot product per entry.

        Rows of self and columns of other are cleared of denominators (da, db)
        first, so entry (i, j) is ``Fraction(row_i . col_j, da_i * db_j)``.
        """
        if self.cols != other.rows:
            raise DimensionMismatchError("matmul shape mismatch")
        if other.is_identity():
            return self
        if self.is_identity():
            return other
        cols = [_cleared(col) for col in zip(*other._rows)] if other.rows else [(1, [])] * other.cols
        out = []
        for row in self._rows:
            da, a = _cleared(row)
            out.append([Fraction(s, da * db) if (s := sum(map(mul, a, b))) else _ZERO for db, b in cols])
        return Matrix._trusted(out, other.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.matmul(other)

    def scale(self, c) -> "Matrix":
        c = _as_fraction(c)
        return Matrix([[c * x for x in row] for row in self._rows], self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("subtraction shape mismatch")
        return Matrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)], self.cols)

    def is_zero(self) -> bool:
        return all(not x for row in self._rows for x in row)

    def is_identity(self) -> bool:
        # tuple.count compares by identity first, so the unit rows that
        # ``identity`` builds from shared zeros are scanned at C speed
        n = self.cols
        return self.rows == n and all(row[i] == 1 and row.count(_ZERO) == n - 1 for i, row in enumerate(self._rows))

    # -- elimination core ------------------------------------------------------

    def _int_rows(self) -> list[list[int]]:
        """Rows scaled to coprime integers (scaling preserves row space)."""
        return [_primitive(_cleared(row)[1]) for row in self._rows]

    def rank(self) -> int:
        if self._rank is None:
            _, pivots = _int_echelon(self._int_rows(), self.cols)
            self._rank = len(pivots)
        return self._rank

    def det(self) -> Fraction:
        """Determinant via Bareiss fraction-free elimination."""
        if self.rows != self.cols:
            raise DimensionMismatchError("det needs a square matrix")
        n = self.rows
        if n == 0:
            return _ONE
        scale = 1
        rows = []
        for row in self._rows:
            denom_lcm, ints = _cleared(row)
            scale *= denom_lcm
            rows.append(ints)
        sign = 1
        prev = 1
        for c in range(n - 1):
            piv = None
            for i in range(c, n):
                if rows[i][c]:
                    piv = i
                    break
            if piv is None:
                return _ZERO
            if piv != c:
                rows[c], rows[piv] = rows[piv], rows[c]
                sign = -sign
            p = rows[c][c]
            for i in range(c + 1, n):
                ric = rows[i][c]
                ri, rc = rows[i], rows[c]
                # Bareiss update: the division by the previous pivot is exact.
                rows[i] = [(p * ri[j] - ric * rc[j]) // prev for j in range(c + 1, n)]
                rows[i][:0] = [0] * (c + 1)
            prev = p
        return Fraction(sign * rows[n - 1][n - 1], scale)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns (rational, leading 1s)."""
        if self._rref is None:
            ech, pivots = _int_echelon(self._int_rows(), self.cols)
            reduced = [
                [Fraction(v, row[pc]) if v else _ZERO for v in row]
                for row, pc in zip(_back_reduce(ech, pivots), pivots)
            ]
            self._rref = (Matrix._trusted(reduced, self.cols), tuple(pivots))
            if self._rank is None:
                self._rank = len(pivots)
        return self._rref

    def null_space(self) -> "Matrix":
        """Columns form a basis of ``{x : Ax = 0}`` (integer, gcd-reduced,
        leading entry positive)."""
        return rref_kernel(*self.rref(), self.cols)

    def solve(self, b: "Matrix") -> "Matrix":
        """Exact X with ``self @ X = b``; requires square full-rank self."""
        if self.rows != self.cols:
            raise DimensionMismatchError("solve needs a square matrix")
        if b.rows != self.rows:
            raise DimensionMismatchError("right-hand side row count mismatch")
        aug = self.hstack(b)
        red, pivots = aug.rref()
        if len(pivots) < self.cols or any(p >= self.cols for p in pivots):
            raise SingularMatrixError(f"matrix rank {self.rank()} < {self.cols}")
        return Matrix._trusted([red.row(i)[self.cols:] for i in range(self.cols)], b.cols)


def rref_kernel(red: Matrix, pivots: Sequence[int], cols: int) -> Matrix:
    """Columns spanning ``{x : red[:, :cols] x = 0}`` for a reduced row
    echelon form ``red`` whose pivots all lie among its first ``cols``
    columns (integer, gcd-reduced, leading entry positive)."""
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        # x_f = 1 and x_pc = -red[r, f], scaled by the lcm of the
        # denominators; that lcm leaves the vector primitive already.
        den, ints = _cleared(red.column(f))
        vec = [0] * cols
        vec[f] = den
        for pc, v in zip(pivots, ints):
            vec[pc] = -v
        if next(v for v in vec if v) < 0:
            vec = [-v for v in vec]
        basis.append(vec)
    return Matrix.from_columns(basis, rows=cols)


def _int_echelon(rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Row echelon form over Z by fraction-free cross-multiplication.

    Pivots are chosen among nonzero candidates by smallest bit length to slow
    entry growth; each updated row is divided by its gcd, which keeps the
    intermediate integers near the size Bareiss division would give.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == m:
            break
        best = -1
        best_bits = None
        for i in range(r, m):
            v = rows[i][c]
            if v:
                bits = abs(v).bit_length()
                if best_bits is None or bits < best_bits:
                    best, best_bits = i, bits
                    if bits == 1:
                        break
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        p = rows[r][c]
        piv_tail = rows[r][c + 1:]
        lead = [0] * (c + 1)
        for i in range(r + 1, m):
            cur = rows[i]
            a = cur[c]
            if a:
                rows[i] = lead + _primitive([p * x - a * y for x, y in zip(cur[c + 1:], piv_tail)])
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _back_reduce(ech: list[list[int]], pivots: list[int]) -> list[list[int]]:
    """Clear every pivot column above its pivot, in integers and in place.

    Bottom-up, each row above pivot row r with entry f in r's pivot column
    (pivot p, g = gcd(p, f)) becomes ``(p/g) row - (f/g) row_r``, divided by
    its content.  Row r divided by its pivot is then row r of the RREF.
    """
    for r in range(len(pivots) - 1, 0, -1):
        pc = pivots[r]
        row_r = ech[r]
        p = row_r[pc]
        for i in range(r):
            row_i = ech[i]
            f = row_i[pc]
            if not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            ech[i] = _primitive([a * x - b * y for x, y in zip(row_i, row_r)])
    return ech


# -- column-space (subspace) operations ----------------------------------------
#
# Subspaces are represented by matrices whose columns span them, all expressed
# in one shared ambient coordinate frame (the row index).  The canonical form
# is the reduced column echelon form, so equality is syntactic comparison.


def _check_ambient(a: Matrix, b: Matrix) -> None:
    if a.rows != b.rows:
        raise DimensionMismatchError(f"ambient dimensions differ: {a.rows} vs {b.rows}")


def image_basis(a: Matrix) -> Matrix:
    """Canonical basis of the column space (reduced column echelon form)."""
    return a.transpose().rref()[0].transpose()


def subspace_equal(a: Matrix, b: Matrix) -> bool:
    _check_ambient(a, b)
    return image_basis(a) == image_basis(b)


def subspace_sum(a: Matrix, b: Matrix) -> Matrix:
    _check_ambient(a, b)
    return image_basis(a.hstack(b))


def subspace_contains(a: Matrix, b: Matrix) -> bool:
    """True iff every column of b lies in the column space of a."""
    _check_ambient(a, b)
    return a.hstack(b).rank() == a.rank()


def subspace_intersection(a: Matrix, b: Matrix) -> Matrix:
    _check_ambient(a, b)
    ker = a.hstack(b.scale(-1)).null_space()
    return image_basis(a.matmul(Matrix([ker.row(i) for i in range(a.cols)], ker.cols)))


def is_direct_sum(a: Matrix, b: Matrix) -> bool:
    _check_ambient(a, b)
    return a.hstack(b).rank() == a.rank() + b.rank()
