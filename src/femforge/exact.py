"""Exact dense linear algebra over the rationals.

A ``Matrix`` stores each row as a tuple of Python integers and one positive
denominator: row i is ``ints_i / den_i`` in lowest terms, that is
``gcd(den_i, *ints_i) == 1`` and a zero row has ``den_i == 1``.  The storage
of a matrix is therefore canonical, and ``==`` and ``hash`` compare it
directly.  Every operation runs on these integers.  A product takes one lcm
over the right factor's row denominators and accumulates each output row as
a sparse sum of right rows, one per nonzero of the left row, with one gcd
per output row; ``kron_sum`` scatters weighted blocks into component
columns the same way.  Elimination and back-substitution work on the
rows scaled to coprime integers, by fraction-free cross-multiplication with
gcd reduction to keep entries small; where the pivot divides the entry it
clears, a row is updated only where the pivot row is nonzero, so sparse
pivot rows make cheap updates.  ``Fraction``s are created only by the
accessors ``row``, ``column`` and ``[i, j]``.  There is no floating-point
path anywhere in this module, and a ``float`` entry is rejected.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

_INT = {int}
_ZERO = Fraction(0)


class SingularMatrixError(ArithmeticError):
    """Raised when a solve requires an invertible matrix and rank falls short."""


class DimensionMismatchError(ValueError):
    """Raised when operands do not share a compatible ambient dimension."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"exact arithmetic takes no float, got {x!r}")
    return Fraction(x)


def _cleared(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(l, ints) with ``ints[j] == values[j] * l`` and l the lcm of denominators.

    Since l is the lcm of the reduced denominators, ``gcd(l, *ints) == 1``."""
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


def _reduced(den: int, ints: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """The row ``ints / den`` (den > 0) in lowest terms, as (den, ints)."""
    ints = tuple(ints)
    g = gcd(den, *ints)
    if g == 1:
        return den, ints
    return den // g, tuple(v // g for v in ints)


def _row_of(values: Iterable) -> tuple[int, tuple[int, ...]]:
    row = tuple(values)
    if set(map(type, row)) <= _INT:
        return 1, row
    den, ints = _cleared([x if type(x) is Fraction else _as_fraction(x) for x in row])
    return den, tuple(ints)


def _width(rows: list[tuple[int, tuple[int, ...]]], cols: int | None) -> int:
    """``cols``, or the width of the first row when None; every row must have it."""
    if cols is None:
        cols = len(rows[0][1]) if rows else 0
    if any(len(ints) != cols for _, ints in rows):
        raise DimensionMismatchError("ragged rows")
    return cols


class Matrix:
    """Immutable dense rational matrix, stored as integer rows with one
    denominator each (see the module docstring).

    Entries may be ints, ``Fraction``s or anything else ``Fraction`` converts
    exactly, but not floats.  ``cols`` gives the width of a matrix with no
    rows; with rows it must match their length.
    """

    __slots__ = ("rows", "cols", "_dens", "_ints", "_rank", "_rref")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = [_row_of(row) for row in data]
        self._fill(rows, _width(rows, cols))

    def _fill(self, rows: list[tuple[int, tuple[int, ...]]], cols: int) -> None:
        self._dens, self._ints = zip(*rows) if rows else ((), ())
        self.rows = len(rows)
        self.cols = cols
        self._rank = None
        self._rref = None

    @classmethod
    def _of(cls, rows: list[tuple[int, tuple[int, ...]]], cols: int) -> "Matrix":
        """A matrix over (den, ints) rows in lowest terms, taken as they are."""
        m = cls.__new__(cls)
        m._fill(rows, cols)
        return m

    @classmethod
    def from_int_rows(cls, rows: Iterable[tuple[int, Sequence[int]]], cols: int | None = None) -> "Matrix":
        """The matrix whose row i is ``ints_i / den_i`` for the (den_i, ints_i)
        of ``rows``: integer rows, each over a positive denominator."""
        out = [_reduced(den, ints) for den, ints in rows]
        return cls._of(out, _width(out, cols))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of([(1, (0,) * cols)] * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of([(1, (0,) * i + (1,) + (0,) * (n - 1 - i)) for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        columns = [tuple(col) for col in columns]
        if not columns:
            return cls.zeros(rows or 0, 0)
        n = len(columns[0]) if rows is None else rows
        if any(len(col) != n for col in columns):
            raise DimensionMismatchError("ragged columns")
        return cls(zip(*columns), len(columns))

    def int_row(self, i: int) -> tuple[int, tuple[int, ...]]:
        """(den, ints) with row i equal to ``ints / den``, in lowest terms."""
        return self._dens[i], self._ints[i]

    def take(self, indices: Iterable[int | None], start: int = 0, stop: int | None = None) -> "Matrix":
        """The rows of self at ``indices`` (None gives a zero row), in the
        columns from ``start`` up to ``stop`` (the last column when None)."""
        stop = self.cols if stop is None else stop
        width = stop - start
        zero = (1, (0,) * width)
        dens, ints = self._dens, self._ints
        if width != self.cols:
            out = [zero if i is None else _reduced(dens[i], ints[i][start:stop]) for i in indices]
        else:
            out = [zero if i is None else (dens[i], ints[i]) for i in indices]
        return Matrix._of(out, width)

    def column(self, j: int) -> tuple:
        return tuple(Fraction(ints[j], den) if ints[j] else _ZERO for den, ints in zip(self._dens, self._ints))

    def columns(self) -> list[tuple]:
        return [self.column(j) for j in range(self.cols)]

    def row(self, i: int) -> tuple:
        den = self._dens[i]
        return tuple(Fraction(v, den) if v else _ZERO for v in self._ints[i])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self._ints[i][j], self._dens[i])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and (self.rows, self.cols, self._dens, self._ints) == (
            other.rows, other.cols, other._dens, other._ints)

    def __hash__(self):
        return hash((self.rows, self.cols, self._dens, self._ints))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def transpose(self) -> "Matrix":
        cols = zip(*self._ints) if self.rows else [()] * self.cols
        l = lcm(*self._dens)
        if l == 1:
            return Matrix._of([(1, col) for col in cols], self.rows)
        f = [l // den for den in self._dens]
        return Matrix._of([_reduced(l, map(mul, col, f)) for col in cols], self.rows)

    @classmethod
    def vstack(cls, blocks: Sequence["Matrix"], cols: int) -> "Matrix":
        """The rows of ``blocks`` in order; every block is ``cols`` wide."""
        if any(b.cols != cols for b in blocks):
            raise DimensionMismatchError("vstack needs equal column counts")
        return cls._of([row for b in blocks for row in zip(b._dens, b._ints)], cols)

    @classmethod
    def block_diag(cls, a: "Matrix", b: "Matrix") -> "Matrix":
        """The block diagonal matrix [[a, 0], [0, b]]."""
        return cls.vstack([a.hstack(cls.zeros(a.rows, b.cols)), cls.zeros(b.rows, a.cols).hstack(b)],
                          a.cols + b.cols)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack needs equal row counts")
        if not other.cols:
            return self
        out = []
        for da, a, db, b in zip(self._dens, self._ints, other._dens, other._ints):
            if da == db:
                out.append((da, a + b))
            else:
                # over l = lcm(da, db) the joined row stays in lowest terms: a
                # prime power exactly dividing l divides da (say) exactly, and
                # some entry of a is prime to it
                l = lcm(da, db)
                fa, fb = l // da, l // db
                out.append((l, tuple(v * fa for v in a) + tuple(v * fb for v in b)))
        return Matrix._of(out, self.cols + other.cols)

    def matmul(self, other: "Matrix") -> "Matrix":
        """Product over the integers.

        With l the lcm of other's row denominators, other is ``B / l`` for an
        integer matrix B, so row i of the product is ``(a_i B) / (den_i l)``,
        with one gcd per row.  ``a_i B`` is accumulated over the nonzero
        entries of a_i and B alone: the trace, DoF and basis matrices are
        mostly zeros.  A row of B is scaled to l and sparsified the first
        time a nonzero of A meets it, so rows no nonzero meets cost nothing.
        """
        if self.cols != other.rows:
            raise DimensionMismatchError("matmul shape mismatch")
        if other.is_identity():
            return self
        if self.is_identity():
            return other
        l = lcm(*other._dens)
        dens, ints = other._dens, other._ints
        sparse: list = [None] * other.rows
        out = []
        for den, a in zip(self._dens, self._ints):
            acc = [0] * other.cols
            for i, v in enumerate(a):
                if v:
                    row = sparse[i]
                    if row is None:
                        f = l // dens[i]
                        row = sparse[i] = [(j, b * f) for j, b in enumerate(ints[i]) if b]
                    for j, b in row:
                        acc[j] += v * b
            out.append(_reduced(den * l, acc))
        return Matrix._of(out, other.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.matmul(other)

    def scale(self, c) -> "Matrix":
        c = _as_fraction(c)
        p, q = c.numerator, c.denominator
        return Matrix._of([_reduced(den * q, [v * p for v in ints])
                           for den, ints in zip(self._dens, self._ints)], self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("subtraction shape mismatch")
        out = []
        for da, a, db, b in zip(self._dens, self._ints, other._dens, other._ints):
            l = lcm(da, db)
            fa, fb = l // da, l // db
            out.append(_reduced(l, [x * fa - y * fb for x, y in zip(a, b)]))
        return Matrix._of(out, self.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self._ints))

    def is_identity(self) -> bool:
        n = self.cols
        return (self.rows == n and self._dens.count(1) == n
                and all(row[i] == 1 and row.count(0) == n - 1 for i, row in enumerate(self._ints)))

    # -- elimination core ------------------------------------------------------

    def _int_rows(self) -> list[list[int]]:
        """Rows scaled to coprime integers (scaling preserves row space)."""
        return [_primitive(list(ints)) for ints in self._ints]

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
            return Fraction(1)
        rows = [list(ints) for ints in self._ints]
        sign = 1
        prev = 1
        for c in range(n - 1):
            piv = None
            for i in range(c, n):
                if rows[i][c]:
                    piv = i
                    break
            if piv is None:
                return Fraction(0)
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
        return Fraction(sign * rows[n - 1][n - 1], prod(self._dens))

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns (rational, leading 1s)."""
        if self._rref is None:
            ech, pivots = _int_echelon(self._int_rows(), self.cols)
            # each back-reduced row is primitive, so over its pivot it is in
            # lowest terms
            out = []
            for row, pc in zip(_back_reduce(ech, pivots), pivots):
                p = row[pc]
                out.append((p, tuple(row)) if p > 0 else (-p, tuple(-v for v in row)))
            self._rref = (Matrix._of(out, self.cols), tuple(pivots))
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
        red, pivots = self.hstack(b).rref()
        if len(pivots) < self.cols or any(p >= self.cols for p in pivots):
            raise SingularMatrixError(f"matrix rank {self.rank()} < {self.cols}")
        return red.take(range(self.cols), self.cols)


def rref_kernel(red: Matrix, pivots: Sequence[int], cols: int) -> Matrix:
    """Columns spanning ``{x : red[:, :cols] x = 0}`` for a reduced row
    echelon form ``red`` whose pivots all lie among its first ``cols``
    columns (integer, gcd-reduced, leading entry positive)."""
    pivot_set = set(pivots)
    dens, rows = red._dens, red._ints
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        # x_f = 1 and x_pc = -red[r, f], scaled by the lcm of the reduced
        # denominators of column f; that lcm leaves the vector primitive.
        l = lcm(*(den // gcd(den, ints[f]) for den, ints in zip(dens, rows)))
        vec = [0] * cols
        vec[f] = l
        for pc, den, ints in zip(pivots, dens, rows):
            vec[pc] = -(ints[f] * l // den)
        if next(v for v in vec if v) < 0:
            vec = [-v for v in vec]
        basis.append(vec)
    return Matrix.from_columns(basis, rows=cols)


def kron_sum(terms: Sequence[tuple[Matrix, Sequence]], width: int) -> Matrix:
    """``sum_p A_p (x) w_p`` for the (A_p, w_p) of ``terms``: matrices A_p of
    one shape and rational row vectors w_p of length ``width``, so that
    column ``j * width + c`` is ``sum_p w_p[c] A_p[:, j]``.  Each output row
    is accumulated in integers over one common denominator."""
    rows, cols = terms[0][0].rows, terms[0][0].cols
    if any((a.rows, a.cols) != (rows, cols) for a, _ in terms):
        raise DimensionMismatchError("kron_sum needs equal shapes")
    parts = []
    for a, w in terms:
        lw, wints = _cleared(w)
        nonzero = [(c, v) for c, v in enumerate(wints) if v]
        if nonzero:
            parts.append((a._dens, a._ints, lw, nonzero))
    out = []
    for i in range(rows):
        l = lcm(*(dens[i] * lw for dens, _, lw, _ in parts))
        acc = [0] * (cols * width)
        for dens, ints, lw, nonzero in parts:
            f = l // (dens[i] * lw)
            for j, v in enumerate(ints[i]):
                if v:
                    v *= f
                    base = j * width
                    for c, wc in nonzero:
                        acc[base + c] += v * wc
        out.append(_reduced(l, acc))
    return Matrix._of(out, cols * width)


def _int_echelon(rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Row echelon form over Z by fraction-free cross-multiplication.

    Pivots are chosen among nonzero candidates by smallest bit length to slow
    entry growth; each updated row is divided by its gcd, which keeps the
    intermediate integers near the size Bareiss division would give.  Pivot
    rows are made positive at their pivot; under a pivot 1 a row changes
    only where the pivot row is nonzero, so it is updated there alone.
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
        row = rows[best]
        rows[best] = rows[r]
        if row[c] < 0:
            row = [-x for x in row]
        rows[r] = row
        p = row[c]
        if p == 1:
            nonzero = [(j, y) for j, y in enumerate(row) if y and j > c]
            for i in range(r + 1, m):
                cur = rows[i]
                a = cur[c]
                if a:
                    cur[c] = 0
                    for j, y in nonzero:
                        cur[j] -= a * y
                    rows[i] = _primitive(cur)
        else:
            piv_tail = row[c + 1:]
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
    (pivot p > 0, g = gcd(p, f)) becomes ``(p/g) row - (f/g) row_r``, divided
    by its content; when p divides f that changes the row only where row_r
    is nonzero.  Row r divided by its pivot is then row r of the RREF.
    """
    for r in range(len(pivots) - 1, 0, -1):
        pc = pivots[r]
        row_r = ech[r]
        p = row_r[pc]
        nonzero = None
        for i in range(r):
            row_i = ech[i]
            f = row_i[pc]
            if not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a == 1:
                if nonzero is None:
                    nonzero = [(j, y) for j, y in enumerate(row_r) if y]
                for j, y in nonzero:
                    row_i[j] -= b * y
                ech[i] = _primitive(row_i)
            else:
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


def is_direct_sum(a: Matrix, b: Matrix) -> bool:
    _check_ambient(a, b)
    return a.hstack(b).rank() == a.rank() + b.rank()
