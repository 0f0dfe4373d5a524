"""Test-side reference routines: independent oracles that femforge itself
does not call.

``integrate_barycentric`` is the closed form for barycentric monomials,
``gram_matrix`` the entrywise Gram matrix of a basis, and the subspace
containment and intersection tests are column-space routines over
``exact.Matrix``.
"""

from fractions import Fraction
from math import factorial
from typing import Sequence

from femforge.exact import Matrix, _check_ambient, image_basis
from femforge.integrate import pair_simplex
from femforge.simplex import SimplexFrame
from femforge.spaces import PolySpace, _common_frames


def integrate_barycentric(frame: SimplexFrame, alpha: Sequence[int]) -> Fraction:
    """Closed form for int_K lambda^alpha: alpha! d! / (|alpha| + d)! |K|.

    An independent oracle against the Cartesian substitution route.
    """
    if len(alpha) != frame.d + 1:
        raise ValueError("alpha indexes the d+1 barycentric coordinates")
    num = 1
    for a in alpha:
        num *= factorial(a)
    return Fraction(num * factorial(frame.d), factorial(sum(alpha) + frame.d)) * frame.volume


def gram_matrix(frame: SimplexFrame, polys) -> Matrix:
    """Exact symmetric positive-definite Gram matrix of a basis (a list of
    polynomials or any space exposing members())."""
    if hasattr(polys, "members"):
        polys = polys.members()
    polys = list(polys)
    n = len(polys)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = pair_simplex(frame, polys[i], polys[j])
            rows[i][j] = val
            rows[j][i] = val
    return Matrix(rows)


def subspace_contains(a: Matrix, b: Matrix) -> bool:
    """True iff every column of b lies in the column space of a."""
    _check_ambient(a, b)
    return a.hstack(b).rank() == a.rank()


def subspace_intersection(a: Matrix, b: Matrix) -> Matrix:
    _check_ambient(a, b)
    ker = a.hstack(b.scale(-1)).null_space()
    return image_basis(a.matmul(Matrix([ker.row(i) for i in range(a.cols)], ker.cols)))


def space_contains(a: PolySpace, b: PolySpace) -> bool:
    ma, mb = _common_frames(a, b)
    return subspace_contains(ma, mb)


# -- all-Fraction matrix algebra ------------------------------------------------
#
# Matrices as lists of rows of Fractions, one Fraction operation at a time:
# the oracle for the integer-row core of ``exact.Matrix``.  Widths are passed
# explicitly so that shapes with no rows keep their column count.


def frac_rows(m: Matrix) -> list[list[Fraction]]:
    return [list(m.row(i)) for i in range(m.rows)]


def frac_transpose(rows: list, cols: int) -> list[list[Fraction]]:
    return [[row[j] for row in rows] for j in range(cols)]


def frac_matmul(a: list, b: list, cols: int) -> list[list[Fraction]]:
    return [[sum((x * row[j] for x, row in zip(ra, b)), Fraction(0)) for j in range(cols)] for ra in a]


def frac_rref(rows: list, cols: int) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Gauss-Jordan elimination: the (unique) reduced row echelon form's
    nonzero rows and its pivot columns."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], tuple(pivots)


def frac_det(rows: list) -> Fraction:
    rows = [list(row) for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det
