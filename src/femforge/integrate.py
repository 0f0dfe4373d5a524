"""Exact integration of shaped polynomials over a simplex and its faces.

Volume integrals map the simplex affinely onto the reference simplex and use
the factorial formula for reference monomials,

    int_{ref^m} s^beta ds = beta! / (|beta| + m)!.

The frame's integer power table (``SimplexFrame.powers``) gives x^e in the
reference coordinates as ``table / D^|e|``, and the formula is summed over
the table in integers over the common denominator ``(|e| + d)!``: one
``Fraction`` per monomial moment, memoized in ``frame._mono_integrals``.
Pairings and frame Gram matrices are sums of these moments.

The Bernstein moments int_K x^e lambda^alpha (``bernstein_gram``) come from
the Dirichlet integral over the d + 1 barycentric coordinates,

    int_K lambda^a dx = a! d! |K| / (|a| + d)!,

with x^e taken from the same power table: the reference coordinates are
s_j = lambda_j (j >= 1) and lambda_0 = 1 - sum s, so s^beta lambda^alpha is
lambda^a with a = (alpha_0, beta + alpha_1..d).  No product with the
Bernstein matrix is taken.

Face integrals use the face's canonical chart with its intrinsic Lebesgue
measure; the (generally irrational) metric area factor is intentionally not
applied.  Every face functional built on top of this is therefore a fixed
positive multiple of its unit-normal counterpart, which leaves all rank,
unisolvence and single-valuedness statements untouched, and the canonical
chart guarantees the multiple agrees from both sides of a shared face.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, perm, prod
from operator import add

from .exact import Matrix, _cleared
from .poly import Polynomial, dot, frobenius_weight, monomials, ncomp
from .poly import frame as shape_frame
from .simplex import Face, SimplexFrame, _bernstein_alphas

_ZERO = Fraction(0)


def _dirichlet_weight(a: tuple[int, ...], top: int) -> int:
    """a! top! / (|a| + m)!: the integral of lambda^a over the reference
    simplex of dimension m = len(a) - 1, times top!."""
    return prod(map(factorial, a)) * perm(top, top - sum(a) - len(a) + 1)


@lru_cache(maxsize=None)
def _reference_weight(beta: tuple[int, ...], top: int) -> int:
    """The integral of s^beta = lambda^(0, beta) over the reference simplex
    of dimension len(beta), times top!."""
    return _dirichlet_weight((0, *beta), top)


@lru_cache(maxsize=None)
def reference_monomial_integral(exps: tuple[int, ...]) -> Fraction:
    """Integral of s^exps over the reference simplex of dimension len(exps)."""
    top = sum(exps) + len(exps)
    return Fraction(_reference_weight(exps, top), factorial(top))


def _monomial_integral(frame: SimplexFrame, exps: tuple[int, ...]) -> Fraction:
    got = frame._mono_integrals.get(exps)
    if got is None:
        # x^e = table / den in the reference coordinates s; sum the factorial
        # formula over it in integers, over the common denominator (|e| + d)!
        den, table = frame.powers.power(exps)
        top = sum(exps) + frame.d
        num = sum(v * _reference_weight(beta, top) for beta, v in table.items())
        jac = frame.jac_factor
        got = Fraction(jac.numerator * num, jac.denominator * den * factorial(top))
        frame._mono_integrals[exps] = got
    return got


def integrate_simplex(frame: SimplexFrame, p: Polynomial) -> Fraction:
    """Exact integral of a scalar polynomial over the simplex."""
    if p.kind != "scalar":
        raise ValueError("integrate_simplex needs a scalar integrand")
    return sum((v * _monomial_integral(frame, exps) for (_, exps), v in p.terms.items()), _ZERO)


def integrate_face(face: Face, p: Polynomial) -> Fraction:
    """Integral over the face's canonical chart (intrinsic chart measure)."""
    if p.kind != "scalar":
        raise ValueError("integrate_face needs a scalar integrand")
    return sum((v * reference_monomial_integral(exps) for (_, exps), v in p.terms.items()), _ZERO)


def pair_simplex(frame: SimplexFrame, p: Polynomial, q: Polynomial) -> Fraction:
    """L2 pairing over K: product / dot / Frobenius per shape."""
    if p.kind != q.kind or p.d != q.d or p.vdim != q.vdim:
        return integrate_simplex(frame, dot(p, q))  # let dot raise the shape error
    by_comp: dict = {}
    for (c, eb), vb in q.terms.items():
        by_comp.setdefault(c, []).append((eb, vb))
    total = _ZERO
    for (c, ea), va in p.terms.items():
        lst = by_comp.get(c)
        if not lst:
            continue
        w = frobenius_weight(p.kind, p.vdim, c)
        acc = _ZERO
        for eb, vb in lst:
            acc += vb * _monomial_integral(frame, tuple(a + b for a, b in zip(ea, eb)))
        total += w * va * acc
    return total


@lru_cache(maxsize=None)
def chart_mass(m: int, k1: int, k2: int) -> Matrix:
    """Chart-measure mass matrix of the chart monomials in m variables: rows of
    degree <= k1, columns of degree <= k2."""
    return Matrix(
        [[reference_monomial_integral(tuple(x + y for x, y in zip(a, b))) for b in monomials(m, k2)]
         for a in monomials(m, k1)]
    )


def _scattered(kind: str, d: int, k1: int, scalar: dict, cols: int) -> Matrix:
    """The shaped Gram matrix with rows the frame (kind, d, k1), from one
    integer row ``scalar[e] = (den, ints)`` per monomial e over ``cols``
    scalar columns, weighted into the columns of each component c."""
    nc = ncomp(kind, d)
    weights = [frobenius_weight(kind, d, c) for c in range(nc)]
    rows = []
    for c, e in shape_frame(kind, d, k1):
        den, ints = scalar[e]
        row = [0] * (nc * cols)
        row[c::nc] = [weights[c] * v for v in ints]
        rows.append((den, row))
    return Matrix.from_int_rows(rows, nc * cols)


def frame_gram(frame: SimplexFrame, kind: str, k1: int, k2: int) -> Matrix:
    """The ``pair_simplex`` Gram matrix of the shaped monomial frames
    ``(kind, d, k1)`` (rows) and ``(kind, d, k2)`` (columns)."""
    d = frame.d
    cols = monomials(d, k2)
    scalar = {e: _cleared([_monomial_integral(frame, tuple(map(add, e, e2))) for e2 in cols])
              for e in monomials(d, k1)}
    return _scattered(kind, d, k1, scalar, len(cols))


def bernstein_gram(frame: SimplexFrame, kind: str, k1: int, k2: int) -> Matrix:
    """``frame_gram(frame, kind, k1, k2)`` times the Bernstein matrix
    ``frame.bernstein(kind, k2)``, without that product: column (alpha, c)
    pairs the rows with D^k2 lambda^alpha e_c, each entry a sum of Dirichlet
    weights over the power table of x^e."""
    d = frame.d
    alphas = _bernstein_alphas(d, k2)
    jac, scale = frame.jac_factor, frame._bary.den ** k2
    scalar = {}
    for e in monomials(d, k1):
        # x^e = table / den over s, and s^beta lambda^alpha = lambda^(alpha_0, beta + alpha_1..d)
        den, table = frame.powers.power(e)
        top = sum(e) + k2 + d
        ints = [jac.numerator * scale * sum(v * _dirichlet_weight((alpha[0], *map(add, beta, alpha[1:])), top)
                                            for beta, v in table.items())
                for alpha in alphas]
        scalar[e] = (jac.denominator * den * factorial(top), ints)
    return _scattered(kind, d, k1, scalar, len(alphas))
