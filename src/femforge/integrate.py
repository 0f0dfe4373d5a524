"""Exact integration of shaped polynomials over a simplex and its faces.

Volume integrals map the simplex affinely onto the reference simplex and use
the factorial formula for reference monomials,

    int_{ref^m} s^beta ds = beta! / (|beta| + m)!.

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
from math import factorial
from operator import add

from .exact import Matrix, _cleared
from .poly import Polynomial, dot, frobenius_weight, monomials, multiply, ncomp
from .poly import frame as shape_frame
from .simplex import Face, SimplexFrame

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def reference_monomial_integral(exps: tuple[int, ...]) -> Fraction:
    """Integral of s^exps over the reference simplex of dimension len(exps)."""
    m = len(exps)
    num = 1
    for e in exps:
        num *= factorial(e)
    return Fraction(num, factorial(sum(exps) + m))


def _affine_to_reference(frame: SimplexFrame) -> list[Polynomial]:
    """The coordinate polynomials of x = x_0 + sum_j s_j (x_j - x_0)."""
    d = frame.d
    out = []
    for t in range(d):
        terms = {}
        if frame.vertices[0][t]:
            terms[(0, (0,) * d)] = frame.vertices[0][t]
        for j in range(1, d + 1):
            c = frame.vertices[j][t] - frame.vertices[0][t]
            if c:
                e = [0] * d
                e[j - 1] = 1
                terms[(0, tuple(e))] = c
        out.append(Polynomial(d, "scalar", terms))
    return out


def _monomial_integral(frame: SimplexFrame, exps: tuple[int, ...]) -> Fraction:
    got = frame._mono_integrals.get(exps)
    if got is not None:
        return got
    subst = frame._subst_cache
    affine = subst.get("affine")
    if affine is None:
        affine = _affine_to_reference(frame)
        subst["affine"] = affine

    def composed(e: tuple[int, ...]) -> Polynomial:
        p = subst.get(e)
        if p is None:
            if sum(e) == 0:
                p = Polynomial.constant(frame.d, 1)
            else:
                t = next(i for i, v in enumerate(e) if v)
                prev = list(e)
                prev[t] -= 1
                p = multiply(composed(tuple(prev)), affine[t])
            subst[e] = p
        return p

    total = sum(
        (v * reference_monomial_integral(b) for (_, b), v in composed(exps).terms.items()),
        _ZERO,
    )
    got = frame.jac_factor * total
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


def frame_gram(frame: SimplexFrame, kind: str, k1: int, k2: int) -> Matrix:
    """The ``pair_simplex`` Gram matrix of the shaped monomial frames
    ``(kind, d, k1)`` (rows) and ``(kind, d, k2)`` (columns)."""
    d = frame.d
    nc, cols = ncomp(kind, d), monomials(d, k2)
    # one integer row per monomial e, weighted into the columns of component c
    scalar = {e: _cleared([_monomial_integral(frame, tuple(map(add, e, e2))) for e2 in cols])
              for e in monomials(d, k1)}
    rows = []
    for c, e in shape_frame(kind, d, k1):
        den, ints = scalar[e]
        row = [0] * (nc * len(cols))
        row[c::nc] = [frobenius_weight(kind, d, c) * v for v in ints]
        rows.append((den, row))
    return Matrix.from_int_rows(rows, nc * len(cols))
