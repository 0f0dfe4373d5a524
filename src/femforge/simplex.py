"""Rational simplex geometry: barycentric frames, faces, charts, tensor bases.

All normal directions are represented by the scaled outward normals
``g_i = -grad(lambda_i)`` instead of unit vectors, which keeps every quantity
rational.  Face charts are canonical: the chart origin is the face vertex of
lowest index and the tangent frame lists edges to the remaining vertices in
ascending index order, so two simplices sharing a face derive bit-identical
charts when they enumerate the shared vertices in the same order.

Every affine map here carries an integer power table (``poly.AffinePowers``):
the frame's map from the reference simplex, which ``integrate`` reads for
monomial moments, each face's chart, from which ``Face.restrict`` and the
scalar trace tables read restricted monomials ``x^e = table / D^|e|``, and the
barycentric map x -> lambda, whose powers are the columns of the Bernstein
matrix ``SimplexFrame.bernstein``.

Every face trace is a linear map from shape coefficients (over the shaped
monomial frame ``(kind, d, k)`` of ``poly.frame``) to chart coefficients.
Each one is a short list of parts (w, op) (``Face.trace_parts``): a weight
vector w over the stored components times the scalar restriction table of
op (``Face.table``), whose column e holds the chart coefficients of x^e, or
of one first partial of it, restricted to the face.  Pointwise traces
``a^T tau b`` weight the restriction itself, ``g . div tau`` weights
restricted partial derivatives and ``div_F(tau g)`` weights chart
derivatives of the restriction.  The tables are integer rows over one
denominator, built once per (face, k, op, Bernstein) and memoized on the
face; ``Face.trace``/``Face.traces`` scatter the weights into the component
columns (``exact.kron_sum``) on every call and keep nothing.  Element DoFs
multiply their test moments by the tables and scatter the products, so no
DoF row forms a trace matrix; patch jumps, the trace block and the divdiv
Green identity are products with the trace matrices.

``Face.bernstein_trace``/``Face.bernstein_traces`` return the same traces
already multiplied by the Bernstein matrix G, without that product: column
``(alpha, c)`` is the trace of ``D^k lambda^alpha e_c``, from the Bernstein
tables of the face.  On a face with vertices v_0 < v_1 < ..., lambda^alpha
restricts to zero unless alpha lives on the face, and otherwise to the
chart's own barycentric monomial ``(1 - sum s)^alpha_{v_0} prod_m
s_m^alpha_{v_m}``, an integer polynomial that does not depend on the
geometry (one table per face dimension and degree); derivatives go through
``d_j lambda^alpha = sum_i alpha_i lambda^(alpha - e_i) d_j lambda_i``.  The
shared DoF blocks of the element certificates and of the patch check, and
their trace tests, are assembled from these.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Sequence

from .exact import Matrix, SingularMatrixError, _as_fraction, kron_sum
from .poly import AffinePowers, Polynomial, entry_comp, monomials, ncomp, partial

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DegenerateSimplexError(ValueError):
    """Raised when the given vertices do not span a d-simplex."""


class WrongCodimensionError(ValueError):
    """Raised when a face operation requires a different codimension."""


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), _ZERO)


class Face:
    """A codimension-r face of a simplex with its frames and canonical chart."""

    __slots__ = (
        "d",
        "codim",
        "vertex_ids",
        "opposite_ids",
        "origin",
        "tangents",
        "normal_frame",
        "gram",
        "gram_inv",
        "powers",
        "bary_den",
        "bary_grads",
        "_tables",
    )

    def __init__(self, frame: "SimplexFrame", vertex_ids: tuple[int, ...]):
        d = frame.d
        self.d = d  # the ambient dimension; the face keeps no reference to its frame
        self.vertex_ids = tuple(sorted(vertex_ids))
        self.opposite_ids = tuple(i for i in range(d + 1) if i not in self.vertex_ids)
        self.codim = len(self.opposite_ids)
        v0 = self.vertex_ids[0]
        self.origin = frame.vertices[v0]
        self.tangents = tuple(frame.tangent(v0, v) for v in self.vertex_ids[1:])
        self.normal_frame = tuple(frame.scaled_normals[i] for i in self.opposite_ids)
        m = len(self.tangents)
        gram = Matrix([[_dot(a, b) for b in self.tangents] for a in self.tangents])
        self.gram = gram
        self.gram_inv = gram.solve(Matrix.identity(m)) if m else None
        self.powers = AffinePowers(self.origin, [[tan[t] for tan in self.tangents] for t in range(d)])
        # the frame's barycentric denominator D and the integers D grad(lambda_i)
        self.bary_den = den = frame._bary.den
        self.bary_grads = tuple(tuple(int(den * x) for x in g) for g in frame.grad_lambda)
        self._tables: dict = {}

    @property
    def dim(self) -> int:
        return len(self.tangents)

    def restrict(self, p: Polynomial) -> Polynomial:
        """Pull p back through the chart: a polynomial in dim(F) variables.

        Value components stay ambient (vdim is preserved)."""
        return self.powers.substitute(p)

    # -- trace operators ---------------------------------------------------------

    def trace(self, kind: str, k: int, a, b=None) -> Matrix:
        """The pointwise trace ``a^T tau b`` (``v . a`` for a vector field) as a
        matrix from shape coefficients over the frame ``(kind, d, k)`` to chart
        coefficients of degree <= k."""
        return self._assemble(kind, k, [(_weights(kind, self.d, a, b), None)], False)

    def bernstein_trace(self, kind: str, k: int, a, b=None) -> Matrix:
        """``trace(kind, k, a, b)`` times the frame's Bernstein matrix
        G(kind, k), built from the restrictions of lambda^alpha alone."""
        return self._assemble(kind, k, [(_weights(kind, self.d, a, b), None)], True)

    def traces(self, kind: str, k: int, mode: str) -> tuple[int, tuple[Matrix, ...]]:
        """Chart degree and trace matrices of a named trace, g the face's
        scaled normal and t_m its chart tangents:

        vector_normal: v . g;  tensor_normal: (tau g)_i for i < d;
        normal_normal: g^T tau g;  tangential: v . t_m or t_m^T tau g;
        tangential_tangential: t_1^T tau t_1 (all of chart degree k);
        normal_div: g . div tau;  combo: g . div tau + div_F(tau g) (degree k-1).
        """
        return self._named(kind, k, mode, False)

    def bernstein_traces(self, kind: str, k: int, mode: str) -> tuple[int, tuple[Matrix, ...]]:
        """``traces(kind, k, mode)`` with each matrix times the frame's
        Bernstein matrix G(kind, k), built from the restrictions of
        lambda^alpha alone."""
        return self._named(kind, k, mode, True)

    def trace_parts(self, kind: str, k: int, mode: str) -> tuple[int, tuple[list, ...]]:
        """Chart degree and, per matrix of ``traces(kind, k, mode)``, its
        parts [(w, op)]: the matrix is sum over the parts of ``table(k, op)``
        scattered into component c with weight w[c]."""
        d = self.d
        g = self.normal_frame[0]
        if mode == "vector_normal":
            pairs = [(g, None)]
        elif mode == "tensor_normal":
            pairs = [(_unit(d, i), g) for i in range(d)]
        elif mode == "normal_normal":
            pairs = [(g, g)]
        elif mode == "tangential":
            pairs = [(t, None if kind == "vector" else g) for t in self.tangents]
        elif mode == "tangential_tangential":
            pairs = [(self.tangents[0], self.tangents[0])]
        elif mode in ("normal_div", "combo"):
            # g . div tau = sum_j d_j (g^T tau e_j): restrictions of partials
            parts = [(_weights(kind, d, g, _unit(d, j)), ("x", j)) for j in range(d)]
            if mode == "combo":
                # div_F(tau g) = sum_m d/ds_m restrict(c_m^T tau g), c_m = sum_n Ginv[m, n] t_n
                for m in range(self.dim):
                    c_m = [sum((self.gram_inv[m, n] * tn[t] for n, tn in enumerate(self.tangents)), _ZERO)
                           for t in range(d)]
                    parts.append((_weights(kind, d, c_m, g), ("s", m)))
            return max(k - 1, 0), (parts,)
        else:
            raise ValueError(f"unknown trace mode {mode!r}")
        return k, tuple([(_weights(kind, d, a, b), None)] for a, b in pairs)

    def table(self, k: int, op, bernstein: bool = False) -> Matrix:
        """The scalar table of ``op`` at degree k, memoized: column e (the
        order of ``monomials(d, k)``), or column alpha (the Bernstein columns
        of degree k), holds the chart coefficients of op(x^e), or of
        op(D^k lambda^alpha), restricted to the face (see ``_monomial_terms``
        and ``_bernstein_terms``); op None is the value, of chart degree k,
        and a first partial has chart degree max(k - 1, 0)."""
        key = (bernstein, k, op)
        got = self._tables.get(key)
        if got is None:
            index = {e: i for i, e in enumerate(monomials(self.dim, k if op is None else max(k - 1, 0)))}
            if bernstein:
                keys, top, terms_of = _bernstein_alphas(self.d, k), 1, self._bernstein_terms
            else:
                keys, top, terms_of = monomials(self.d, k), self.powers.den ** k, self._monomial_terms
            rows = [[0] * len(keys) for _ in index]
            for ie, key_e in enumerate(keys):
                for f, terms in terms_of(key_e, op, k):
                    for se, v in terms.items():
                        rows[index[se]][ie] += f * v
            got = self._tables[key] = Matrix.from_int_rows([(top, row) for row in rows], len(keys))
        return got

    def _assemble(self, kind: str, k: int, parts, bernstein: bool) -> Matrix:
        return kron_sum([(self.table(k, op, bernstein), w) for w, op in parts], ncomp(kind, self.d))

    def _named(self, kind: str, k: int, mode: str, bernstein: bool) -> tuple[int, tuple[Matrix, ...]]:
        chart_k, parts = self.trace_parts(kind, k, mode)
        return chart_k, tuple(self._assemble(kind, k, p, bernstein) for p in parts)

    def _monomial_terms(self, e: tuple[int, ...], op, k: int) -> list[tuple[int, dict]]:
        """op(x^e) restricted, for op None (the value), ("x", j) (d/dx_j
        first) or ("s", m) (d/ds_m after), as [(f, {chart exponents: int})]
        with the polynomial sum(f * table) / D^k, D the chart denominator."""
        if op is None:
            den, table = self.powers.power(e)
        elif op[0] == "x":
            j = op[1]
            if not e[j]:
                return []
            den, table = self.powers.power(e[:j] + (e[j] - 1,) + e[j + 1:])
            table = {se: e[j] * v for se, v in table.items()}
        else:
            den, table = self.powers.power(e)
            table = _chart_partial(table, op[1])
        return [(self.powers.den ** k // den, table)]

    def _bernstein_terms(self, alpha: tuple[int, ...], op, k: int) -> list[tuple[int, dict]]:
        """op(D^k lambda^alpha) restricted, D the barycentric denominator, as
        [(f, {chart exponents: int})] with the polynomial sum(f * table).

        On the face, lambda_i vanishes for i off it, lambda_{v_0} = 1 - sum s
        and lambda_{v_m} = s_m for its vertices v_0 < v_1 < ...; so lambda^alpha
        restricts to the chart's own barycentric monomial or to zero, and
        d_j lambda^alpha = sum_i alpha_i lambda^(alpha - e_i) d_j lambda_i
        restricts the same way one degree lower."""
        top = self.bary_den ** k
        if op is None or op[0] == "s":
            table = self._restricted_bernstein(alpha)
            if table is None:
                return []
            return [(top, table if op is None else _chart_partial(table, op[1]))]
        j, out = op[1], []
        for i, a in enumerate(alpha):
            # D^k alpha_i lambda^(alpha - e_i) d_j lambda_i, with D d_j lambda_i an integer
            if a and self.bary_grads[i][j]:
                table = self._restricted_bernstein(alpha[:i] + (a - 1,) + alpha[i + 1:])
                if table is not None:
                    out.append((top // self.bary_den * a * self.bary_grads[i][j], table))
        return out

    def _restricted_bernstein(self, alpha: tuple[int, ...]) -> dict | None:
        """The chart coefficients of lambda^alpha restricted to the face, or
        None where it vanishes there."""
        for i in self.opposite_ids:
            if alpha[i]:
                return None
        return _chart_bernstein(self.dim, sum(alpha))[tuple([alpha[v] for v in self.vertex_ids])]


def _chart_partial(table: dict, m: int) -> dict:
    """d/ds_m of a chart polynomial {exponents: int}."""
    return {se[:m] + (se[m] - 1,) + se[m + 1:]: se[m] * v for se, v in table.items() if se[m]}


@lru_cache(maxsize=None)
def _bernstein_alphas(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The alpha with |alpha| = k over the d + 1 barycentric coordinates, in
    the order of ``monomials(d + 1, k)``: the Bernstein columns of degree k."""
    return monomials(d + 1, k)[len(monomials(d + 1, k - 1)):]


@lru_cache(maxsize=None)
def _chart_bernstein(m: int, k: int) -> dict:
    """{beta: {chart exponents: int}} for |beta| = k: the expansion of
    (1 - sum s)^beta_0 prod_j s_j^beta_j in the m chart variables s, the
    restriction of lambda^alpha to an m-dimensional face; free of geometry."""
    out = {}
    for beta in _bernstein_alphas(m, k):
        b0, shift = beta[0], beta[1:]
        table = {}
        for gamma in monomials(m, b0):
            n = sum(gamma)
            coeff = factorial(b0) // (factorial(b0 - n) * prod(map(factorial, gamma)))
            table[tuple(g + s for g, s in zip(gamma, shift))] = -coeff if n % 2 else coeff
        out[beta] = table
    return out


def _unit(d: int, i: int) -> tuple[int, ...]:
    return tuple(int(t == i) for t in range(d))


def _weights(kind: str, d: int, a, b=None) -> list[Fraction]:
    """w with ``sum_c w[c] tau_c == a^T tau b`` over the stored components
    (``v . a`` for a vector field v, ``v * a[0]`` for a scalar v)."""
    if kind in ("vector", "scalar"):
        return list(a)
    w = [_ZERO] * ncomp(kind, d)
    for i in range(d):
        if a[i]:
            for j in range(d):
                if b[j]:
                    c, sign = entry_comp(kind, d, i, j)
                    if sign:
                        w[c] += sign * a[i] * b[j]
    return w


class SimplexFrame:
    """A non-degenerate rational d-simplex with its barycentric frame."""

    __slots__ = (
        "d",
        "vertices",
        "lambdas",
        "grad_lambda",
        "scaled_normals",
        "volume",
        "jac_factor",
        "tensor_T",
        "tensor_N",
        "_faces",
        "_space_cache",
        "_mono_integrals",
        "powers",
        "_bary",
        "_bernstein",
    )

    def __init__(self, vertices: Sequence[Sequence]):
        vertices = tuple(tuple(_as_fraction(x) for x in v) for v in vertices)
        d = len(vertices) - 1
        if d < 1 or any(len(v) != d for v in vertices):
            raise DegenerateSimplexError("need d+1 points in R^d")
        self.d = d
        self.vertices = vertices

        # barycentric coordinates by exact solve: lambda_i(x_j) = delta_ij
        vand = Matrix([(1,) + v for v in vertices])
        try:
            coeffs = vand.solve(Matrix.identity(d + 1))
        except SingularMatrixError:
            raise DegenerateSimplexError("vertices are affinely dependent") from None
        lambdas = []
        grads = []
        for i in range(d + 1):
            terms = {}
            if coeffs[0, i]:
                terms[(0, (0,) * d)] = coeffs[0, i]
            for t in range(d):
                if coeffs[t + 1, i]:
                    e = [0] * d
                    e[t] = 1
                    terms[(0, tuple(e))] = coeffs[t + 1, i]
            lambdas.append(Polynomial(d, "scalar", terms))
            grads.append(tuple(coeffs[t + 1, i] for t in range(d)))
        self.lambdas = tuple(lambdas)
        self.grad_lambda = tuple(grads)
        self.scaled_normals = tuple(tuple(-x for x in g) for g in grads)

        edge_rows = [[vertices[j][t] - vertices[0][t] for j in range(1, d + 1)] for t in range(d)]
        edge = Matrix(edge_rows)
        det = edge.det()
        if not det:
            raise DegenerateSimplexError("zero volume")
        self.jac_factor = abs(det)  # d! * |K|
        fact = 1
        for i in range(2, d + 1):
            fact *= i
        self.volume = self.jac_factor / fact

        T = {}
        N = {}
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                t = self.tangent(i, j)
                gi = self.scaled_normals[i]
                gj = self.scaled_normals[j]
                T[(i, j)] = Polynomial.constant_sym(d, [[a * b for b in t] for a in t])
                denom = 2 * _dot(gi, t) * _dot(gj, t)
                N[(i, j)] = Polynomial.constant_sym(
                    d, [[(gi[a] * gj[b] + gj[a] * gi[b]) / denom for b in range(d)] for a in range(d)]
                )
        self.tensor_T = T
        self.tensor_N = N

        self._faces: dict[int, tuple[Face, ...]] = {}
        self._space_cache: dict = {}
        self._mono_integrals: dict = {}
        # x = x_0 + sum_j s_j (x_j - x_0): the map from the reference simplex
        self.powers = AffinePowers(vertices[0], edge_rows)
        # lambda_i = lambda_i(0) + grad(lambda_i) . x: the barycentric map
        self._bary = AffinePowers([coeffs[0, i] for i in range(d + 1)], grads)
        self._bernstein: dict = {}

    def bernstein(self, kind: str, k: int) -> Matrix:
        """The Bernstein matrix G(kind, k), memoized: column (alpha, c), for
        |alpha| = k in the order of ``monomials(d + 1, k)`` and c a stored
        component, holds the coefficients of D^k lambda^alpha e_c over the
        frame (kind, d, k), with D the denominator of the barycentric map, so
        G is an integer matrix.  The lambda^alpha with |alpha| = k are a
        basis of P_k, so G is invertible."""
        got = self._bernstein.get((kind, k))
        if got is None:
            nc = ncomp(kind, self.d)
            index = {e: i for i, e in enumerate(monomials(self.d, k))}
            alphas = _bernstein_alphas(self.d, k)
            rows = [[0] * (nc * len(alphas)) for _ in range(nc * len(index))]
            for ia, alpha in enumerate(alphas):
                for e, v in self._bary.power(alpha)[1].items():
                    for c in range(nc):
                        rows[index[e] * nc + c][ia * nc + c] = v
            got = self._bernstein[(kind, k)] = Matrix.from_int_rows([(1, row) for row in rows])
        return got

    def tangent(self, i: int, j: int) -> tuple[Fraction, ...]:
        """Edge vector t_{i,j} = x_j - x_i."""
        return tuple(b - a for a, b in zip(self.vertices[i], self.vertices[j]))

    def faces(self, r: int) -> tuple[Face, ...]:
        if not 1 <= r <= self.d:
            raise WrongCodimensionError(f"codimension must be in [1, {self.d}]")
        got = self._faces.get(r)
        if got is None:
            ids = range(self.d + 1)
            got = tuple(
                Face(self, combo) for combo in itertools.combinations(ids, self.d + 1 - r)
            )
            self._faces[r] = got
        return got

    def face_opposite(self, i: int) -> Face:
        for f in self.faces(1):
            if f.opposite_ids == (i,):
                return f
        raise KeyError(i)


def build_frame(vertices: Sequence[Sequence]) -> SimplexFrame:
    return SimplexFrame(vertices)


def reference_simplex(d: int) -> SimplexFrame:
    verts = [[_ZERO] * d]
    for i in range(d):
        v = [_ZERO] * d
        v[i] = _ONE
        verts.append(v)
    return SimplexFrame(verts)


def random_frame(d: int, rng) -> SimplexFrame:
    """Random simplex with small integer vertices in [-3, 3]^d."""
    while True:
        verts = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d + 1)]
        try:
            return SimplexFrame(verts)
        except DegenerateSimplexError:
            continue


def surface_div(face: Face, w: Polynomial) -> Polynomial:
    """Surface divergence of an ambient vector field along a codim-1 face.

    Computed in the chart as sum_mn Ginv[m][n] (d w_hat / d s_m) . T_n; the
    normal component of w drops out automatically since T_n . g = 0.
    """
    if face.codim != 1:
        raise WrongCodimensionError("surface divergence needs a codim-1 face")
    if w.kind != "vector":
        raise ValueError("surface_div applies to vector fields")
    m = face.dim
    comps = [face.restrict(w.component(t)) for t in range(w.vdim)]
    out = Polynomial(m, "scalar")
    for mm in range(m):
        for nn in range(m):
            coef = face.gram_inv[mm, nn]
            if not coef:
                continue
            for t in range(w.vdim):
                tv = face.tangents[nn][t]
                if tv:
                    out = out + partial(comps[t], mm).scale(coef * tv)
    return out
