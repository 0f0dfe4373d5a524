"""Test-side reference routines: independent oracles that femforge itself
does not call.

``integrate_barycentric`` is the closed form for barycentric monomials,
``gram_matrix`` the entrywise Gram matrix of a basis, ``tensor_N`` the
symmetric tensors N_ij dual to the frame's edge tensors t_ij t_ij^T,
``homogeneous_component`` the terms of one total degree, and the subspace
containment and intersection tests are column-space routines over
``exact.Matrix``.  ``preimage_enrichment_sym`` builds the symmetric
enrichment through L2 complements and a divergence preimage, the oracle for
the pairing kernel of ``spaces.bubble_enrichment_sym``, and
``bubble_generator_products`` builds the bubble generators as products of
polynomials, the oracle for their Bernstein columns.  ``change_of_basis``
reads G_s = diag(G, I) off a catalog basis as a whole matrix, the oracle for
the block products of the certificates.  The ``Fraction``
polynomial routines below (affine substitution, face restriction, monomial
moments and named face traces, one polynomial at a time) are the oracles for
the integer power tables of ``poly.AffinePowers``; ``face_dof_rows``, the
product of the test moments with the stacked full-width traces, is the
oracle for the face DoF rows scattered from scalar tables; and the per-term
differential and Koszul operators those for the stencil tables of
``poly.operator_table``.
"""

from fractions import Fraction
from math import factorial
from typing import Sequence

from femforge import poly
from femforge.elements import _FACE_TRACES, FACE_NN
from femforge.exact import Matrix, _check_ambient, image_basis
from femforge.integrate import chart_mass, pair_simplex, reference_monomial_integral
from femforge.poly import Polynomial, ShapeMismatchError, multiply, partial
from femforge.simplex import Face, SimplexFrame
from femforge.spaces import (
    PolySpace,
    _common_frames,
    _edge_values,
    build_standard,
    div_preimage_in,
    orthocomplement_in,
    split_bubble,
)


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


def tensor_N(frame: SimplexFrame) -> dict[tuple[int, int], Polynomial]:
    """N_ij = (g_i g_j^T + g_j g_i^T) / (2 (g_i . t_ij)(g_j . t_ij)) for i < j,
    with g the scaled normals and t_ij the edge tangent."""
    d = frame.d
    out = {}
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            t, gi, gj = frame.tangent(i, j), frame.scaled_normals[i], frame.scaled_normals[j]
            denom = 2 * sum(a * b for a, b in zip(gi, t)) * sum(a * b for a, b in zip(gj, t))
            out[(i, j)] = Polynomial.constant_sym(
                d, [[(gi[a] * gj[b] + gj[a] * gi[b]) / denom for b in range(d)] for a in range(d)])
    return out


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


def change_of_basis(space: PolySpace, k: int) -> Matrix:
    """G_s = diag(G(kind, k), I_r) for the materialized catalog basis
    diag(I_n, H) of degree parameter k, n the size of the frame (kind, d, k)
    and r the columns past it."""
    basis = space.basis
    n = len(poly.frame(space.kind, space.frame.d, k))
    r = basis.cols - n
    assert basis.take(range(n)) == Matrix.identity(n).hstack(Matrix.zeros(n, r))
    assert basis.take(range(n, basis.rows), 0, n).is_zero()
    g = space.frame.bernstein(space.kind, k)
    return Matrix.vstack([g.hstack(Matrix.zeros(g.rows, r)), Matrix.zeros(r, n).hstack(Matrix.identity(r))], n + r)


def preimage_enrichment_sym(frame: SimplexFrame, k: int) -> PolySpace:
    """The degree-(k+1) symmetric bubbles, L2-orthogonal to the divergence-free
    ones, whose divergences span the complement of (P_{k-1} perp RM) inside
    (P_k perp RM): three L2 complements and one divergence preimage."""
    _, e0perp = split_bubble(frame, "div_sym", k + 1)
    rm = build_standard(frame, "RM", 0)
    perp_k = orthocomplement_in(build_standard(frame, "P_vector", k), rm)
    perp_km1 = orthocomplement_in(build_standard(frame, "P_vector", k - 1), rm)
    extension = orthocomplement_in(perp_k, perp_km1.with_degree(k))
    return div_preimage_in(e0perp, extension)


def bubble_generator_products(frame: SimplexFrame, kind: str, k: int) -> Matrix:
    """The bubble generators lambda_i lambda_j m c_ij, |m| <= k-2, one column
    per edge and per monomial m, over the frame (kind, d, k), for k >= 2."""
    gens = []
    for (i, j), c in sorted(_edge_values(frame, kind).items()):
        lamlam = multiply(frame.lambdas[i], frame.lambdas[j])
        for exps in poly.monomials(frame.d, k - 2):
            gens.append(multiply(multiply(lamlam, Polynomial(frame.d, "scalar", {(0, exps): Fraction(1)})), c))
    return poly.coeff_matrix(gens, k)


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


# -- Fraction polynomial routines -------------------------------------------------
#
# Affine pull-backs composed one ``Fraction`` polynomial product at a time:
# the oracles for ``poly.AffinePowers`` and the face trace operators.


def _affine_rows(const: Sequence, lin: Sequence[Sequence], m: int) -> list[Polynomial]:
    out = []
    for t, c in enumerate(const):
        terms = {(0, (0,) * m): Fraction(c)}
        for j in range(m):
            e = [0] * m
            e[j] = 1
            terms[(0, tuple(e))] = Fraction(lin[t][j])
        out.append(Polynomial(m, "scalar", terms))
    return out


def homogeneous_component(p: Polynomial, r: int) -> Polynomial:
    """The terms of p of total degree r."""
    if r < 0:
        raise ValueError("degree selector must be non-negative")
    return Polynomial(p.d, p.kind, {k: v for k, v in p.terms.items() if sum(k[1]) == r}, vdim=p.vdim)


def substitute_affine(p: Polynomial, const: Sequence, lin: Sequence[Sequence]) -> Polynomial:
    """p(const + lin s), each monomial composed by repeated products."""
    m = len(lin[0]) if p.d else 0
    affine = _affine_rows(const, lin, m)
    out = Polynomial(m, p.kind, vdim=p.vdim)
    for (c, exps), val in p.terms.items():
        prod = Polynomial.constant(m, val)
        for t, e in enumerate(exps):
            for _ in range(e):
                prod = multiply(prod, affine[t])
        out = out + Polynomial(m, p.kind, {(c, se): v for (_, se), v in prod.terms.items()}, vdim=p.vdim)
    return out


def face_restrict(face: Face, p: Polynomial) -> Polynomial:
    lin = [[tan[t] for tan in face.tangents] for t in range(face.d)]
    return substitute_affine(p, face.origin, lin)


def monomial_integral(frame: SimplexFrame, exps: tuple[int, ...]) -> Fraction:
    """int_K x^exps, by composing x^exps with the map from the reference
    simplex and integrating each reference monomial."""
    d = frame.d
    lin = [[frame.vertices[j][t] - frame.vertices[0][t] for j in range(1, d + 1)] for t in range(d)]
    mono = Polynomial.monomial(d, "scalar", 0, exps)
    pulled = substitute_affine(mono, frame.vertices[0], lin)
    return frame.jac_factor * sum(
        (v * reference_monomial_integral(b) for (_, b), v in pulled.terms.items()), Fraction(0))


def _pairing(tau: Polynomial, a, b=None) -> Polynomial:
    """a^T tau b, or v . a for a vector field."""
    d = tau.d
    out = Polynomial(d, "scalar")
    for i in range(d):
        if tau.kind == "vector":
            out = out + tau.component(i).scale(a[i])
            continue
        for j in range(d):
            out = out + tau.entry(i, j).scale(a[i] * b[j])
    return out


def _named_traces(face: Face, tau: Polynomial, mode: str) -> list[Polynomial]:
    """The chart polynomials of trace ``mode`` of tau, as in ``Face.traces``."""
    d = face.d
    g = face.normal_frame[0]
    unit = [tuple(int(t == i) for t in range(d)) for i in range(d)]
    if mode == "vector_normal":
        amb = [_pairing(tau, g)]
    elif mode == "tensor_normal":
        amb = [_pairing(tau, unit[i], g) for i in range(d)]
    elif mode == "normal_normal":
        amb = [_pairing(tau, g, g)]
    elif mode == "tangential":
        amb = [_pairing(tau, t, g) for t in face.tangents]
    elif mode == "tangential_tangential":
        amb = [_pairing(tau, face.tangents[0], face.tangents[0])]
    else:
        dv = div_rowwise(tau)
        out = face_restrict(face, sum((dv.component(i).scale(g[i]) for i in range(d)), Polynomial(d, "scalar")))
        if mode == "combo":
            # div_F(tau g) = sum_mn Ginv[m, n] d/ds_m restrict(tau g) . t_n
            tg = [face_restrict(face, _pairing(tau, unit[i], g)) for i in range(d)]
            for m in range(face.dim):
                for n, tn in enumerate(face.tangents):
                    for i in range(d):
                        out = out + partial(tg[i], m).scale(face.gram_inv[m, n] * tn[i])
        return [out]
    return [face_restrict(face, p) for p in amb]


def face_traces(face: Face, kind: str, k: int, mode: str) -> list[Matrix]:
    """``Face.traces(kind, k, mode)`` from the trace polynomials of each frame
    monomial, restricted one at a time."""
    chart_k = max(k - 1, 0) if mode in ("normal_div", "combo") else k
    chart = poly.monomials(face.dim, chart_k)
    columns = [_named_traces(face, Polynomial.monomial(face.d, kind, c, e), mode)
               for c, e in poly.frame(kind, face.d, k)]
    return [Matrix.from_columns([[col[t].terms.get((0, se), 0) for se in chart] for col in columns], len(chart))
            for t in range(len(columns[0]))]


def face_dof_rows(run, kind: str, k: int, bernstein: bool = False) -> Matrix:
    """The rows of a run of face DoFs on one face, as ``elements._run_rows``
    builds them, from the full-width traces: sum_j (tests_j^T M) T_j, one
    product of the test moments against the chart mass M with the stacked
    trace matrices T_j of ``Face.trace``/``traces`` (Bernstein with
    ``bernstein``), j over the test components."""
    first = run[0]
    face = first.face
    if first.kind == FACE_NN:
        a, b = (face.normal_frame[i] for i in first.comp)
        chart_k, traces = k, [face.trace(kind, k, a, b, bernstein)]
    else:
        chart_k, traces = face.traces(kind, k, _FACE_TRACES[first.kind], bernstein)
    tests = [dof.test for dof in run]
    deg = max(max(q.degree() for q in tests), 0)
    lhs = None
    for j in range(len(traces)):
        q = Matrix.from_int_rows([poly.coeff_row(t if t.kind == "scalar" else t.component(j), deg) for t in tests])
        block = q.matmul(chart_mass(face.dim, deg, chart_k))
        lhs = block if lhs is None else lhs.hstack(block)
    return lhs.matmul(Matrix.vstack(traces, traces[0].cols))


# -- per-term operators -------------------------------------------------------------
#
# The differential and Koszul operators one term and one component at a time:
# the oracles for the stencil tables of ``poly.operator_table``.


def _require_ambient(p: Polynomial, what: str) -> None:
    if p.vdim != p.d:
        raise ShapeMismatchError(f"{what} applies to ambient fields, not chart restrictions")


def grad(p: Polynomial) -> Polynomial:
    if p.kind != "scalar":
        raise ShapeMismatchError("grad needs a scalar")
    return Polynomial.vector_from([partial(p, i) for i in range(p.d)])


def div(v: Polynomial) -> Polynomial:
    if v.kind != "vector":
        raise ShapeMismatchError("div needs a vector")
    _require_ambient(v, "div")
    out = Polynomial(v.d, "scalar")
    for i in range(v.d):
        out = out + partial(v.component(i), i)
    return out


def div_rowwise(tau: Polynomial) -> Polynomial:
    """Row-wise divergence of a matrix field: (div tau)_i = sum_j d_j tau_ij."""
    if tau.kind not in ("sym", "skw", "matrix"):
        raise ShapeMismatchError("div_rowwise needs a matrix shape")
    _require_ambient(tau, "div_rowwise")
    comps = []
    for i in range(tau.d):
        acc = Polynomial(tau.d, "scalar")
        for j in range(tau.d):
            acc = acc + partial(tau.entry(i, j), j)
        comps.append(acc)
    return Polynomial.vector_from(comps)


def sym_grad(v: Polynomial) -> Polynomial:
    """Symmetric gradient (deformation): (grad v + grad v^T) / 2."""
    if v.kind != "vector":
        raise ShapeMismatchError("sym_grad needs a vector")
    _require_ambient(v, "sym_grad")
    d = v.d
    terms = {}
    for c, (i, j) in enumerate(poly.sym_pairs(d)):
        pij = partial(v.component(i), j) + partial(v.component(j), i)
        for (_, exps), val in pij.terms.items():
            terms[(c, exps)] = val / 2
    return Polynomial(d, "sym", terms)


def skw_grad(v: Polynomial) -> Polynomial:
    """Skew part of the gradient: entries (d_j v_i - d_i v_j) / 2."""
    if v.kind != "vector":
        raise ShapeMismatchError("skw_grad needs a vector")
    _require_ambient(v, "skw_grad")
    d = v.d
    terms = {}
    for c, (i, j) in enumerate(poly.skw_pairs(d)):
        pij = partial(v.component(i), j) - partial(v.component(j), i)
        for (_, exps), val in pij.terms.items():
            terms[(c, exps)] = val / 2
    return Polynomial(d, "skw", terms)


def hess(p: Polynomial) -> Polynomial:
    if p.kind != "scalar":
        raise ShapeMismatchError("hess needs a scalar")
    d = p.d
    terms = {}
    for c, (i, j) in enumerate(poly.sym_pairs(d)):
        pij = partial(partial(p, i), j)
        for (_, exps), val in pij.terms.items():
            terms[(c, exps)] = val
    return Polynomial(d, "sym", terms)


def divdiv(tau: Polynomial) -> Polynomial:
    if tau.kind not in ("sym", "matrix"):
        raise ShapeMismatchError("divdiv needs a (symmetric) matrix")
    return div(div_rowwise(tau))


# -- Koszul-type multiplication operators -----------------------------------------


def koszul_x(q: Polynomial) -> Polynomial:
    """q x for a scalar q (vector valued)."""
    if q.kind != "scalar":
        raise ShapeMismatchError("koszul_x needs a scalar")
    d = q.d
    terms = {}
    for c in range(d):
        for (_, exps), val in q.terms.items():
            new = list(exps)
            new[c] += 1
            terms[(c, tuple(new))] = val
    return Polynomial(d, "vector", terms)


def koszul_dot_x(v: Polynomial) -> Polynomial:
    """v . x for a vector field v."""
    if v.kind != "vector":
        raise ShapeMismatchError("koszul_dot_x needs a vector")
    _require_ambient(v, "koszul_dot_x")
    terms: dict = {}
    for (c, exps), val in v.terms.items():
        new = list(exps)
        new[c] += 1
        key = (0, tuple(new))
        acc = terms.get(key)
        terms[key] = val if acc is None else acc + val
    return Polynomial(v.d, "scalar", terms)


def koszul_mat_x(tau: Polynomial) -> Polynomial:
    """tau x: row-wise dot with the position vector."""
    if tau.kind not in ("sym", "skw", "matrix"):
        raise ShapeMismatchError("koszul_mat_x needs a matrix shape")
    _require_ambient(tau, "koszul_mat_x")
    comps = []
    for i in range(tau.d):
        acc = Polynomial(tau.d, "scalar")
        for j in range(tau.d):
            acc = acc + multiply(Polynomial.coordinate(tau.d, j), tau.entry(i, j))
        comps.append(acc)
    return Polynomial.vector_from(comps)


def koszul_xxT(q: Polynomial) -> Polynomial:
    """x x^T q for a scalar q (symmetric matrix valued)."""
    if q.kind != "scalar":
        raise ShapeMismatchError("koszul_xxT needs a scalar")
    d = q.d
    terms = {}
    for c, (i, j) in enumerate(poly.sym_pairs(d)):
        for (_, exps), val in q.terms.items():
            new = list(exps)
            new[i] += 1
            new[j] += 1
            key = (c, tuple(new))
            acc = terms.get(key)
            terms[key] = val if acc is None else acc + val
    return Polynomial(d, "sym", terms)


OPERATOR_FUNCTIONS = {
    "grad": grad, "div": div, "div_rowwise": div_rowwise, "def": sym_grad, "skw_grad": skw_grad,
    "hess": hess, "divdiv": divdiv, "dot_x": koszul_dot_x, "x": koszul_x, "mat_x": koszul_mat_x,
    "xxT": koszul_xxT,
}


def operator_images(op: str, kind: str, d: int, k: int) -> Matrix:
    """The images of the monomials of the frame (kind, d, k) under ``op``,
    as columns over the operator's target frame."""
    fn = OPERATOR_FUNCTIONS[op]
    tkind, tk = poly.operator_target(op, k)
    images = [fn(Polynomial.monomial(d, kind, c, e)) for c, e in poly.frame(kind, d, k)]
    return Matrix.from_columns([poly.coeff_vector(q, tk) for q in images], len(poly.frame(tkind, d, tk)))
