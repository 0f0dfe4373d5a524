"""Catalog of polynomial spaces, operator matrices and space decompositions.

A ``PolySpace`` is a subspace of shaped polynomials of degree <= k, with the
coefficient matrix diag(I_lead, tail) over the shaped monomial frame (columns
are members): lead = dim P_k and no tail for the P_k tags, W's rows past
degree k as the tail of a direct sum P_k + W, lead 0 otherwise; products with
it are taken block by block.  Because frames are degree-major, a space
re-expressed at a higher degree just pads zero rows, so subspace algebra
across degrees is one matrix problem.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable

from . import exact, poly
from .exact import Matrix
from .integrate import frame_gram
from .poly import Polynomial
from .report import CheckResult
from .simplex import SimplexFrame, _bernstein_alphas, reference_simplex


class UnsupportedTagError(ValueError):
    """Raised for an unknown space or operator tag."""


class BadDegreeError(ValueError):
    """Raised when a construction is requested below its degree floor."""


class PolySpace:
    """The span of diag(I_lead, tail); ``PolySpace(frame, kind, k, m)`` spans m."""

    __slots__ = ("frame", "kind", "k", "lead", "tail", "_members")

    def __init__(self, frame: SimplexFrame, kind: str, k: int, tail: Matrix, lead: int = 0):
        self.frame, self.kind, self.k, self.lead, self.tail = frame, kind, k, lead, tail
        self._members = None
        if lead + tail.rows != len(poly.frame(kind, frame.d, k)):
            raise ValueError("basis row count does not match the monomial frame")

    @property
    def dim(self) -> int:
        return self.lead + self.tail.cols

    @property
    def basis(self) -> Matrix:
        """The coefficient matrix diag(I_lead, tail), built on each read."""
        return Matrix.block_diag(Matrix.identity(self.lead), self.tail)

    def times(self, m: Matrix) -> Matrix:
        """basis x m: the first ``lead`` rows of m above tail x the rest."""
        return Matrix.vstack([m.take(range(self.lead)), self.tail.matmul(m.take(range(self.lead, m.rows)))], m.cols)

    def applied(self, t: Matrix) -> Matrix:
        """t x basis: the first ``lead`` columns of t beside the rest x tail."""
        return t.take(range(t.rows), 0, self.lead).hstack(t.take(range(t.rows), self.lead).matmul(self.tail))

    def members(self) -> list[Polynomial]:
        if self._members is None:
            d, cols = self.frame.d, self.basis.transpose()
            self._members = [poly.from_coeff_row(d, self.kind, self.k, cols.int_row(j)) for j in range(cols.rows)]
        return self._members

    def with_degree(self, k: int) -> "PolySpace":
        """The same space expressed over the degree <= k frame (k >= self.k)."""
        if k == self.k:
            return self
        if k < self.k:
            raise BadDegreeError("cannot shrink the frame below the space degree")
        pad = Matrix.zeros(len(poly.frame(self.kind, self.frame.d, k)) - self.lead - self.tail.rows, self.tail.cols)
        return PolySpace(self.frame, self.kind, k, Matrix.vstack([self.tail, pad], self.tail.cols), self.lead)

    def __repr__(self):
        return f"PolySpace({self.kind}, d={self.frame.d}, k={self.k}, dim={self.dim})"


def _check_same(frame: SimplexFrame, kind: str, space: PolySpace) -> None:
    """Raise unless ``space`` lives on ``frame`` with value shape ``kind``."""
    if space.frame is not frame and space.frame.vertices != frame.vertices:
        raise ValueError("spaces live on different simplices")
    if space.kind != kind:
        raise poly.ShapeMismatchError("spaces have different value shapes")


def _common_frames(a: PolySpace, b: PolySpace) -> tuple[Matrix, Matrix]:
    _check_same(a.frame, a.kind, b)
    k = max(a.k, b.k)
    return a.with_degree(k).basis, b.with_degree(k).basis


def space_equal(a: PolySpace, b: PolySpace) -> bool:
    ma, mb = _common_frames(a, b)
    return exact.subspace_equal(ma, mb)


def space_sum(a: PolySpace, b: PolySpace) -> PolySpace:
    ma, mb = _common_frames(a, b)
    k = max(a.k, b.k)
    return PolySpace(a.frame, a.kind, k, exact.subspace_sum(ma, mb))


def space_is_direct_sum(a: PolySpace, b: PolySpace) -> bool:
    ma, mb = _common_frames(a, b)
    return exact.is_direct_sum(ma, mb)


# -- closed-form dimensions ------------------------------------------------------


def dim_P(d: int, k: int) -> int:
    return comb(k + d, d) if k >= 0 else 0


def dim_H(d: int, k: int) -> int:
    return comb(k + d - 1, d - 1) if k >= 0 else 0


def dim_RM(d: int) -> int:
    return d * (d + 1) // 2


def dim_ND(d: int, k: int) -> int:
    return (k + 1) * comb(d + k + 1, d - 1) if k >= 0 else 0


def dim_bubble_vector(d: int, k: int) -> int:
    return max((k - 1) * comb(k + d - 1, k), 0) if k >= 0 else 0


def dim_bubble_sym(d: int, k: int) -> int:
    return d * (d + 1) // 2 * comb(d + k - 2, d) if k >= 0 else 0


def dim_bubble_rt(d: int, k: int) -> int:
    """dim of ker(trace) inside the order-k enriched vector space."""
    return d * comb(k + d - 1, d) if k >= 1 else 0


def dim_E0_vector(d: int, k: int) -> int:
    return d * comb(k + d - 1, d) - comb(k + d, d) + 1


def dim_E0perp_vector(d: int, k: int) -> int:
    return comb(k - 1 + d, d) - 1


def dim_E0_sym(d: int, k: int) -> int:
    return d * (d + 1) // 2 * comb(k - 2 + d, d) - d * comb(d + k - 1, d) + d * (d + 1) // 2


def dim_E0perp_sym(d: int, k: int) -> int:
    return d * comb(k + d - 1, d) - d * (d + 1) // 2


def dim_trace_vector(d: int, k: int) -> int:
    return (d + 1) * comb(k + d - 1, k)


def dim_trace_sym(d: int, k: int) -> int:
    return d * (d + 1) // 2 * (comb(d + k - 1, d - 1) + comb(d + k - 2, d - 1))


# -- standard spaces ---------------------------------------------------------------

_P_TAGS = {"P_scalar": "scalar", "P_vector": "vector", "P_sym": "sym", "P_skw": "skw"}


def _homogeneous(frame: SimplexFrame, kind: str, k: int) -> PolySpace:
    """The monomials of degree exactly k, as unit columns."""
    fr = poly.frame(kind, frame.d, k)
    cols = [i for i, (_, exps) in enumerate(fr) if sum(exps) == k]
    rows = [(1, [int(i == c) for c in cols]) for i in range(len(fr))]
    return PolySpace(frame, kind, k, Matrix.from_int_rows(rows, len(cols)))


def build_standard(frame: SimplexFrame, tag: str, k: int) -> PolySpace:
    """Build a named space of degree parameter k (see the tag table).

    P_scalar/P_vector/P_sym/P_skw: full polynomial spaces of degree <= k.
    H_scalar: homogeneous scalars of degree exactly k.
    ND: P_k(R^d) + (skw H_k) x (first-kind edge space, = P_k + (skw P_k) x).
    RT_shape: P_k(R^d) + H_k x.
    RM: rigid motions (= ND at k = 0).
    xxT_H: x x^T H_k (symmetric, homogeneous of degree k + 2).
    skwPx: P_k(K)x with skew-matrix coefficients.
    P_minus_sym: P_k(S) + ``bubble_enrichment_sym`` (degree k + 1).
    P_sym_plus_xxT: P_k(S) + x x^T H_{k-1}.
    ND, RT_shape and the last two are ``_direct_sum``s, in canonical form but
    for P_minus_sym, whose W is not homogeneous.
    """
    return _memo(frame, (tag, k), _build_standard_uncached, tag, k)


def _memo(frame: SimplexFrame, key: tuple, build: Callable, *args):
    """The space (or spaces) cached on ``frame`` under ``key``, from
    ``build(frame, *args)`` on a miss; nothing is stored if it raises."""
    cached = frame._space_cache.get(key)
    if cached is None:
        cached = frame._space_cache[key] = build(frame, *args)
    return cached


_CATALOG_TAGS = (*_P_TAGS, "H_scalar", "ND", "RT_shape", "xxT_H", "skwPx", "P_minus_sym", "P_sym_plus_xxT")


def _build_standard_uncached(frame: SimplexFrame, tag: str, k: int) -> PolySpace:
    if tag == "RM":
        return _build_standard_uncached(frame, "ND", 0)
    if tag not in _CATALOG_TAGS:
        raise UnsupportedTagError(f"unknown space tag {tag!r}")
    if k < 0:
        raise BadDegreeError(f"{tag} needs k >= 0")
    if tag in _P_TAGS:
        kind = _P_TAGS[tag]
        return PolySpace(frame, kind, k, Matrix.zeros(0, 0), len(poly.frame(kind, frame.d, k)))
    if tag == "H_scalar":
        return _homogeneous(frame, "scalar", k)
    if tag == "xxT_H":
        return image_space("xxT", build_standard(frame, "H_scalar", k))
    if tag == "skwPx":
        return image_space("mat_x", build_standard(frame, "P_skw", k))
    if tag == "P_minus_sym":
        return _direct_sum(build_standard(frame, "P_sym", k), bubble_enrichment_sym(frame, k))
    if tag == "P_sym_plus_xxT":
        return _direct_sum(build_standard(frame, "P_sym", k), build_standard(frame, "xxT_H", k - 1))
    p_k = build_standard(frame, "P_vector", k)
    if tag == "ND":
        return _direct_sum(p_k, image_space("mat_x", _homogeneous(frame, "skw", k)))
    return _direct_sum(p_k, image_space("x", build_standard(frame, "H_scalar", k)))


def _direct_sum(p_k: PolySpace, w: PolySpace) -> PolySpace:
    """P_k + W as diag(I_n, W's rows past degree k), W of degree k + 1 and
    lead 0: those rows are independent where W meets P_k only in 0 (a
    vanishing combination is a member of W in P_k).  Were it not so, dim
    would exceed the DoF rank and unisolvence would fail; it cannot pass
    silently."""
    return PolySpace(p_k.frame, p_k.kind, w.k, w.tail.take(range(p_k.dim, w.tail.rows)), p_k.dim)


def empty_space(frame: SimplexFrame, kind: str, k: int = 0) -> PolySpace:
    n = len(poly.frame(kind, frame.d, max(k, 0)))
    return PolySpace(frame, kind, max(k, 0), Matrix.zeros(n, 0))


@lru_cache(maxsize=None)
def nd_basis(d: int, k: int) -> tuple[Polynomial, ...]:
    """Canonical basis of the coordinate edge space in d variables, built once
    per (d, k)."""
    if k < 0:
        return ()
    return tuple(build_standard(reference_simplex(d), "ND", k).members())


# -- operator matrices ---------------------------------------------------------------


def operator_matrix(op: str, source: PolySpace) -> Matrix:
    """The images of ``source``'s members under ``op``, as columns over the
    frame ``poly.operator_target(op, source.k)``: the operator's table times
    the basis."""
    if op not in poly.OPERATORS:
        raise UnsupportedTagError(f"unknown operator tag {op!r}")
    return source.applied(poly.operator_table(op, source.kind, source.frame.d, source.k))


def image_space(op: str, source: PolySpace) -> PolySpace:
    kind, k = poly.operator_target(op, source.k)
    basis = exact.image_basis(operator_matrix(op, source))
    return PolySpace(source.frame, kind, k, basis)


def kernel_space(op: str, source: PolySpace) -> PolySpace:
    coords = operator_matrix(op, source).null_space()
    basis = exact.image_basis(source.times(coords))
    return PolySpace(source.frame, source.kind, source.k, basis)


# -- traces and bubbles ----------------------------------------------------------------


# the face traces whose vanishing defines the bubbles of the div and divdiv families
_CONFORMING_TRACES = ("vector_normal", "tensor_normal", "normal_div", "combo")


def trace_matrix(frame: SimplexFrame, space: PolySpace, mode: str) -> Matrix:
    """Stacked face-trace coefficients: rows = (face, [comp,] chart monomial);
    ``mode`` is one of the ``Face.traces`` modes in ``_CONFORMING_TRACES``."""
    if mode not in _CONFORMING_TRACES:
        raise UnsupportedTagError(f"unknown trace mode {mode!r}")
    mats = [t for face in frame.faces(1) for t in face.traces(space.kind, space.k, mode)[1]]
    return space.applied(Matrix.vstack(mats, space.lead + space.tail.rows))


_BUBBLE_SHAPES = {
    "div_vector": ("P_vector", "vector_normal"),
    "div_sym": ("P_sym", "tensor_normal"),
    "div_RT_minus": ("RT_shape", "vector_normal"),
}


def bubble_space(frame: SimplexFrame, family: str, k: int) -> PolySpace:
    """ker(trace) inside the family's shape space, by exact kernel computation
    (the certificate for the generator-side bubbles below)."""
    if family not in _BUBBLE_SHAPES:
        raise UnsupportedTagError(f"unknown bubble family {family!r}")
    if k < 0:
        raise BadDegreeError("bubble spaces need k >= 0")
    return _memo(frame, ("bubble", family, k), _bubble_space, family, k)


def _bubble_space(frame: SimplexFrame, family: str, k: int) -> PolySpace:
    tag, mode = _BUBBLE_SHAPES[family]
    shape = build_standard(frame, tag, k)
    coords = trace_matrix(frame, shape, mode).null_space()
    basis = exact.image_basis(shape.times(coords))
    return PolySpace(frame, shape.kind, shape.k, basis)


def _edge_values(frame: SimplexFrame, kind: str) -> dict:
    """c_ij per edge (i, j), i < j, as a constant polynomial: t_ij = x_j - x_i
    for "vector" and T_ij for "sym"."""
    if kind == "sym":
        return frame.tensor_T
    return {ij: Polynomial.constant_vector(frame.d, frame.tangent(*ij)) for ij in combinations(range(frame.d + 1), 2)}


def bubble_generator_bernstein(frame: SimplexFrame, kind: str, k: int) -> Matrix:
    """The generators lambda_i lambda_j lambda^beta c_ij, |beta| = k-2
    (``_edge_values``), as integer columns C_B against the Bernstein columns
    (alpha, c) of G(kind, k) (``SimplexFrame.bernstein``): column (ij, beta)
    is c_ij, cleared to integers, in the rows of alpha = beta + e_i + e_j.
    As the lambda^beta span P_{k-2}, G C_B spans the bubble; no columns below
    k = 2."""
    d, nc = frame.d, poly.ncomp(kind, frame.d)
    index = {alpha: i * nc for i, alpha in enumerate(_bernstein_alphas(d, max(k, 0)))}
    betas = _bernstein_alphas(d, k - 2) if k >= 2 else ()
    edges = sorted(_edge_values(frame, kind).items())
    rows = [[0] * (len(edges) * len(betas)) for _ in range(nc * len(index))]
    for e, ((i, j), c) in enumerate(edges):
        for b, beta in enumerate(betas):
            a = index[tuple(n + (t == i) + (t == j) for t, n in enumerate(beta))]
            for (comp, _), v in c.int_terms()[2]:
                rows[a + comp][e * len(betas) + b] = v
    return Matrix.from_int_rows([(1, row) for row in rows], len(edges) * len(betas))


def bubble_generator_matrix(frame: SimplexFrame, kind: str, k: int) -> Matrix:
    """The generators of ``bubble_generator_bernstein`` over the frame (kind,
    d, k), G C_B: they span the bubble (a basis for "sym", not for
    "vector")."""
    return frame.bernstein(kind, max(k, 0)).matmul(bubble_generator_bernstein(frame, kind, k))


def bubble_vector_generators(frame: SimplexFrame, k: int) -> PolySpace:
    """span{lambda_i lambda_j lambda^beta t_ij : |beta| = k-2}, t_ij = x_j - x_i (the
    generator-side bubble of P_k(R^d); empty below k = 2), in canonical form."""
    return PolySpace(frame, "vector", max(k, 0), exact.image_basis(bubble_generator_matrix(frame, "vector", k)))


def bubble_sym_generators(frame: SimplexFrame, k: int) -> PolySpace:
    """span{lambda_i lambda_j lambda^beta T_ij : |beta| = k-2} (the generator-side bubble
    of P_k(S); empty below k = 2), in canonical form."""
    return PolySpace(frame, "sym", max(k, 0), exact.image_basis(bubble_generator_matrix(frame, "sym", k)))


def orthocomplement_in(parent: PolySpace, sub: PolySpace) -> PolySpace:
    """{p in parent : (p, s)_K = 0 for all s in sub} via the exact pairing."""
    _check_same(parent.frame, parent.kind, sub)
    if sub.dim == 0:
        return parent
    gram = frame_gram(parent.frame, parent.kind, sub.k, parent.k)
    # sub^T gram parent, as (parent^T gram^T sub)^T
    coords = sub.applied(parent.applied(gram).transpose()).transpose().null_space()
    return PolySpace(parent.frame, parent.kind, parent.k, exact.image_basis(parent.times(coords)))


_BUBBLE_GENERATORS = {"div_vector": bubble_vector_generators, "div_sym": bubble_sym_generators}


def split_bubble(frame: SimplexFrame, family: str, k: int) -> tuple[PolySpace, PolySpace]:
    """(kernel of the divergence inside the family's generator-side bubble,
    its L2 complement)."""
    if family not in _BUBBLE_GENERATORS:
        raise UnsupportedTagError(f"unknown bubble family {family!r}")
    if k < 0:
        raise BadDegreeError("bubble spaces need k >= 0")
    return _memo(frame, ("split", family, k), _split_bubble, family, k)


def _split_bubble(frame: SimplexFrame, family: str, k: int) -> tuple[PolySpace, PolySpace]:
    bubble = _BUBBLE_GENERATORS[family](frame, k)
    e0 = kernel_space("div" if bubble.kind == "vector" else "div_rowwise", bubble)
    return e0, orthocomplement_in(bubble, e0)


def ker_dot_x_vector(frame: SimplexFrame, k: int) -> PolySpace:
    """ker(. x) inside P_k(K; R^d)."""
    if k < 0:
        return empty_space(frame, "vector")
    return kernel_space("dot_x", build_standard(frame, "P_vector", k))


def ker_mat_x_sym(frame: SimplexFrame, k: int) -> PolySpace:
    """ker(. x) inside P_k(K; S) (row-wise product with x)."""
    if k < 0:
        return empty_space(frame, "sym")
    return kernel_space("mat_x", build_standard(frame, "P_sym", k))


# -- certifications ----------------------------------------------------------------------


def certify_decompositions(frame: SimplexFrame, k: int) -> list[CheckResult]:
    """Direct-sum and kernel characterizations at degree parameter k >= 1."""
    if k < 1:
        raise BadDegreeError("decomposition suite needs k >= 1")
    d = frame.d
    out = []

    def add(check_id, ok, expected, got):
        out.append(CheckResult(check_id, ok, expected=expected, got=got, context={"d": d, "k": k}))

    def add_decomp(check_id, a, b, whole):
        ok = space_is_direct_sum(a, b) and space_equal(space_sum(a, b), whole)
        add(check_id, ok, whole.dim, a.dim + b.dim)

    p_vec = build_standard(frame, "P_vector", k - 1)
    grad_pk = image_space("grad", build_standard(frame, "P_scalar", k))
    ker_vec = ker_dot_x_vector(frame, k - 1)
    skw_px = build_standard(frame, "skwPx", k - 2) if k >= 2 else empty_space(frame, "vector")
    add_decomp("decomp-vector-grad-plus-koszul-kernel", grad_pk, ker_vec, p_vec)
    add("kernel-dot-x-equals-skw-times-x", space_equal(ker_vec, skw_px), ker_vec.dim, skw_px.dim)
    add_decomp("decomp-vector-grad-plus-skw-x", grad_pk, skw_px, p_vec)

    p_sym = build_standard(frame, "P_sym", k - 1)
    def_pk = image_space("def", build_standard(frame, "P_vector", k))
    add_decomp("decomp-sym-def-plus-koszul-kernel", def_pk, ker_mat_x_sym(frame, k - 1), p_sym)
    defx = image_space("mat_x", def_pk)
    symx = image_space("mat_x", p_sym)
    add("image-def-x-equals-sym-x", space_equal(defx, symx), symx.dim, defx.dim)

    # kernel of q -> (def q) x on P_k(R^d), as the product of the two tables
    def_x = poly.operator_table("mat_x", "sym", d, k - 1).matmul(poly.operator_table("def", "vector", d, k))
    ker_defx = PolySpace(frame, "vector", k, exact.image_basis(def_x.null_space()))
    rm = build_standard(frame, "RM", 0)
    add("kernel-def-x-equals-rigid-motions", space_equal(ker_defx, rm), dim_RM(d), ker_defx.dim)
    return out


def div_preimage_in(space: PolySpace, target: PolySpace) -> PolySpace:
    """The subspace of `space` whose row-wise divergence lands in `target`.

    Requires `target` on the same simplex with the divergence's value shape,
    div injective on `space` and target inside its image (both hold for the
    complements of divergence-free bubbles); the preimage is read off one
    exact elimination of ``[M | tgt]`` and re-verified.
    """
    op = "div_rowwise" if space.kind == "sym" else "div"
    kind, k = poly.operator_target(op, space.k)
    _check_same(space.frame, kind, target)
    m = operator_matrix(op, space)
    tgt = target.with_degree(k).basis
    if target.dim == 0 or space.dim == 0:
        return empty_space(space.frame, space.kind, space.k)
    n = m.cols
    red, pivots = m.hstack(tgt).rref()
    if pivots[:n] != tuple(range(n)):
        raise exact.SingularMatrixError("divergence is not injective on the space")
    # A target column outside the image leaves a pivot in the tgt block, and
    # the check below rejects the coordinates read from the first n rows.
    coords = red.take(range(n), n)
    if not m.matmul(coords) == tgt:
        raise ArithmeticError("divergence preimage fell outside the image")
    return PolySpace(space.frame, space.kind, space.k, exact.image_basis(space.times(coords)))


def _div_free_coords(gens: Matrix, d: int, k: int) -> Matrix:
    """Coordinates, over the columns of ``gens`` (symmetric fields over the
    frame (sym, d, k)), of their divergence-free combinations."""
    return poly.operator_table("div_rowwise", "sym", d, k).matmul(gens).null_space()


def bubble_enrichment_sym(frame: SimplexFrame, k: int) -> PolySpace:
    """Degree-(k+1) symmetric bubbles whose divergences extend div P_k(S).

    With B the symmetric div bubble of degree k+1 and E0 = ker(div) in B,
    the enrichment is read off the paper's dual characterization as one null
    space,

        { b in B : (b, e)_K = 0 for e in E0, (b, def q)_K = 0 for q in P_{k-1}(K; R^d) }.

    Every b in B has zero normal trace tau n on the boundary, so
    (div b, q)_K = -(b, def q)_K, and the second condition says that div b is
    L2-orthogonal to P_{k-1}.  As div b is orthogonal to the rigid motions
    RM, a subspace of P_{k-1} for k >= 2, the divergences of the enrichment
    span the complement of (P_{k-1} perp RM) inside (P_k perp RM), and its
    dimension is d dim H_k.  Summing it onto P_k(S) raises the divergence
    range by one degree while keeping every trace.

    B enters through its generators G C_B, lambda_i lambda_j lambda^beta T_ij
    with |beta| = k-1 (``bubble_generator_matrix`` of degree k+1), a basis of
    B.  The enrichment's basis is W = G C_B coords, the null space's columns
    as computed, not brought to canonical form, and the ``P_minus_sym`` sum
    of ``build_standard`` keeps its rows past degree k as they are.  So every
    DoF with S_B C_B = 0 in Bernstein coordinates vanishes on W.  A result of
    any dimension other than d dim H_k raises ``ArithmeticError``.
    """
    if k < 2:
        raise BadDegreeError("the symmetric enrichment needs k >= 2")
    return _memo(frame, ("enrichment", k), _enrichment_sym, k)


def _enrichment_sym(frame: SimplexFrame, k: int) -> PolySpace:
    bubble = bubble_generator_matrix(frame, "sym", k + 1)
    e0 = bubble.matmul(_div_free_coords(bubble, frame.d, k + 1))
    deform = poly.operator_table("def", "vector", frame.d, k - 1)
    blocks = [deform.transpose().matmul(frame_gram(frame, "sym", k - 2, k + 1))]
    if e0.cols:  # E0 is empty at k = 2, and so is its degree-(k+1) Gram block
        blocks.append(e0.transpose().matmul(frame_gram(frame, "sym", k + 1, k + 1)))
    coords = Matrix.vstack(blocks, bubble.rows).matmul(bubble).null_space()
    basis = bubble.matmul(coords)
    expected = frame.d * dim_H(frame.d, k)
    if basis.cols != expected:
        raise ArithmeticError(f"enrichment has dimension {basis.cols}, not d dim H_k = {expected}")
    return PolySpace(frame, "sym", k + 1, basis)


def divdiv_splits(frame: SimplexFrame, k: int) -> tuple[PolySpace, PolySpace]:
    """Split E0perp(S) into the part with bubble divergence and a trace part."""
    if k < 3:
        raise BadDegreeError("divdiv splits need k >= 3")
    e0, e0perp = split_bubble(frame, "div_sym", k)
    bub_vec = bubble_vector_generators(frame, k - 1)
    rm = build_standard(frame, "RM", 0)
    b_rm = orthocomplement_in(bub_vec, rm)
    f0 = div_preimage_in(e0perp, b_rm)
    ftr = orthocomplement_in(e0perp, f0)
    return f0, ftr
