"""Catalog of polynomial spaces, operator matrices and space decompositions.

A ``PolySpace`` is a subspace of shaped polynomials of degree <= k, stored as
a coefficient matrix over the shaped monomial frame (columns are members).
Because frames are degree-major, a space re-expressed at a higher degree just
pads zero rows, so subspace algebra across degrees is one matrix problem.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable

from . import exact, poly
from .exact import Matrix
from .integrate import frame_gram
from .poly import Polynomial
from .report import CheckResult
from .simplex import SimplexFrame, reference_simplex

_ONE = Fraction(1)


class UnsupportedTagError(ValueError):
    """Raised for an unknown space or operator tag."""


class BadDegreeError(ValueError):
    """Raised when a construction is requested below its degree floor."""


class PolySpace:
    __slots__ = ("frame", "kind", "k", "basis", "tag", "_members")

    def __init__(self, frame: SimplexFrame, kind: str, k: int, basis: Matrix, tag: str = ""):
        self.frame = frame
        self.kind = kind
        self.k = k
        self.basis = basis
        self.tag = tag
        self._members = None
        if basis.rows != len(poly.frame(kind, frame.d, k)):
            raise ValueError("basis row count does not match the monomial frame")

    @property
    def dim(self) -> int:
        return self.basis.cols

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
        pad = Matrix.zeros(len(poly.frame(self.kind, self.frame.d, k)) - self.basis.rows, self.basis.cols)
        return PolySpace(self.frame, self.kind, k, Matrix.vstack([self.basis, pad], self.basis.cols), self.tag)

    def __repr__(self):
        return f"PolySpace({self.tag or self.kind}, d={self.frame.d}, k={self.k}, dim={self.dim})"


def _common_frames(a: PolySpace, b: PolySpace) -> tuple[Matrix, Matrix]:
    if a.frame is not b.frame and a.frame.vertices != b.frame.vertices:
        raise ValueError("spaces live on different simplices")
    if a.kind != b.kind:
        raise poly.ShapeMismatchError("spaces have different value shapes")
    k = max(a.k, b.k)
    return a.with_degree(k).basis, b.with_degree(k).basis


def space_equal(a: PolySpace, b: PolySpace) -> bool:
    ma, mb = _common_frames(a, b)
    return exact.subspace_equal(ma, mb)


def space_sum(a: PolySpace, b: PolySpace, tag: str = "") -> PolySpace:
    ma, mb = _common_frames(a, b)
    k = max(a.k, b.k)
    return PolySpace(a.frame, a.kind, k, exact.subspace_sum(ma, mb), tag)


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


def _monomial_space(frame: SimplexFrame, kind: str, k: int, tag: str) -> PolySpace:
    n = len(poly.frame(kind, frame.d, k))
    return PolySpace(frame, kind, k, Matrix.identity(n), tag)


def _homogeneous(frame: SimplexFrame, kind: str, k: int, tag: str = "") -> PolySpace:
    """The monomials of degree exactly k, as unit columns."""
    fr = poly.frame(kind, frame.d, k)
    cols = [i for i, (_, exps) in enumerate(fr) if sum(exps) == k]
    rows = [(1, [int(i == c) for c in cols]) for i in range(len(fr))]
    return PolySpace(frame, kind, k, Matrix.from_int_rows(rows, len(cols)), tag)


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
        return _monomial_space(frame, _P_TAGS[tag], k, f"{tag}_{k}")
    if tag == "H_scalar":
        return _homogeneous(frame, "scalar", k, f"H_{k}")
    if tag == "xxT_H":
        return image_space("xxT", build_standard(frame, "H_scalar", k), f"xxT_H_{k}")
    if tag == "skwPx":
        return image_space("mat_x", build_standard(frame, "P_skw", k), f"skwPx_{k}")
    if tag == "P_minus_sym":
        return _direct_sum(build_standard(frame, "P_sym", k), bubble_enrichment_sym(frame, k), f"{tag}_{k + 1}")
    if tag == "P_sym_plus_xxT":
        return _direct_sum(build_standard(frame, "P_sym", k), build_standard(frame, "xxT_H", k - 1), f"{tag}_{k}")
    p_k = build_standard(frame, "P_vector", k)
    if tag == "ND":
        return _direct_sum(p_k, image_space("mat_x", _homogeneous(frame, "skw", k)), f"ND_{k}")
    return _direct_sum(p_k, image_space("x", build_standard(frame, "H_scalar", k)), f"RT_{k}")


def _direct_sum(p_k: PolySpace, w: PolySpace, tag: str) -> PolySpace:
    """P_k + W as diag(I_n, W's rows past degree k), W of degree k + 1: those
    rows are independent where W meets P_k only in 0 (a vanishing combination
    is a member of W in P_k).  Were it not so, dim would exceed the DoF rank
    and unisolvence would fail; it cannot pass silently."""
    top = w.basis.take(range(p_k.dim, w.basis.rows))
    return PolySpace(p_k.frame, p_k.kind, w.k, Matrix.block_diag(p_k.basis, top), tag)


def empty_space(frame: SimplexFrame, kind: str, k: int = 0, tag: str = "") -> PolySpace:
    n = len(poly.frame(kind, frame.d, max(k, 0)))
    return PolySpace(frame, kind, max(k, 0), Matrix.zeros(n, 0), tag)


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
    return poly.operator_table(op, source.kind, source.frame.d, source.k).matmul(source.basis)


def image_space(op: str, source: PolySpace, tag: str = "") -> PolySpace:
    kind, k = poly.operator_target(op, source.k)
    basis = exact.image_basis(operator_matrix(op, source))
    return PolySpace(source.frame, kind, k, basis, tag or f"img_{op}({source.tag})")


def kernel_space(op: str, source: PolySpace, tag: str = "") -> PolySpace:
    coords = operator_matrix(op, source).null_space()
    basis = exact.image_basis(source.basis.matmul(coords))
    return PolySpace(source.frame, source.kind, source.k, basis, tag or f"ker_{op}({source.tag})")


# -- traces and bubbles ----------------------------------------------------------------


# the face traces whose vanishing defines the bubbles of the div and divdiv families
_CONFORMING_TRACES = ("vector_normal", "tensor_normal", "normal_div", "combo")


def trace_matrix(frame: SimplexFrame, space: PolySpace, mode: str) -> Matrix:
    """Stacked face-trace coefficients: rows = (face, [comp,] chart monomial);
    ``mode`` is one of the ``Face.traces`` modes in ``_CONFORMING_TRACES``."""
    if mode not in _CONFORMING_TRACES:
        raise UnsupportedTagError(f"unknown trace mode {mode!r}")
    mats = [t for face in frame.faces(1) for t in face.traces(space.kind, space.k, mode)[1]]
    stacked = Matrix.vstack(mats, space.basis.rows)
    return stacked.matmul(space.basis)


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
    basis = exact.image_basis(shape.basis.matmul(coords))
    return PolySpace(frame, shape.kind, shape.k, basis, f"bubble_{family}_{k}")


def _edge_generators(frame: SimplexFrame, k: int, edge_values: dict) -> list[Polynomial]:
    """lambda_i lambda_j m c_ij for |m| <= k-2 over the edges (i, j) of the
    simplex, c_ij the constant polynomial ``edge_values[(i, j)]``."""
    gens = []
    for (i, j), c in sorted(edge_values.items()):
        lamlam = poly.multiply(frame.lambdas[i], frame.lambdas[j])
        for exps in poly.monomials(frame.d, k - 2):
            mono = Polynomial(frame.d, "scalar", {(0, exps): _ONE})
            gens.append(poly.multiply(poly.multiply(lamlam, mono), c))
    return gens


def bubble_generator_matrix(frame: SimplexFrame, kind: str, k: int) -> Matrix:
    """Coefficients over the frame (kind, d, k) of the generators
    lambda_i lambda_j m c_ij, |m| <= k-2, with c_ij = t_ij = x_j - x_i for
    "vector" and T_ij for "sym": they span the bubble (a basis for "sym",
    not for "vector"); no columns below k = 2."""
    if k < 2:
        return Matrix.zeros(len(poly.frame(kind, frame.d, max(k, 0))), 0)
    values = frame.tensor_T if kind == "sym" else {
        ij: Polynomial.constant_vector(frame.d, frame.tangent(*ij)) for ij in combinations(range(frame.d + 1), 2)}
    return poly.coeff_matrix(_edge_generators(frame, k, values), k)


def bubble_vector_generators(frame: SimplexFrame, k: int) -> PolySpace:
    """span{lambda_i lambda_j m t_ij : |m| <= k-2}, t_ij = x_j - x_i (the
    generator-side bubble of P_k(R^d); empty below k = 2), in canonical form."""
    gens = bubble_generator_matrix(frame, "vector", k)
    return PolySpace(frame, "vector", max(k, 0), exact.image_basis(gens), f"bubble_vec_gen_{k}")


def bubble_sym_generators(frame: SimplexFrame, k: int) -> PolySpace:
    """span{lambda_i lambda_j m T_ij : |m| <= k-2} (the generator-side bubble
    of P_k(S); empty below k = 2), in canonical form."""
    gens = bubble_generator_matrix(frame, "sym", k)
    return PolySpace(frame, "sym", max(k, 0), exact.image_basis(gens), f"bubble_sym_gen_{k}")


def orthocomplement_in(parent: PolySpace, sub: PolySpace, tag: str = "") -> PolySpace:
    """{p in parent : (p, s)_K = 0 for all s in sub} via the exact pairing."""
    if sub.dim == 0:
        return PolySpace(parent.frame, parent.kind, parent.k, parent.basis, tag or parent.tag)
    frame = parent.frame
    gram = frame_gram(frame, parent.kind, sub.k, parent.k)
    coords = sub.basis.transpose().matmul(gram).matmul(parent.basis).null_space()
    return PolySpace(
        frame, parent.kind, parent.k, exact.image_basis(parent.basis.matmul(coords)), tag
    )


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
    e0 = kernel_space("div" if bubble.kind == "vector" else "div_rowwise", bubble, f"E0_{family}_{k}")
    return e0, orthocomplement_in(bubble, e0, f"E0perp_{family}_{k}")


def ker_dot_x_vector(frame: SimplexFrame, k: int) -> PolySpace:
    """ker(. x) inside P_k(K; R^d)."""
    if k < 0:
        return empty_space(frame, "vector", 0, "ker_dot_x_empty")
    return kernel_space("dot_x", build_standard(frame, "P_vector", k), f"ker_dot_x_vec_{k}")


def ker_mat_x_sym(frame: SimplexFrame, k: int) -> PolySpace:
    """ker(. x) inside P_k(K; S) (row-wise product with x)."""
    if k < 0:
        return empty_space(frame, "sym", 0, "ker_mat_x_empty")
    return kernel_space("mat_x", build_standard(frame, "P_sym", k), f"ker_mat_x_sym_{k}")


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
    grad_pk = image_space("grad", build_standard(frame, "P_scalar", k), "grad_Pk")
    ker_vec = ker_dot_x_vector(frame, k - 1)
    skw_px = build_standard(frame, "skwPx", k - 2) if k >= 2 else empty_space(frame, "vector", 0, "skwPx_empty")
    add_decomp("decomp-vector-grad-plus-koszul-kernel", grad_pk, ker_vec, p_vec)
    add("kernel-dot-x-equals-skw-times-x", space_equal(ker_vec, skw_px), ker_vec.dim, skw_px.dim)
    add_decomp("decomp-vector-grad-plus-skw-x", grad_pk, skw_px, p_vec)

    p_sym = build_standard(frame, "P_sym", k - 1)
    def_pk = image_space("def", build_standard(frame, "P_vector", k), "def_Pk")
    add_decomp("decomp-sym-def-plus-koszul-kernel", def_pk, ker_mat_x_sym(frame, k - 1), p_sym)
    defx = image_space("mat_x", def_pk, "def_Pk_times_x")
    symx = image_space("mat_x", p_sym, "P_sym_times_x")
    add("image-def-x-equals-sym-x", space_equal(defx, symx), symx.dim, defx.dim)

    # kernel of q -> (def q) x on P_k(R^d), as the product of the two tables
    def_x = poly.operator_table("mat_x", "sym", d, k - 1).matmul(poly.operator_table("def", "vector", d, k))
    ker_defx = PolySpace(frame, "vector", k, exact.image_basis(def_x.null_space()), "ker_def_x")
    rm = build_standard(frame, "RM", 0)
    add("kernel-def-x-equals-rigid-motions", space_equal(ker_defx, rm), dim_RM(d), ker_defx.dim)
    return out


def div_preimage_in(space: PolySpace, target: PolySpace, tag: str = "") -> PolySpace:
    """The subspace of `space` whose row-wise divergence lands in `target`.

    Requires div to be injective on `space` and target to lie inside its
    image (both hold for the complements of divergence-free bubbles); the
    preimage is read off one exact elimination of ``[M | tgt]`` and
    re-verified.
    """
    op = "div_rowwise" if space.kind == "sym" else "div"
    m = operator_matrix(op, space)
    tgt = target.with_degree(poly.operator_target(op, space.k)[1]).basis
    if target.dim == 0 or space.dim == 0:
        return empty_space(space.frame, space.kind, space.k, tag)
    n = m.cols
    red, pivots = m.hstack(tgt).rref()
    if pivots[:n] != tuple(range(n)):
        raise exact.SingularMatrixError("divergence is not injective on the space")
    # A target column outside the image leaves a pivot in the tgt block, and
    # the check below rejects the coordinates read from the first n rows.
    coords = red.take(range(n), n)
    if not m.matmul(coords) == tgt:
        raise ArithmeticError("divergence preimage fell outside the image")
    return PolySpace(
        space.frame, space.kind, space.k, exact.image_basis(space.basis.matmul(coords)), tag
    )


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

    B enters through its generators lambda_i lambda_j m T_ij (|m| <= k-1, see
    ``bubble_generator_matrix``), which are sparser than its canonical basis.
    They are dim B many, so a basis, and the enrichment's basis is their
    combinations by the null space's columns as computed, not brought to
    canonical form; the ``P_minus_sym`` sum of ``build_standard`` keeps its
    rows past degree k as they are.  A result of any dimension other than
    d dim H_k raises ``ArithmeticError``.
    """
    if k < 2:
        raise BadDegreeError("the symmetric enrichment needs k >= 2")
    return _memo(frame, ("enrichment", k), _enrichment_sym, k)


def _enrichment_sym(frame: SimplexFrame, k: int) -> PolySpace:
    bubble = poly.coeff_matrix(_edge_generators(frame, k + 1, frame.tensor_T), k + 1)
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
    return PolySpace(frame, "sym", k + 1, basis, f"bubble_enrichment_sym_{k + 1}")


def divdiv_splits(frame: SimplexFrame, k: int) -> tuple[PolySpace, PolySpace]:
    """Split E0perp(S) into the part with bubble divergence and a trace part."""
    if k < 3:
        raise BadDegreeError("divdiv splits need k >= 3")
    e0, e0perp = split_bubble(frame, "div_sym", k)
    bub_vec = bubble_vector_generators(frame, k - 1)
    rm = build_standard(frame, "RM", 0)
    b_rm = orthocomplement_in(bub_vec, rm, f"bubble_vec_perp_RM_{k - 1}")
    f0 = div_preimage_in(e0perp, b_rm, f"F0_sym_{k}")
    ftr = orthocomplement_in(e0perp, f0, f"Ftr_sym_{k}")
    return f0, ftr
