import random
from fractions import Fraction

import pytest

from femforge import exact, poly, spaces
from femforge.exact import Matrix
from femforge.poly import Polynomial
from femforge.report import all_passed
from femforge.simplex import SimplexFrame, random_frame, reference_simplex
from femforge.spaces import (
    BadDegreeError,
    UnsupportedTagError,
    bubble_space,
    bubble_sym_generators,
    bubble_vector_generators,
    build_standard,
    certify_decompositions,
    dim_ND,
    dim_P,
    dim_RM,
    dim_bubble_sym,
    dim_bubble_vector,
    dim_E0_sym,
    dim_E0_vector,
    dim_E0perp_sym,
    dim_E0perp_vector,
    dim_trace_sym,
    dim_trace_vector,
    div_preimage_in,
    divdiv_splits,
    image_space,
    ker_mat_x_sym,
    kernel_space,
    operator_matrix,
    orthocomplement_in,
    space_equal,
    space_is_direct_sum,
    space_sum,
    split_bubble,
    trace_matrix,
)
import reference
from reference import preimage_enrichment_sym


@pytest.fixture(scope="module")
def tri():
    return reference_simplex(2)


@pytest.fixture(scope="module")
def tet():
    return reference_simplex(3)


def test_standard_dims(tri, tet):
    assert build_standard(tri, "P_scalar", 3).dim == 10
    assert build_standard(tet, "RM", 0).dim == 6
    assert build_standard(tet, "ND", 1).dim == dim_ND(3, 1) == 20
    assert build_standard(tri, "H_scalar", 2).dim == 3
    rt = build_standard(tri, "RT_shape", 1)
    assert rt.dim == dim_P(2, 1) * 2 + 2  # P_1(R^2) + H_1 x
    assert build_standard(tri, "xxT_H", 1).dim == 2
    assert build_standard(tet, "P_sym", 2).dim == 60


def test_unknown_tag_and_bad_degree(tri):
    with pytest.raises(UnsupportedTagError):
        build_standard(tri, "nope", 1)
    with pytest.raises(BadDegreeError):
        build_standard(tri, "P_scalar", -1)


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_bubble_vector_dims(d, k):
    fr = reference_simplex(d)
    assert bubble_space(fr, "div_vector", k).dim == dim_bubble_vector(d, k)


def test_bubble_vector_low_order_zero(tri):
    assert bubble_space(tri, "div_vector", 0).dim == 0
    assert bubble_space(tri, "div_vector", 1).dim == 0


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_bubble_sym_dims(d, k):
    fr = reference_simplex(d)
    assert bubble_space(fr, "div_sym", k).dim == dim_bubble_sym(d, k)


def test_bubble_d3_k2_is_six(tet):
    assert bubble_space(tet, "div_vector", 2).dim == 6


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2)])
def test_bubble_sym_generators_match_kernel(d, k):
    rng = random.Random(70 + 10 * d + k)
    for fr in (reference_simplex(d), random_frame(d, rng)):
        gen = bubble_sym_generators(fr, k)
        ker = bubble_space(fr, "div_sym", k)
        assert gen.dim == dim_bubble_sym(d, k)
        assert space_equal(gen, ker)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bubble_vector_generators_match_kernel(d, k):
    rng = random.Random(90 + 10 * d + k)
    for fr in (reference_simplex(d), random_frame(d, rng)):
        gen = bubble_vector_generators(fr, k)
        assert (gen.kind, gen.k, gen.dim) == ("vector", k, dim_bubble_vector(d, k))
        assert gen.basis == bubble_space(fr, "div_vector", k).basis


@pytest.mark.parametrize("kind", ["vector", "sym"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_bernstein_generator_columns_span_the_polynomial_generators(monkeypatch, kind, d, k):
    # lambda_i lambda_j lambda^beta c_ij against G, and lambda_i lambda_j m c_ij
    # as products of polynomials (the oracle): one column per edge and per
    # basis of P_{k-2}; the monomial generators are G C_B, with no product
    calls = []
    multiply = poly.multiply
    monkeypatch.setattr(poly, "multiply", lambda *args: calls.append(args) or multiply(*args))
    for fr in (reference_simplex(d), random_frame(d, random.Random(70 + 10 * d + k))):
        c_b = spaces.bubble_generator_bernstein(fr, kind, k)
        gens = reference.bubble_generator_products(fr, kind, k)
        assert c_b.cols == gens.cols and c_b.rank() == gens.rank()
        matrix = spaces.bubble_generator_matrix(fr, kind, k)
        assert matrix == fr.bernstein(kind, k).matmul(c_b) and not calls
        assert exact.image_basis(matrix) == exact.image_basis(gens)


def test_generator_traces_vanish(tri):
    gen = bubble_sym_generators(tri, 2)
    tr = trace_matrix(tri, gen, "tensor_normal")
    assert tr.is_zero()


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_split_bubble_vector_dims(d, k):
    fr = reference_simplex(d)
    e0, e0perp = split_bubble(fr, "div_vector", k)
    assert e0.dim == dim_E0_vector(d, k)
    assert e0perp.dim == dim_E0perp_vector(d, k)
    assert e0.dim + e0perp.dim == dim_bubble_vector(d, k)


def test_split_bubble_vector_d2k2(tri):
    e0, _ = split_bubble(tri, "div_vector", 2)
    assert e0.dim == 2 * 3 - 6 + 1 == 1


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_split_bubble_sym_dims(d, k):
    fr = reference_simplex(d)
    e0, e0perp = split_bubble(fr, "div_sym", k)
    assert e0.dim == dim_E0_sym(d, k)
    assert e0perp.dim == dim_E0perp_sym(d, k)


def test_e0_sym_k3_d2_trivial_and_k4_one(tri):
    assert dim_E0_sym(2, 3) == 0
    assert split_bubble(tri, "div_sym", 3)[0].dim == 0
    assert dim_E0_sym(2, 4) == 1
    assert split_bubble(tri, "div_sym", 4)[0].dim == 1


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_trace_rank_vector(d, k):
    fr = reference_simplex(d)
    tr = trace_matrix(fr, build_standard(fr, "P_vector", k), "vector_normal")
    assert tr.rank() == dim_trace_vector(d, k)


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_trace_rank_sym(d, k):
    fr = reference_simplex(d)
    tr = trace_matrix(fr, build_standard(fr, "P_sym", k), "tensor_normal")
    assert tr.rank() == dim_trace_sym(d, k)


def test_trace_sym_d3_boundary_total():
    for k in (2, 3):
        assert dim_trace_sym(3, k) == 6 * (k + 1) ** 2


def test_rt_trace_rank(tri, tet):
    assert trace_matrix(tri, build_standard(tri, "RT_shape", 0), "vector_normal").rank() == 3
    assert trace_matrix(tet, build_standard(tet, "RT_shape", 0), "vector_normal").rank() == 4
    # for k >= 1 the enrichment does not add trace content
    assert (
        trace_matrix(tri, build_standard(tri, "RT_shape", 2), "vector_normal").rank()
        == dim_trace_vector(2, 2)
    )


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_rt_kernel_stability(d, k):
    # the div kernel inside the enriched bubble equals E0 of the plain space
    fr = reference_simplex(d)
    rt_bubble = bubble_space(fr, "div_RT_minus", k)
    assert rt_bubble.dim == spaces.dim_bubble_rt(d, k)
    ker = kernel_space("div", rt_bubble)
    e0, _ = split_bubble(fr, "div_vector", k)
    assert space_equal(ker, e0.with_degree(ker.k))


def test_div_eigen_on_x_times_H(tri):
    # div(x q) = (k + d) q in matched bases
    d, k = 2, 2
    h = build_standard(tri, "H_scalar", k)
    members = [
        Polynomial.vector_from(
            [poly.multiply(Polynomial.coordinate(d, t), q) for t in range(d)]
        )
        for q in h.members()
    ]
    images = [poly.div(v) for v in members]
    img_mat = poly.coeff_matrix(images, k)
    expect = poly.coeff_matrix([q.scale(k + d) for q in h.members()], k)
    assert img_mat == expect


def test_dot_x_on_grad_homogeneous(tri):
    r = 3
    h = build_standard(tri, "H_scalar", r)
    for q in h.members():
        assert poly.koszul_dot_x(poly.grad(q)) == q.scale(r)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2)])
def test_divdiv_bijective_on_xxT(d, k):
    # divdiv: x x^T H_{k-1} -> H_{k-1} is (k+d)(k+d-1) x identity in matched bases
    fr = reference_simplex(d)
    h = build_standard(fr, "H_scalar", k - 1)
    images = [poly.divdiv(poly.koszul_xxT(q)) for q in h.members()]
    got = poly.coeff_matrix(images, k - 1)
    expect = poly.coeff_matrix([q.scale((k + d) * (k + d - 1)) for q in h.members()], k - 1)
    assert got == expect


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)])
def test_div_sym_surjective(d, k):
    fr = reference_simplex(d)
    img = image_space("div_rowwise", build_standard(fr, "P_sym", k + 1))
    assert img.dim == dim_P(d, k) * d
    assert space_equal(img, build_standard(fr, "P_vector", k))


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_div_bubble_sym_is_rm_perp(d, k):
    fr = reference_simplex(d)
    img = image_space("div_rowwise", bubble_space(fr, "div_sym", k))
    p = build_standard(fr, "P_vector", k - 1)
    rm = build_standard(fr, "RM", 0)
    rm_perp = orthocomplement_in(p, rm)
    assert space_equal(img, rm_perp)
    assert rm_perp.dim == p.dim - dim_RM(d)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_certify_decompositions_reference_and_random(d, k):
    rng = random.Random(1000 + 10 * d + k)
    for fr in (reference_simplex(d), random_frame(d, rng)):
        results = certify_decompositions(fr, k)
        assert all_passed(results), [r.as_dict() for r in results if not r.passed]


def test_ker_mat_x_sym_d2_characterization(tri):
    # in 2D the kernel of tau -> tau x in P_2(S) is spanned by xperp xperp^T
    ker = ker_mat_x_sym(tri, 2)
    assert ker.dim == 1
    x1 = Polynomial.coordinate(2, 0)
    x2 = Polynomial.coordinate(2, 1)
    xperp = [x2, -x1]
    entries = {}
    for c, (i, j) in enumerate(poly.sym_pairs(2)):
        prod = poly.multiply(xperp[i], xperp[j])
        for (_, e), v in prod.terms.items():
            entries[(c, e)] = v
    xperp_mat = Polynomial(2, "sym", entries)
    target = spaces.PolySpace(tri, "sym", 2, poly.coeff_matrix([xperp_mat], 2))
    assert space_equal(ker, target)


def test_ker_mat_x_sym_d2_p1_trivial(tri):
    assert ker_mat_x_sym(tri, 1).dim == 0


def test_divdiv_splits_dims(tri):
    with pytest.raises(BadDegreeError):
        divdiv_splits(tri, 2)
    f0, ftr = divdiv_splits(tri, 3)
    assert f0.dim == dim_bubble_vector(2, 2) - dim_RM(2)  # = 0
    assert f0.dim == 0
    e0, e0perp = split_bubble(tri, "div_sym", 3)
    assert ftr.dim == e0perp.dim - f0.dim

    f0, ftr = divdiv_splits(tri, 4)
    assert f0.dim == dim_bubble_vector(2, 3) - dim_RM(2) == 5
    e0, e0perp = split_bubble(tri, "div_sym", 4)
    assert f0.dim + ftr.dim == e0perp.dim
    # div restricted to E0perp is injective
    assert operator_matrix("div_rowwise", e0perp).rank() == e0perp.dim
    # the trace of div(Ftr) spans the whole achievable trace space
    tr = trace_matrix(tri, image_space("div_rowwise", ftr), "vector_normal")
    assert tr.rank() == ftr.dim == dim_trace_vector(2, 3)


def test_div_preimage_in(tri):
    _, e0perp = split_bubble(tri, "div_sym", 4)
    f0, _ = divdiv_splits(tri, 4)
    assert space_equal(div_preimage_in(e0perp, image_space("div_rowwise", f0)), f0)
    # div E0perp misses the rigid motions, so all of P_3(R^2) has no preimage
    with pytest.raises(ArithmeticError):
        div_preimage_in(e0perp, build_standard(tri, "P_vector", 3))
    # div has a kernel on P_4(S): the preimage is not unique
    with pytest.raises(exact.SingularMatrixError):
        div_preimage_in(build_standard(tri, "P_sym", 4), image_space("div_rowwise", f0))


def test_complement_and_preimage_reject_another_shape_or_simplex():
    # on a tetrahedron P_vector and P_skw both store 3 components, so only the
    # value shape tells them apart
    tet, other = reference_simplex(3), random_frame(3, random.Random(7))
    p2 = build_standard(tet, "P_vector", 2)
    _, e0perp = split_bubble(tet, "div_sym", 3)
    for parent, sub in [(p2, build_standard(tet, "P_skw", 1)), (p2, spaces.empty_space(tet, "skw")),
                        (e0perp, build_standard(tet, "P_vector", 1))]:
        with pytest.raises(poly.ShapeMismatchError):
            orthocomplement_in(parent, sub)
    with pytest.raises(ValueError, match="different simplices"):
        orthocomplement_in(p2, build_standard(other, "P_vector", 1))
    # the divergence of a symmetric field is a vector field on the same simplex
    with pytest.raises(poly.ShapeMismatchError):
        div_preimage_in(e0perp, build_standard(tet, "P_skw", 1))
    with pytest.raises(ValueError, match="different simplices"):
        div_preimage_in(e0perp, build_standard(other, "P_vector", 1))
    # an empty sub of the parent's shape leaves the parent itself
    assert orthocomplement_in(p2, spaces.empty_space(tet, "vector")) is p2


def test_e0_pairing_nondegenerate(tri):
    # the kernel-of-Koszul moments alone determine E0(S)
    k = 4
    e0, _ = split_bubble(tri, "div_sym", k)
    tests = ker_mat_x_sym(tri, k - 2)
    assert tests.dim == e0.dim
    pairing = Matrix(
        [[__import__("femforge.integrate", fromlist=["pair_simplex"]).pair_simplex(tri, t, b)
          for b in e0.members()] for t in tests.members()]
    )
    assert pairing.rank() == e0.dim


def test_e0_vector_pairing_nondegenerate(tri):
    # the vector-case dual logic: pairing E0 against ker(.x) moments has full rank
    from femforge.integrate import pair_simplex
    from femforge.spaces import ker_dot_x_vector

    for k in (2, 3):
        e0, _ = split_bubble(tri, "div_vector", k)
        tests = ker_dot_x_vector(tri, k - 1)
        assert tests.dim == e0.dim
        if e0.dim:
            pairing = Matrix(
                [[pair_simplex(tri, t, b) for b in e0.members()] for t in tests.members()]
            )
            assert pairing.rank() == e0.dim


def test_trace_matrix_named_operator_tags(tri):
    p3 = build_standard(tri, "P_sym", 3)
    assert trace_matrix(tri, p3, "tensor_normal").rank() == dim_trace_sym(2, 3)
    v = build_standard(tri, "P_vector", 2)
    assert trace_matrix(tri, v, "vector_normal").rank() == dim_trace_vector(2, 2)
    # the combined trace of the divdiv operator annihilates exactly the
    # functions with both zero tensor trace and zero normal divergence trace
    nd = trace_matrix(tri, p3, "normal_div")
    combo = trace_matrix(tri, p3, "combo")
    assert nd.rows == combo.rows


def test_p_skw_dims(tet):
    assert build_standard(tet, "P_skw", 1).dim == 4 * 3
    assert build_standard(tet, "P_skw", 0).dim == 3


def test_gram_matrix_accepts_space(tri):
    from reference import gram_matrix

    rm = build_standard(tri, "RM", 0)
    g = gram_matrix(tri, rm)
    assert g.rows == g.cols == 3
    assert g.det() > 0


def test_divdiv_splits_dims_3d(tet):
    f0, ftr = divdiv_splits(tet, 4)
    assert f0.dim == dim_bubble_vector(3, 3) - dim_RM(3) == 14
    _, e0perp = split_bubble(tet, "div_sym", 4)
    assert f0.dim + ftr.dim == e0perp.dim
    tr = trace_matrix(tet, image_space("div_rowwise", ftr), "vector_normal")
    assert tr.rank() == ftr.dim == dim_trace_vector(3, 3) == 40


# -- differential tests against polynomial trace extraction and pairing --------
#
# The references restrict each member's trace to every face one polynomial at
# a time, and pair subspace members one integral at a time; the library uses
# face trace matrices and a frame Gram product.  Results must be equal.

from femforge.integrate import pair_simplex  # noqa: E402
from femforge.simplex import surface_div  # noqa: E402


def _ref_face_trace_rows(face, member, mode, chart_k):
    g = face.normal_frame[0]
    d = member.d

    def dot_g(v):
        return sum((v.component(t).scale(g[t]) for t in range(d) if g[t]), Polynomial.zero(d))

    def row_g(i):
        return sum((member.entry(i, t).scale(g[t]) for t in range(d) if g[t]), Polynomial.zero(d))

    if mode == "vector_normal":
        polys = [face.restrict(dot_g(member))]
    elif mode == "tensor_normal":
        polys = [face.restrict(row_g(i)) for i in range(d)]
    elif mode == "normal_div":
        polys = [face.restrict(dot_g(reference.div_rowwise(member)))]
    elif mode == "combo":
        taug = Polynomial.vector_from([row_g(i) for i in range(d)])
        polys = [face.restrict(dot_g(reference.div_rowwise(member))) + surface_div(face, taug)]
    rows = []
    for p in polys:
        chart = Polynomial(face.dim, "scalar", {(0, e): v for (_, e), v in p.terms.items()})
        rows.append(poly.coeff_vector(chart, chart_k))
    return rows


def reference_trace_matrix(frame, space, mode):
    chart_k = space.k if mode in ("vector_normal", "tensor_normal") else max(space.k - 1, 0)
    cols = []
    for member in space.members():
        col = []
        for face in frame.faces(1):
            for row in _ref_face_trace_rows(face, member, mode, chart_k):
                col.extend(row)
        cols.append(col)
    return Matrix.from_columns(cols)


# each id names the differential operator whose face trace the mode is
_TRACE_CASES = [
    pytest.param("P_vector", "vector_normal", id="P_vector-div_vector"),
    pytest.param("RT_shape", "vector_normal", id="RT_shape-div_vector"),
    pytest.param("P_sym", "tensor_normal", id="P_sym-div_sym"),
    pytest.param("P_sym", "normal_div", id="P_sym-ndiv"),
    pytest.param("P_sym", "combo", id="P_sym-combo"),
]


@pytest.mark.parametrize("tag,mode", _TRACE_CASES)
@pytest.mark.parametrize("d,k", [(2, 1), (2, 3), (3, 2)])
def test_trace_matrix_matches_polynomial_reference(tag, mode, d, k):
    fr = random_frame(d, random.Random(40 + d + k))
    space = build_standard(fr, tag, k)
    assert trace_matrix(fr, space, mode) == reference_trace_matrix(fr, space, mode)


@pytest.mark.parametrize("family", ["div_vector", "div_sym", "div_RT_minus"])
@pytest.mark.parametrize("d,k", [(2, 2), (2, 4), (3, 3)])
def test_bubble_spaces_match_polynomial_trace_reference(family, d, k):
    fr = random_frame(d, random.Random(7 * d + k))
    tag, mode = spaces._BUBBLE_SHAPES[family]
    shape = build_standard(fr, tag, k)
    coords = reference_trace_matrix(fr, shape, mode).null_space()
    expected = exact.image_basis(shape.basis.matmul(coords))
    assert bubble_space(fr, family, k).basis == expected


def test_trace_matrix_rejects_unknown_mode(tri):
    with pytest.raises(UnsupportedTagError):
        trace_matrix(tri, build_standard(tri, "P_sym", 2), "tangential")


@pytest.mark.parametrize("d", [2, 3])
def test_orthocomplement_matches_pairwise_reference(d):
    fr = random_frame(d, random.Random(60 + d))
    rm = build_standard(fr, "RM", 0)
    cases = [
        (build_standard(fr, "P_vector", 2), rm),
        (split_bubble(fr, "div_sym", 3)[1], build_standard(fr, "P_sym", 1)),
    ]
    for parent, sub in cases:
        pairing = Matrix([[pair_simplex(fr, s, p) for p in parent.members()] for s in sub.members()])
        expected = exact.image_basis(parent.basis.matmul(pairing.null_space()))
        assert orthocomplement_in(parent, sub).basis == expected


# -- differential tests against the generator loops and the trace kernels -------
#
# The library builds each catalog space as one operator image over the monomial
# frame, and splits the bubbles taken from the explicit generators.  The
# references loop over the generators one polynomial at a time, and take each
# bubble as the kernel of its traces.  The canonical bases must be equal.


def _homogeneous_monomials(d, k):
    return [Polynomial(d, "scalar", {(0, e): Fraction(1)}) for e in poly.monomials(d, k) if sum(e) == k]


def _vector_monomials(d, k):
    return [Polynomial.monomial(d, "vector", c, e) for e in poly.monomials(d, k) for c in range(d)]


def _reference_nd_generators(d, k):
    gens = _vector_monomials(d, k)
    for c in range(poly.ncomp("skw", d)):
        nx = poly._apply("mat_x", Polynomial.monomial(d, "skw", c, (0,) * d))
        gens += [poly.multiply(q, nx) for q in _homogeneous_monomials(d, k)]
    return gens


def reference_build_standard(frame, tag, k):
    d = frame.d
    if tag == "ND":
        kind, deg, gens = "vector", k + 1, _reference_nd_generators(d, k)
    elif tag == "RT_shape":
        xq = [Polynomial.vector_from([poly.multiply(Polynomial.coordinate(d, t), q) for t in range(d)])
              for q in _homogeneous_monomials(d, k)]
        kind, deg, gens = "vector", k + 1, _vector_monomials(d, k) + xq
    elif tag == "xxT_H":
        kind, deg, gens = "sym", k + 2, [poly.koszul_xxT(q) for q in _homogeneous_monomials(d, k)]
    else:
        assert tag == "skwPx"
        gens = [poly._apply("mat_x", Polynomial.monomial(d, "skw", c, e))
                for c in range(poly.ncomp("skw", d)) for e in poly.monomials(d, k)]
        kind, deg = "vector", k + 1
    return spaces.PolySpace(frame, kind, deg, exact.image_basis(poly.coeff_matrix(gens, deg)))


_CATALOG_GRID = [(d, k) for d in (2, 3) for k in range(5)] + [(4, k) for k in range(3)]


@pytest.mark.parametrize("tag", ["ND", "RT_shape", "xxT_H", "skwPx"])
@pytest.mark.parametrize("d,k", _CATALOG_GRID)
def test_catalog_matches_generator_reference(tag, d, k):
    for fr in (reference_simplex(d), random_frame(d, random.Random(300 + 10 * d + k))):
        got, ref = build_standard(fr, tag, k), reference_build_standard(fr, tag, k)
        assert (got.kind, got.k) == (ref.kind, ref.k)
        assert got.basis == ref.basis


@pytest.mark.parametrize("m", [1, 2, 3])
def test_nd_basis_matches_generator_reference(m):
    assert spaces.nd_basis(m, -1) == ()
    for k in range(4):
        mat = exact.image_basis(poly.coeff_matrix(_reference_nd_generators(m, k), k + 1))
        expected = [poly.from_coeff_vector(m, "vector", k + 1, col) for col in mat.columns()]
        assert list(spaces.nd_basis(m, k)) == expected


@pytest.mark.parametrize("m", [1, 2, 3])
def test_nd_basis_is_built_once_per_degree(m):
    for k in range(3):
        first = spaces.nd_basis(m, k)
        assert isinstance(first, tuple) and spaces.nd_basis(m, k) is first
        assert list(first) == build_standard(reference_simplex(m), "ND", k).members()


def reference_split_bubble(frame, family, k):
    bubble = bubble_space(frame, family, k)
    e0 = kernel_space("div" if bubble.kind == "vector" else "div_rowwise", bubble)
    return e0, orthocomplement_in(bubble, e0)


def reference_bubble_enrichment_sym(frame, k):
    _, e0perp = reference_split_bubble(frame, "div_sym", k + 1)
    rm = build_standard(frame, "RM", 0)
    perp_k = orthocomplement_in(build_standard(frame, "P_vector", k), rm)
    perp_km1 = orthocomplement_in(build_standard(frame, "P_vector", k - 1), rm)
    return div_preimage_in(e0perp, orthocomplement_in(perp_k, perp_km1.with_degree(k)))


def reference_divdiv_splits(frame, k):
    _, e0perp = reference_split_bubble(frame, "div_sym", k)
    rm = build_standard(frame, "RM", 0)
    f0 = div_preimage_in(e0perp, orthocomplement_in(bubble_space(frame, "div_vector", k - 1), rm))
    return f0, orthocomplement_in(e0perp, f0)


def _assert_same_spaces(got, ref):
    for g, r in zip(got, ref, strict=True):
        assert (g.kind, g.k) == (r.kind, r.k)
        assert g.basis == r.basis


@pytest.mark.parametrize("family", ["div_vector", "div_sym"])
@pytest.mark.parametrize("d", [2, 3])
def test_split_bubble_matches_trace_kernel_reference(family, d):
    fr = random_frame(d, random.Random(500 + d))
    for k in range(5):
        _assert_same_spaces(split_bubble(fr, family, k), reference_split_bubble(fr, family, k))


@pytest.mark.parametrize("d", [2, 3])
def test_divdiv_splits_match_trace_kernel_reference(d):
    fr = random_frame(d, random.Random(510 + d))
    for k in (3, 4):
        _assert_same_spaces(divdiv_splits(fr, k), reference_divdiv_splits(fr, k))


@pytest.mark.parametrize("d", [2, 3])
def test_bubble_enrichment_matches_trace_kernel_reference(d):
    fr = random_frame(d, random.Random(520 + d))
    for k in (2, 3):
        got, ref = spaces.bubble_enrichment_sym(fr, k), reference_bubble_enrichment_sym(fr, k)
        # the enrichment is not brought to canonical form: compare spans
        assert (got.kind, got.k) == (ref.kind, ref.k)
        assert exact.image_basis(got.basis) == ref.basis


# The enrichment and the HdivS_minus shape space on the reference simplex, an
# integer simplex (for d = 3 the tetrahedron of the benchmark's enrich-d3
# workload) and a simplex with fractional vertices.  At d=2 k=3 the pairing
# has a nonempty divergence-free block (dim E0 = 1); at k=2 it has none.
_ENRICH_TET = [[-3, 3, 0], [-1, 0, 0], [0, -1, -3], [-3, -1, 3]]
_ENRICH_GRID = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]


def _enrichment_frames(d):
    integer = SimplexFrame(_ENRICH_TET) if d == 3 else random_frame(d, random.Random(530 + d))
    fractional = SimplexFrame(
        [[Fraction(i + 1, j + 2) if i == j else Fraction(i - j, 3) for j in range(d)] for i in range(d)]
        + [[Fraction(1, 5)] * d]
    )
    return reference_simplex(d), integer, fractional


@pytest.mark.parametrize("d,k", _ENRICH_GRID)
def test_bubble_enrichment_matches_preimage_reference(d, k):
    for fr in _enrichment_frames(d):
        got = spaces.bubble_enrichment_sym(fr, k)
        ref = preimage_enrichment_sym(fr, k)
        assert (got.kind, got.k) == (ref.kind, ref.k)
        assert got.dim == d * spaces.dim_H(d, k)
        assert exact.image_basis(got.basis) == ref.basis


def test_bubble_enrichment_guard_rejects_a_missing_e0_block(monkeypatch):
    # at d=2 k=3 the degree-4 bubble holds one divergence-free member; without
    # the E0 rows the null space keeps it and comes out one dimension too large
    fr = reference_simplex(2)
    assert split_bubble(fr, "div_sym", 4)[0].dim == dim_E0_sym(2, 4) == 1
    monkeypatch.setattr(spaces, "_div_free_coords", lambda gens, d, k: Matrix.zeros(gens.cols, 0))
    with pytest.raises(ArithmeticError, match="dimension 9"):
        spaces.bubble_enrichment_sym(fr, 3)
    assert ("enrichment", 3) not in fr._space_cache
    monkeypatch.undo()
    assert spaces.bubble_enrichment_sym(fr, 3).dim == 8


def test_bubble_enrichment_needs_k_at_least_2(tri):
    with pytest.raises(BadDegreeError):
        spaces.bubble_enrichment_sym(tri, 1)


@pytest.mark.parametrize("d,k", _ENRICH_GRID)
def test_shape_sym_minus_is_the_cached_space_sum(d, k):
    # every catalog sum P_j + W is diag(I_n, W's rows past degree j), spans
    # the space_sum of its summands and is memoized per frame; where W is
    # homogeneous it is space_sum's canonical basis itself
    for fr in _enrichment_frames(d):
        enrichment = spaces.bubble_enrichment_sym(fr, k)
        cells = [("P_minus_sym", "P_sym", k, enrichment),
                 ("P_sym_plus_xxT", "P_sym", k, build_standard(fr, "xxT_H", k - 1))]
        for j in range(k + 1):
            cells += [("ND", "P_vector", j, build_standard(fr, "skwPx", j)),
                      ("RT_shape", "P_vector", j, image_space("x", build_standard(fr, "H_scalar", j)))]
        for tag, p_tag, j, extra in cells:
            p = build_standard(fr, p_tag, j)
            got = build_standard(fr, tag, j)
            ref = space_sum(p, extra)
            assert (got.kind, got.k) == (p.kind, j + 1)
            assert got.dim == ref.dim and space_equal(got, ref)
            n = p.dim
            top = got.basis.take(range(n, got.basis.rows), n)
            assert got.basis == Matrix.block_diag(Matrix.identity(n), top)
            if tag == "P_minus_sym":
                assert top == enrichment.basis.take(range(n, enrichment.basis.rows))
            else:
                assert got.basis == ref.basis
            assert build_standard(fr, tag, j) is got


@pytest.mark.parametrize("k", [2, 3, 4])
def test_operator_matrix_of_a_non_identity_source_matches_the_per_member_images(k):
    # def on ND_k, mat_x on the skew P_k, and div_rowwise on the enrichment's
    # degree-(k+1) generators, against the per-term oracle member by member
    for fr in (reference_simplex(3), random_frame(3, random.Random(k))):
        bubble = spaces.bubble_generator_matrix(fr, "sym", k + 1)
        cases = [("def", build_standard(fr, "ND", k)), ("mat_x", build_standard(fr, "P_skw", k)),
                 ("div_rowwise", spaces.PolySpace(fr, "sym", k + 1, bubble))]
        for op, source in cases:
            tk = poly.operator_target(op, source.k)[1]
            fn = reference.OPERATOR_FUNCTIONS[op]
            expected = poly.coeff_matrix([fn(p) for p in source.members()], tk)
            assert operator_matrix(op, source) == expected
        # expected is now the generators' per-member divergences
        assert spaces._div_free_coords(bubble, 3, k + 1) == expected.null_space()
