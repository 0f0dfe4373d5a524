import dataclasses
import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import groupby

import pytest

from femforge import exact, poly, spaces
from femforge.elements import (
    FACE_SCALAR_NORMAL,
    FAMILIES,
    DoFDescriptor,
    Element,
    apply_dof,
    build_element,
    check_unisolvence,
    element_to_json,
    nodal_basis,
    trace_block_rank,
)
from femforge.exact import Matrix
from femforge.poly import Polynomial
from femforge.report import CheckResult
from femforge.simplex import random_frame, reference_simplex
from femforge.spaces import BadDegreeError, UnsupportedTagError, dim_trace_sym
import reference
from reference import div, div_rowwise, space_contains, subspace_contains


@pytest.fixture(scope="module")
def tri():
    return reference_simplex(2)


@pytest.fixture(scope="module")
def tet():
    return reference_simplex(3)


def test_bdm_k1_counts_and_rank(tri):
    e = build_element(tri, "BDM", 1)
    assert e.dim == 6
    assert len(e.dofs) == 6
    assert check_unisolvence(e).passed


def test_rt0_counts(tri):
    e = build_element(tri, "RT", 0)
    assert e.dim == 3 and len(e.dofs) == 3
    assert check_unisolvence(e).passed


def test_rt0_nodal_basis_form(tri):
    e = build_element(tri, "RT", 0)
    phis = nodal_basis(e)
    for j, dof in enumerate(e.dofs):
        opp = dof.face.opposite_ids[0]
        xv = tri.vertices[opp]
        shifted = Polynomial.vector_from(
            [Polynomial.coordinate(2, t) - Polynomial.constant(2, xv[t]) for t in range(2)]
        )
        # phi_j is a scalar multiple of (x - x_opposite)
        m = poly.coeff_matrix([phis[j], shifted], 1)
        assert m.rank() == 1
    # duality against all three dofs
    for i, dof in enumerate(e.dofs):
        for j, phi in enumerate(phis):
            assert apply_dof(tri, dof, phi) == (1 if i == j else 0)


def test_nodal_duality_identity_bdm(tri):
    e = build_element(tri, "BDM", 2)
    phis = nodal_basis(e)
    for i, dof in enumerate(e.dofs):
        for j, phi in enumerate(phis):
            assert apply_dof(tri, dof, phi) == (1 if i == j else 0)


def test_nodal_duality_identity_hdivs_30(tri):
    e = build_element(tri, "HdivS", 3)
    assert e.dim == 30
    phis = nodal_basis(e)
    vals = Matrix([[apply_dof(tri, dof, phi) for phi in phis] for dof in e.dofs])
    assert vals == Matrix.identity(30)


def test_hdivs_boundary_subtotal_3d(tet):
    for k in (2, 3):
        e = build_element(tet, "HdivS", k)
        shared = [dof for dof in e.dofs if dof.shared]
        assert len(shared) == 6 * (k + 1) ** 2 == dim_trace_sym(3, k)


def test_dropping_interior_dof_breaks_rank(tri):
    e = build_element(tri, "HdivS", 2)
    drop = max(i for i, dof in enumerate(e.dofs) if not dof.shared)
    rows = [e.dof_matrix.row(i) for i in range(len(e.dofs)) if i != drop]
    m = Matrix(rows)
    assert m.rank() == e.dim - 1
    assert m.null_space().cols == 1


@pytest.mark.parametrize("family,k", [("BDM", 2), ("RT", 1), ("HdivS", 2), ("HdivS_split", 2)])
@pytest.mark.parametrize("d", [2, 3])
def test_unisolvence_random_simplices(family, k, d):
    rng = random.Random(hash((family, k, d)) & 0xFFFF)
    fr = random_frame(d, rng)
    e = build_element(fr, family, k)
    assert check_unisolvence(e).passed


def test_degree_floors(tri, tet):
    with pytest.raises(BadDegreeError):
        build_element(tri, "BDM", 0)
    with pytest.raises(BadDegreeError):
        build_element(tri, "HdivS", 1)
    with pytest.raises(BadDegreeError):
        build_element(tri, "DivDivPlus", 2)  # floor max{d,3} = 3
    with pytest.raises(BadDegreeError):
        build_element(tet, "DivDiv", 2)
    with pytest.raises(UnsupportedTagError):
        build_element(tri, "Nope", 1)


def test_an_unknown_family_fails_when_the_element_is_constructed(tri):
    with pytest.raises(UnsupportedTagError, match="unknown element family 'Nope'"):
        Element("Nope", tri, 1, ())


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_shape_space_is_the_family_catalog_space(family):
    fr = random_frame(2, random.Random(73))
    spec = FAMILIES[family]
    k = spec.floor(2)
    e = Element(family, fr, k, spec.dofs(fr, k))
    assert e.space is spaces.build_standard(fr, spec.shape, k)
    assert build_element(fr, family, k).space is e.space


def test_degenerate_test_spaces_give_zero_dofs(tet):
    # at d=3, k=2 the facet normal-normal moments need P_{-1}: no DoFs there
    e = build_element(tet, "HdivS", 2)
    facet_nn = [dof for dof in e.dofs if dof.kind == "face_moment_nn" and dof.face.codim == 1]
    assert facet_nn == []
    assert check_unisolvence(e).passed


def test_variant_equivalence(tri, tet):
    # the split interior moments certify the same space at full rank
    for fr, k in ((tri, 2), (tri, 3), (tet, 3)):
        a = build_element(fr, "HdivS", k)
        b = build_element(fr, "HdivS_split", k)
        assert len(a.dofs) == len(b.dofs) == a.dim == b.dim
        assert check_unisolvence(a).passed and check_unisolvence(b).passed


def test_bdm_interior_merge_rowspace(tri):
    # interior moments against the edge space have the same row space as the
    # union of gradient moments and skw-times-x moments
    k = 3
    e = build_element(tri, "BDM", k)
    interior_rows = Matrix(
        [e.dof_matrix.row(i) for i, dof in enumerate(e.dofs) if not dof.shared]
    )
    members = e.space.members()
    grads = spaces.image_space("grad", spaces.build_standard(tri, "P_scalar", k - 1)).members()
    skwx = spaces.build_standard(tri, "skwPx", k - 2).members()
    alt_rows = Matrix(
        [[__import__("femforge.integrate", fromlist=["pair_simplex"]).pair_simplex(tri, q, m)
          for m in members] for q in grads + skwx]
    )
    assert exact.subspace_equal(interior_rows.transpose(), alt_rows.transpose())


def test_rt_enrichment_over_bdm(tri):
    # same shared descriptors at equal k; RT interior test space strictly
    # contains BDM's with rank difference dim H_k
    k = 2
    bdm = build_element(tri, "BDM", k)
    rt = build_element(tri, "RT", k)
    bs = [(d.kind, d.face.vertex_ids, d.test) for d in bdm.dofs if d.shared]
    rs = [(d.kind, d.face.vertex_ids, d.test) for d in rt.dofs if d.shared]
    assert bs == rs
    nd = spaces.build_standard(tri, "ND", k - 2)
    pk1 = spaces.build_standard(tri, "P_vector", k - 1)
    assert space_contains(pk1, nd)
    assert pk1.dim - nd.dim == spaces.dim_H(2, k)
    # the interior functional row spaces nest accordingly on the common space
    from femforge.integrate import pair_simplex

    members = bdm.space.members()
    rows_bdm = Matrix([[pair_simplex(tri, q, m) for m in members] for q in nd.members()])
    rows_rt = Matrix([[pair_simplex(tri, q, m) for m in members] for q in pk1.members()])
    assert subspace_contains(rows_rt.transpose(), rows_bdm.transpose())
    assert rows_rt.rank() - rows_bdm.rank() == spaces.dim_H(2, k)


@pytest.mark.parametrize(
    "family,k",
    [("BDM", 2), ("RT", 1), ("HdivS", 3), ("HdivS_split", 3), ("HdivS_minus", 2),
     ("DivDivPlus", 3), ("DivDivPlusMinus", 3), ("DivDiv", 3), ("DivDivMinus", 3)],
)
def test_trace_block_kernels(tri, family, k):
    e = build_element(tri, family, k)
    res = trace_block_rank(e)
    assert res.passed, res.as_dict()


def test_trace_block_kernel_is_bubble_bdm(tri):
    e = build_element(tri, "BDM", 3)
    res = trace_block_rank(e)
    assert res.passed
    assert res.context["bubble_dim"] == spaces.dim_bubble_vector(2, 3)
    assert res.context["kernel_dim"] == res.context["bubble_dim"]


def test_divdiv_image_enrichment(tri):
    k = 3
    plus = build_element(tri, "DivDivPlus", k)
    minus = build_element(tri, "DivDivPlusMinus", k)
    img_plus = spaces.image_space("divdiv", plus.space)
    img_minus = spaces.image_space("divdiv", minus.space)
    assert spaces.space_equal(img_plus, spaces.build_standard(tri, "P_scalar", k - 2))
    assert spaces.space_equal(img_minus, spaces.build_standard(tri, "P_scalar", k - 1))


def test_divdiv_tn_moments_are_interior(tri):
    e = build_element(tri, "DivDiv", 3)
    tn = [dof for dof in e.dofs if dof.kind == "face_moment_tn"]
    assert tn and all(not dof.shared for dof in tn)
    plus = build_element(tri, "DivDivPlus", 3)
    tn_plus = [dof for dof in plus.dofs if dof.kind == "face_moment_tn"]
    assert tn_plus and all(dof.shared for dof in tn_plus)


def test_dof_ordering_deterministic(tri):
    a = build_element(tri, "HdivS", 2)
    b = build_element(tri, "HdivS", 2)
    assert [d.label for d in a.dofs] == [d.label for d in b.dofs]
    kinds = [d.kind for d in a.dofs]
    first_vertex = max(i for i, kk in enumerate(kinds) if kk == "vertex_eval")
    first_interior = min(i for i, kk in enumerate(kinds) if kk.startswith("interior"))
    assert first_vertex < first_interior


def test_element_export_json(tri):
    e = build_element(tri, "RT", 0)
    data = element_to_json(e)
    assert data["family"] == "RT" and data["dim"] == 3
    assert len(data["nodal_basis"]) == 3
    assert data["vertices"][1] == ["1/1", "0/1"]
    import json

    s1 = json.dumps(data, sort_keys=True)
    s2 = json.dumps(element_to_json(build_element(tri, "RT", 0)), sort_keys=True)
    assert s1 == s2


def test_export_carries_certification(tri):
    from femforge.elements import element_to_json

    data = element_to_json(build_element(tri, "BDM", 1))
    ids = {c["id"] for c in data["certification"]}
    assert ids == {"unisolvence", "trace-block"}
    assert all(c["status"] == "pass" for c in data["certification"])


def test_nodal_basis_requires_unisolvence(tri):
    from femforge.exact import SingularMatrixError

    e = build_element(tri, "HdivS", 2)
    crippled = Element(e.family, e.frame, e.k, e.dofs[:-1])  # the last DoF dropped
    assert crippled.dof_matrix.rows == e.dim - 1
    with pytest.raises(SingularMatrixError):
        nodal_basis(crippled)


def test_unisolvence_failure_reports_kernel_witness(tri):
    e = build_element(tri, "HdivS", 2)
    interior = [i for i, dof in enumerate(e.dofs) if not dof.shared]
    dofs = list(e.dofs)
    dofs[interior[-1]] = dofs[interior[0]]  # duplicate one functional
    broken = Element(e.family, e.frame, e.k, dofs)
    res = check_unisolvence(broken)
    assert not res.passed
    assert res.got == e.dim - 1
    # the whole record, witness included, pinned: no golden report reaches
    # this fallback (rank and null space of the DoF matrix)
    record = json.dumps(res.as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(record).hexdigest() == "8cf5aa9d4285060c057e3c2014c4d6d47e852470ce5fbd2150775e597f859fa9"
    witness = res.context["kernel_witness"]
    tau = poly.poly_from_json(witness)
    # the witness is a genuine nonzero shape function annihilated by all DoFs
    assert not tau.is_zero()
    from femforge.elements import apply_dof

    surviving = [dof for idx, dof in enumerate(e.dofs) if idx != interior[-1]]
    assert all(apply_dof(tri, dof, tau) == 0 for dof in surviving)


def test_unisolvence_witness_of_a_direct_sum_is_pinned(tri):
    # HdivS_minus k=2, one interior DoF duplicated: the kernel vector reaches
    # the enrichment's columns past the leading identity block, so the
    # witness is mapped through both blocks of the catalog basis
    e = build_element(tri, "HdivS_minus", 2)
    interior = [i for i, dof in enumerate(e.dofs) if not dof.shared]
    broken = _with_dofs(e, {interior[-1]: e.dofs[interior[0]]})
    res = check_unisolvence(broken)
    assert not res.passed and res.got == e.dim - 1
    n = len(poly.frame("sym", 2, 2))
    assert not broken.dof_matrix.null_space().take(range(n, e.dim)).is_zero()
    record = json.dumps(res.as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(record).hexdigest() == "bd32b65afd7b7d59c36d5c982493e778ca8e588ecbcd71634bc9841c492ceae6"
    assert res.as_dict() == reference_check_unisolvence(broken).as_dict()


def test_unisolvence_fallback_eliminates_the_dof_matrix_once(tri, monkeypatch):
    # rank and kernel of a singular DoF matrix come from one RREF
    from femforge import exact

    e = build_element(tri, "HdivS", 2)
    interior = [i for i, dof in enumerate(e.dofs) if not dof.shared]
    dofs = list(e.dofs)
    dofs[interior[-1]] = dofs[interior[0]]
    broken = Element(e.family, e.frame, e.k, dofs)
    shapes = []
    echelon = exact._int_echelon

    def recording(rows, cols):
        shapes.append((len(rows), cols))
        return echelon(rows, cols)

    monkeypatch.setattr(exact, "_int_echelon", recording)
    assert not check_unisolvence(broken).passed
    assert shapes.count((e.dim, e.dim)) == 1


# -- differential tests against the polynomial DoF evaluator --------------------
#
# The reference below evaluates each DoF one polynomial at a time: restrict
# the trace to the face chart, multiply by the test function and integrate
# (face moments), pair over the simplex (interior moments) or evaluate
# (vertex values).  The library assembles the same functionals as rows of
# trace, mass and Gram matrix products; the two must agree exactly.

from femforge import elements as el  # noqa: E402
from femforge.integrate import integrate_face, pair_simplex  # noqa: E402
from femforge.simplex import surface_div  # noqa: E402


def _ref_normal_product(face, tau, ga, gb):
    d = tau.d
    acc = Polynomial.zero(d)
    for i in range(d):
        if not ga[i]:
            continue
        row = Polynomial.zero(d)
        for j in range(d):
            if gb[j]:
                row = row + tau.entry(i, j).scale(gb[j])
        acc = acc + row.scale(ga[i])
    return face.restrict(acc)


def _ref_tau_g(face, tau):
    g = face.normal_frame[0]
    comps = []
    for i in range(tau.d):
        acc = Polynomial.zero(tau.d)
        for j in range(tau.d):
            if g[j]:
                acc = acc + tau.entry(i, j).scale(g[j])
        comps.append(acc)
    return Polynomial.vector_from(comps)


def _ref_vec_dot_g(v, g):
    acc = Polynomial.zero(v.d)
    for t in range(v.vdim):
        if g[t]:
            acc = acc + v.component(t).scale(g[t])
    return acc


def _ref_divergence(tau):
    return div_rowwise(tau) if tau.kind in ("sym", "skw", "matrix") else div(tau)


def _ref_normal_div(face, tau):
    return face.restrict(_ref_vec_dot_g(_ref_divergence(tau), face.normal_frame[0]))


def _ref_face_trace(dof, tau):
    kind = dof.kind
    face = dof.face
    if kind == el.FACE_SCALAR_NORMAL:
        return face.restrict(_ref_vec_dot_g(tau, face.normal_frame[0]))
    if kind == el.FACE_NN:
        a, b = dof.comp
        return _ref_normal_product(face, tau, face.normal_frame[a], face.normal_frame[b])
    if kind == el.FACE_TN:
        taug = _ref_tau_g(face, tau)
        restricted = [face.restrict(taug.component(t)) for t in range(tau.d)]
        comps = []
        for m in range(face.dim):
            acc = Polynomial.zero(face.dim)
            for t in range(tau.d):
                if face.tangents[m][t]:
                    acc = acc + restricted[t].scale(face.tangents[m][t])
            comps.append(acc)
        return Polynomial.from_components(face.dim, "vector", comps)
    if kind == el.FACE_NORMAL_DIV:
        return _ref_normal_div(face, tau)
    if kind == el.FACE_DIVDIV_COMBO:
        return _ref_normal_div(face, tau) + surface_div(face, _ref_tau_g(face, tau))
    raise ValueError(kind)


def reference_apply_dof(frame, dof, tau, memo=None):
    """One DoF on one polynomial, by polynomial products and integrals;
    ``memo`` keeps the traces of one tau across DoFs."""
    memo = {} if memo is None else memo
    kind = dof.kind
    if kind == el.VERTEX_EVAL:
        i, j = dof.comp
        return tau.evaluate(frame.vertices[dof.vertex])[i][j]
    if kind == el.INTERIOR_PAIR:
        return pair_simplex(frame, tau, dof.test)
    if kind in (el.INTERIOR_DIV, el.INTERIOR_DIVDIV):
        w = memo.get("div")
        if w is None:
            w = memo["div"] = _ref_divergence(tau)
        return pair_simplex(frame, w if kind == el.INTERIOR_DIV else div(w), dof.test)
    key = (kind, id(dof.face), dof.comp)
    s = memo.get(key)
    if s is None:
        s = memo[key] = _ref_face_trace(dof, tau)
    return integrate_face(dof.face, poly.dot(s, dof.test))


def reference_dof_matrix(element):
    members = element.space.members()
    memos = [{} for _ in members]
    return Matrix(
        [[reference_apply_dof(element.frame, dof, m, memo) for m, memo in zip(members, memos)]
         for dof in element.dofs],
        len(members),
    )


def _random_shape_poly(rng, d, kind, k):
    terms = {}
    for c in range(poly.ncomp(kind, d)):
        for exps in poly.monomials(d, k):
            if rng.random() < 0.6:
                terms[(c, exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(d, kind, terms)


_D2_CELLS = [(fam, k) for fam, spec in FAMILIES.items() for k in range(spec.floor(2), 5)]


@pytest.mark.parametrize("family,k", _D2_CELLS)
@pytest.mark.parametrize("where", ["reference", "random"])
def test_dof_matrix_matches_polynomial_reference_d2(family, k, where):
    fr = reference_simplex(2) if where == "reference" else random_frame(2, random.Random(31))
    e = build_element(fr, family, k)
    assert e.dof_matrix == reference_dof_matrix(e)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("step", [0, 1])
def test_dof_matrix_matches_polynomial_reference_d3(family, step):
    fr = random_frame(3, random.Random(5))
    e = build_element(fr, family, FAMILIES[family].floor(3) + step)
    assert e.dof_matrix == reference_dof_matrix(e)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("d", [2, 3])
def test_apply_dof_on_random_polynomials_matches_reference(family, d):
    rng = random.Random(len(family) + 10 * d)
    fr = random_frame(d, rng)
    e = build_element(fr, family, FAMILIES[family].floor(d))
    for _ in range(2):
        # any degree up to the frame's, so uncached rows are built per call
        tau = _random_shape_poly(rng, d, e.space.kind, rng.randint(0, e.space.k))
        for dof in e.dofs:
            assert apply_dof(fr, dof, tau) == reference_apply_dof(fr, dof, tau)


def test_apply_dof_takes_a_row_over_any_frame_that_covers_tau(tri):
    # a row over the degree-3 frame serves every tau of degree 0..3, whose
    # frames are its prefixes; without a row, the row is built over tau's frame
    e = build_element(tri, "HdivS", 2)
    dofs = [dof for dof in e.dofs if dof.kind == el.FACE_NN]
    rows = el._dof_matrix(tri, dofs, "sym", 3)
    rng = random.Random(2)
    for deg in range(4):
        tau = _random_shape_poly(rng, 2, "sym", deg)
        assert tau.degree() == deg
        for i, dof in enumerate(dofs):
            want = reference_apply_dof(tri, dof, tau)
            assert apply_dof(tri, dof, tau, rows.int_row(i)) == apply_dof(tri, dof, tau) == want


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_apply_dof_raises_on_a_field_of_another_shape(family):
    # each DoF applies to one field shape: vector for normal moments, the
    # test's own for pair moments, vector or sym for div moments against
    # scalar or vector tests, sym for every other kind
    fr = reference_simplex(2)
    e = build_element(fr, family, 4)
    rng = random.Random(len(family))
    seen = {}
    for dof in e.dofs:
        seen.setdefault((dof.kind, dof.test.kind if dof.test else None), dof)
    for (kind, test), dof in seen.items():
        want = {el.FACE_SCALAR_NORMAL: "vector", el.INTERIOR_PAIR: test,
                el.INTERIOR_DIV: {"scalar": "vector", "vector": "sym"}.get(test)}.get(kind, "sym")
        assert want == e.space.kind
        for shape in ("scalar", "vector", "sym"):
            tau = _random_shape_poly(rng, 2, shape, 2)
            if shape == want:
                assert apply_dof(fr, dof, tau) == reference_apply_dof(fr, dof, tau)
            else:
                with pytest.raises(poly.ShapeMismatchError):
                    apply_dof(fr, dof, tau)


def test_apply_dof_shape_check_covers_every_dof_kind():
    # the DoFs of the shape-check test above, at d=2 k=4
    kinds = {dof.kind for spec in FAMILIES.values() for dof in spec.dofs(reference_simplex(2), 4)}
    assert kinds == {el.VERTEX_EVAL, el.FACE_SCALAR_NORMAL, el.FACE_NN, el.FACE_TN, el.FACE_NORMAL_DIV,
                     el.FACE_DIVDIV_COMBO, el.INTERIOR_PAIR, el.INTERIOR_DIV, el.INTERIOR_DIVDIV}


@pytest.mark.parametrize(
    "d,k,expected", [(2, 2, 9), (2, 3, 17), (2, 4, 28), (3, 2, 24)]
)
def test_hdivs_minus_shared_kernel_is_bubble_plus_enrichment(d, k, expected):
    fr = reference_simplex(d)
    res = trace_block_rank(build_element(fr, "HdivS_minus", k))
    assert res.passed, res.as_dict()
    assert expected == spaces.dim_bubble_sym(d, k) + d * spaces.dim_H(d, k)
    assert res.context["kernel_dim"] == res.context["bubble_dim"] == res.expected == expected


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("step", [0, 1])
def test_dof_matrix_product_equals_per_member_dofs(family, step):
    # the DoF rows times the shape basis reproduce the per-(DoF, member) matrix
    fr = random_frame(2, random.Random(31 + step))
    k = FAMILIES[family].floor(2) + step
    e = build_element(fr, family, k)
    rows = el._dof_matrix(fr, e.dofs, e.space.kind, e.space.k)
    assert rows.rows == len(e.dofs)
    assert rows.matmul(e.space.basis) == e.dof_matrix


# -- face DoF rows from scalar tables -------------------------------------------------
#
# _run_rows multiplies the test moments of a run by each scalar restriction
# table of the face and scatters the products by the trace weights; the
# product with the stacked full-width traces (reference.face_dof_rows) is the
# oracle.


def _face_dof_runs(frame, kind, k):
    if kind == "vector":
        dofs = el._normal_faces(frame, k)
    else:
        dofs = (el._nn_dofs(frame, k) + el._facet_dofs(frame, el.FACE_TN, k - 2, True, "tn", el._chart_nd_twisted)
                + el._facet_dofs(frame, el.FACE_NORMAL_DIV, k - 1, True, "ndiv")
                + el._facet_dofs(frame, el.FACE_DIVDIV_COMBO, k - 1, True, "combo"))
    return [list(run) for _, run in groupby(dofs, key=el._run_key)]


@pytest.mark.parametrize("kind,d,k", [("vector", d, k) for d in (2, 3, 4) for k in range(5)]
                         + [("sym", d, k) for d in (2, 3, 4) for k in range(1, 5)])
def test_face_dof_rows_match_the_full_trace_product(kind, d, k):
    seen = set()
    for frame in (reference_simplex(d), random_frame(d, random.Random(60 + d))):
        for run in _face_dof_runs(frame, kind, k):
            seen.add(run[0].kind)
            for bernstein in (False, True):
                assert el._run_rows(frame, run, kind, k, bernstein) == reference.face_dof_rows(run, kind, k, bernstein)
    if kind == "vector":
        assert seen == {FACE_SCALAR_NORMAL}
    else:
        # every sym face DoF kind once its test degree is reached
        assert seen >= {el.FACE_NORMAL_DIV, el.FACE_DIVDIV_COMBO}
        assert (el.FACE_TN in seen) == (k >= 2) and (el.FACE_NN in seen) == (k >= 2)


def test_build_element_clears_each_dof_row_without_the_checking_constructor(monkeypatch):
    # the DoF matrix is assembled from integer rows, each cleared as soon as
    # its values are applied, with no grid of Fractions for Matrix(...) to clear
    callers = []
    init = Matrix.__init__

    def spy(self, *args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", spy)
    e = build_element(reference_simplex(3), "DivDiv", 3)
    monkeypatch.undo()
    assert "femforge.elements" not in callers
    assert e.dof_matrix.rows == len(e.dofs) == e.dim == 120


# -- the split certificates against direct references ----------------------------
#
# The library eliminates the shared DoF rows S once per element and certifies
# both unisolvence ([S; I] is invertible iff S has full row rank and I K is
# nonsingular, K a basis of ker S) and the trace block (the traces of K vanish
# and K spans the bubble generators) from that one kernel.  The references
# are the direct routes: the exact rank of the whole DoF matrix with its
# kernel witness, and a fresh kernel of S, mapped through the shape basis and
# compared with the bubble computed as a trace kernel.


def reference_check_unisolvence(element):
    n_dofs = len(element.dofs)
    dim = element.space.dim
    ctx = {"family": element.family, "d": element.frame.d, "k": element.k, "dim": dim, "dofs": n_dofs}
    if n_dofs != dim:
        return CheckResult("unisolvence", False, expected=dim, got=n_dofs, context=ctx)
    r = element.dof_matrix.rank()
    if r == dim:
        return CheckResult("unisolvence", True, expected=dim, got=r, context=ctx)
    coeffs = element.space.basis.matmul(element.dof_matrix.null_space())
    witness = poly.from_coeff_vector(element.frame.d, element.space.kind, element.space.k, coeffs.column(0))
    ctx["kernel_witness"] = poly.poly_to_json(witness)
    return CheckResult("unisolvence", False, expected=dim, got=r, context=ctx)


_TRACE_KERNEL_BUBBLES = {"BDM": "div_vector", "RT": "div_RT_minus", "HdivS": "div_sym",
                         "HdivS_split": "div_sym", "HdivS_minus": "div_sym"}


def reference_trace_block_rank(element):
    m, frame, space = element.dof_matrix, element.frame, element.space
    shared = [i for i, dof in enumerate(element.dofs) if dof.shared]
    ker = Matrix([m.row(i) for i in shared], m.cols).null_space()
    ctx = {"family": element.family, "d": frame.d, "k": element.k, "shared_dofs": len(shared),
           "kernel_dim": ker.cols}
    coeffs = space.basis.matmul(ker)
    # the first declared mode in which some member of ker S has a nonzero trace
    mode = next((mode for mode in FAMILIES[element.family].trace_modes for face in frame.faces(1)
                 if not all(t.matmul(coeffs).is_zero() for t in face.traces(space.kind, space.k, mode)[1])),
                None)
    if mode is not None:
        ctx["nonzero_trace_mode"] = mode
        return CheckResult("trace-block", False, expected="zero trace", got=mode, context=ctx)
    fam = _TRACE_KERNEL_BUBBLES.get(element.family)
    if fam is None:
        return CheckResult("trace-block", True, expected=None, got=ker.cols, context=ctx)
    bubble = spaces.bubble_space(frame, fam, element.k)
    if element.family == "HdivS_minus":
        bubble = spaces.space_sum(bubble, spaces.bubble_enrichment_sym(frame, element.k))
    ctx["bubble_dim"] = bubble.dim
    kernel = spaces.PolySpace(frame, space.kind, space.k, exact.image_basis(coeffs))
    if not spaces.space_equal(kernel, bubble):
        return CheckResult("trace-block", False, expected="kernel == bubble", got=ker.cols, context=ctx)
    return CheckResult("trace-block", True, expected=bubble.dim, got=ker.cols, context=ctx)


def _with_dofs(e, edits):
    """``e`` rebuilt with the DoF at each index of ``edits`` replaced by the
    DoF it maps to."""
    return Element(e.family, e.frame, e.k, [edits.get(i, dof) for i, dof in enumerate(e.dofs)])


_SPLIT_CELLS = [(fam, 2, FAMILIES[fam].floor(2) + step, where)
                for fam in sorted(FAMILIES) for step in (0, 1) for where in ("reference", "random")]
_SPLIT_CELLS += [(fam, 3, FAMILIES[fam].floor(3), "random") for fam in sorted(FAMILIES)]


@pytest.mark.parametrize("family,d,k,where", _SPLIT_CELLS)
def test_split_certificates_match_direct_references(family, d, k, where):
    fr = reference_simplex(d) if where == "reference" else random_frame(d, random.Random(41 + d))
    e = build_element(fr, family, k)
    uni, block = check_unisolvence(e), trace_block_rank(e)
    assert uni.passed and block.passed
    assert uni.as_dict() == reference_check_unisolvence(e).as_dict()
    assert block.as_dict() == reference_trace_block_rank(e).as_dict()
    # a unisolvent element passes whatever the interior block, so check that
    # block too: the interior DoFs' Bernstein rows are the DoF rows times G_s
    interior = [i for i, dof in enumerate(e.dofs) if not dof.shared]
    g = reference.change_of_basis(e.space, k)
    rows = el._rows_times_g_s(fr, [e.dofs[i] for i in interior], e.space, k)
    assert rows == e.dof_matrix.take(interior).matmul(g)


def test_a_repeated_dof_keeps_its_row_of_the_dof_matrix(tri):
    # the last interior DoF replaced by the first: the one descriptor fills two rows
    e = build_element(tri, "HdivS", 2)
    interior = [i for i, dof in enumerate(e.dofs) if not dof.shared]
    broken = _with_dofs(e, {interior[-1]: e.dofs[interior[0]]})
    assert broken.dof_matrix.rows == len(broken.dofs) == 18
    assert broken.dof_matrix == reference_dof_matrix(broken)
    assert check_unisolvence(broken).as_dict() == reference_check_unisolvence(broken).as_dict()


def test_repr_eq_and_replace_apply_no_dof(monkeypatch, tri):
    # the DoF matrix is not a field: printing, comparing and copying an
    # element leave it unread, and a copy certifies from its own DoFs
    applied = []
    apply = el.apply_dof
    monkeypatch.setattr(el, "apply_dof", lambda *args: applied.append(args) or apply(*args))
    e, f = build_element(tri, "HdivS", 2), build_element(tri, "HdivS", 2)
    assert "dof_matrix" not in repr(e) and e == f
    assert not applied and "dof_matrix" not in vars(e)
    m = e.dof_matrix
    applied.clear()
    twin = dataclasses.replace(e)
    assert "dof_matrix" not in vars(twin) and twin == e and repr(twin) == repr(e)
    assert check_unisolvence(twin).passed and "_split" in vars(twin)
    assert not applied and twin.dof_matrix == m


@pytest.mark.parametrize("family,k", [("BDM", 2), ("HdivS", 2), ("DivDiv", 3)])
def test_unisolvence_falls_back_when_the_shared_block_loses_rank(tri, family, k):
    # the last shared DoF replaced by the first
    e = build_element(tri, family, k)
    shared = [i for i, dof in enumerate(e.dofs) if dof.shared]
    broken = _with_dofs(e, {shared[-1]: e.dofs[shared[0]]})
    res = check_unisolvence(broken)
    _, rank_s, _, _ = broken._split
    assert rank_s == len(shared) - 1
    assert not res.passed and res.got == e.dim - 1 and "kernel_witness" in res.context
    assert res.as_dict() == reference_check_unisolvence(broken).as_dict()


@pytest.mark.parametrize("family,k", [("BDM", 2), ("HdivS", 2), ("DivDiv", 3)])
def test_unisolvence_falls_back_when_the_interior_block_is_singular(tri, family, k):
    # S keeps full row rank; the first interior DoF, overwritten by the first
    # shared DoF demoted to interior, vanishes on ker S
    e = build_element(tri, family, k)
    shared = [i for i, dof in enumerate(e.dofs) if dof.shared]
    interior = [i for i, dof in enumerate(e.dofs) if not dof.shared]
    demoted = dataclasses.replace(e.dofs[shared[0]], shared=False)
    broken = _with_dofs(e, {interior[0]: demoted})
    res = check_unisolvence(broken)
    _, rank_s, _, _ = broken._split
    assert rank_s == len(shared)
    assert not res.passed and res.got == e.dim - 1 and "kernel_witness" in res.context
    assert res.as_dict() == reference_check_unisolvence(broken).as_dict()


@pytest.mark.parametrize("family,k", [("BDM", 2), ("HdivS", 2), ("DivDiv", 3)])
def test_interior_block_is_taken_on_ker_s_in_member_coordinates(family, k):
    # an interior DoF overwritten by a shared DoF demoted to interior vanishes
    # on ker S = G_s K; on a random simplex it does not vanish on the
    # Bernstein coordinates K alone, so only I G_s K shows the singular
    # interior block
    e = build_element(random_frame(2, random.Random(43)), family, k)
    shared = [i for i, dof in enumerate(e.dofs) if dof.shared]
    interior = [i for i, dof in enumerate(e.dofs) if not dof.shared]
    demoted = dataclasses.replace(e.dofs[shared[-1]], shared=False)
    broken = _with_dofs(e, {interior[0]: demoted})
    res = check_unisolvence(broken)
    assert not res.passed and res.got == e.dim - 1
    assert res.as_dict() == reference_check_unisolvence(broken).as_dict()


@pytest.mark.parametrize("family,k", [("BDM", 3), ("HdivS", 3), ("RT", 1)])
def test_trace_block_fails_when_the_kernel_is_a_proper_subspace_of_the_bubble(family, k):
    # one interior DoF declared shared: ker S loses a bubble, its traces stay zero
    fr = random_frame(2, random.Random(47))
    e = build_element(fr, family, k)
    dofs = list(e.dofs)
    i = next(i for i, dof in enumerate(dofs) if not dof.shared)
    dofs[i] = dataclasses.replace(dofs[i], shared=True)
    broken = Element(e.family, e.frame, e.k, dofs)
    res = trace_block_rank(broken)
    assert not res.passed and res.expected == "kernel == bubble"
    assert res.got == res.context["kernel_dim"] == res.context["bubble_dim"] - 1
    assert "nonzero_trace_mode" not in res.context
    assert res.as_dict() == reference_trace_block_rank(broken).as_dict()
    assert check_unisolvence(broken).passed


# Two shared DoFs declared interior on random_frame(2, Random(47)), k=3: ker S
# then holds functions with nonzero declared traces.  The record names the
# first declared mode with a nonzero trace on ker S, a property of the space:
# the first kernel column with a nonzero trace would name a mode that depends
# on the kernel basis (for the first and third pair the monomial and the
# Bernstein kernels give different first columns).
@pytest.mark.parametrize("family,demoted,mode", [
    ("DivDiv", ("vertex2:entry01", "combo:f(0, 1):q0"), "normal_normal"),
    ("DivDiv", ("combo:f(0, 1):q0", "combo:f(1, 2):q1"), "combo"),
    ("DivDivPlus", ("nn:f(0, 2):g00:q0", "ndiv:f(0, 1):q2"), "tensor_normal"),
    ("DivDivPlus", ("ndiv:f(0, 1):q2", "ndiv:f(1, 2):q0"), "normal_div"),
])
def test_trace_block_fail_record_does_not_depend_on_the_kernel_basis(family, demoted, mode):
    e = build_element(random_frame(2, random.Random(47)), family, 3)
    dofs = [dataclasses.replace(dof, shared=False) if dof.label in demoted else dof for dof in e.dofs]
    assert sum(a.shared != b.shared for a, b in zip(dofs, e.dofs)) == 2
    broken = Element(e.family, e.frame, e.k, dofs)
    res = trace_block_rank(broken)
    assert (res.passed, res.got, res.context["nonzero_trace_mode"]) == (False, mode, mode)
    assert res.as_dict() == reference_trace_block_rank(broken).as_dict()


# (how, family, k, degree of the wrong generators); HdivS_minus also takes
# the verdict at degree k + 1, where its enrichment W = G C_B coords lives
_WRONG_BUBBLES = [pytest.param(how, family, 2, 2, id=f"{how}-{family}-2")
                  for how in ("drop", "swap") for family in ("HdivS", "HdivS_minus")]
_WRONG_BUBBLES.append(pytest.param("swap", "HdivS_minus", 2, 3, id="swap-HdivS_minus-2-degree3"))


@pytest.mark.parametrize("how,family,k,deg", _WRONG_BUBBLES)
def test_trace_block_fails_when_the_expected_bubble_is_wrong(monkeypatch, how, family, k, deg):
    # the generators of degree deg lose one column (rank below dim ker S), or
    # one column becomes a unit vector that some shared DoF does not
    # annihilate (S C != 0): a generator column C_B over the Bernstein rows
    # of S, in place before the split memo takes its verdict S_B C_B == 0
    fr = random_frame(2, random.Random(43))
    e = build_element(fr, family, k)
    shared = e._split[0]
    bernstein_rows = el._dof_matrix(e.frame, [e.dofs[i] for i in shared], e.space.kind, deg, True)

    def wrong(part, s):
        j = next(j for j in range(part.rows) if any(s.column(j)))
        cols = part.columns()
        if how == "drop":
            cols = cols[1:]
        else:
            cols[0] = tuple(int(i == j) for i in range(part.rows))
        return Matrix.from_columns(cols, part.rows)

    gens = el._bubble_generators
    monkeypatch.setattr(el, "_bubble_generators",
                        lambda element, j: wrong(gens(element, j), bernstein_rows) if j == deg else gens(element, j))
    res = trace_block_rank(build_element(fr, family, k))
    dim = res.context["kernel_dim"]
    assert (res.passed, res.expected, res.got) == (False, "kernel == bubble", dim)
    assert res.context["bubble_dim"] == (dim - 1 if how == "drop" else dim)
    assert "nonzero_trace_mode" not in res.context
    monkeypatch.undo()
    assert trace_block_rank(build_element(fr, family, k)).passed


@pytest.mark.parametrize("family", ["HdivS_minus", "RT"])
@pytest.mark.parametrize("where", ["reference", "random"])
def test_trace_block_matches_the_reference_at_d4(family, where):
    from femforge.conformity import conformity_check, reflected_patch

    fr = reference_simplex(4) if where == "reference" else random_frame(4, random.Random(53))
    e = build_element(fr, family, 2)
    assert check_unisolvence(e).passed
    block = trace_block_rank(e)
    assert block.passed and block.as_dict() == reference_trace_block_rank(e).as_dict()
    assert conformity_check(reflected_patch(fr), family, 2).passed


# -- the shared block in Bernstein coordinates ------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bernstein_change_of_basis_follows_the_leading_identity_block(d):
    # every family's catalog basis of degree parameter k is diag(I_n, H), n
    # the size of the frame (kind, d, k): the first n rows are [I_n | 0] and
    # the rows past n are zero in the first n columns, held as lead n and
    # tail H.  The certificates, and the bubble of HdivS_minus written
    # against diag(I_n, W_top), rest on it, with G_s = diag(G(kind, k), I)
    for frame in (reference_simplex(d), random_frame(d, random.Random(71))):
        for spec in FAMILIES.values():
            for k in (spec.floor(d), spec.floor(d) + 1):
                space = spaces.build_standard(frame, spec.shape, k)
                basis, n = space.basis, len(poly.frame(space.kind, d, k))
                rest = basis.cols - n
                assert rest >= 0 and (rest > 0) == (spec.shape in ("RT_shape", "P_minus_sym", "P_sym_plus_xxT"))
                assert basis.take(range(n)) == Matrix.identity(n).hstack(Matrix.zeros(n, rest))
                assert basis.take(range(n, basis.rows), 0, n).is_zero()
                assert (space.lead, space.tail.cols) == (n, rest)


_DIRECT_SUMS = ("ND", "RM", "RT_shape", "P_minus_sym", "P_sym_plus_xxT")


def _random_matrix(rng, rows, cols):
    return Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)], cols)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("where", ["reference", "random"])
def test_catalog_spaces_store_no_identity(d, where):
    # after every family's build, certificates and patch check, no space in
    # either frame's memo holds an identity: the P_k tags are lead n with an
    # empty tail, the direct sums lead n = dim P_k, the rest lead 0; and the
    # block products are the products with the materialized basis.  The
    # divdiv families start at k=4 on a 4-simplex, about 20 s on a random
    # one, so there they run on the reference simplex alone
    from femforge.conformity import conformity_check, reflected_patch

    fr = reference_simplex(d) if where == "reference" else random_frame(d, random.Random(59 + d))
    patch = reflected_patch(fr)
    for family, spec in FAMILIES.items():
        if d == 4 and where == "random" and spec.floor(d) > 2:
            continue
        e = build_element(fr, family, spec.floor(d))
        assert check_unisolvence(e).passed and trace_block_rank(e).passed
        assert conformity_check(patch, family, e.k).passed
        for frame in (patch.left, patch.right):
            for (tag, *rest), space in frame._space_cache.items():
                n = len(poly.frame(space.kind, d, rest[-1]))
                if tag in spaces._P_TAGS:
                    assert (space.lead, space.tail.rows, space.tail.cols) == (n, 0, 0)
                else:
                    assert space.lead == (n if tag in _DIRECT_SUMS else 0), tag
    rng = random.Random(61)
    for space in fr._space_cache.values():
        if space.dim <= 60:
            m, t = _random_matrix(rng, space.dim, 2), _random_matrix(rng, 2, space.basis.rows)
            assert space.times(m) == space.basis.matmul(m)
            assert space.applied(t) == t.matmul(space.basis)


_KERNEL_CELLS = [(fam, 2, FAMILIES[fam].floor(2) + step) for fam in sorted(FAMILIES) for step in (0, 1)]
_KERNEL_CELLS += [(fam, 3, FAMILIES[fam].floor(3)) for fam in sorted(FAMILIES)]


@pytest.mark.parametrize("family,d,k", _KERNEL_CELLS)
def test_shared_split_kernel_equals_the_monomial_kernel(family, d, k):
    e = build_element(random_frame(d, random.Random(45 + d)), family, k)
    shared, rank_s, ker, _ = e._split
    g = reference.change_of_basis(e.space, k)
    monomial = e.dof_matrix.take(shared).null_space()
    assert rank_s == e.dim - monomial.cols == e.dim - ker.cols
    assert exact.image_basis(g.matmul(ker)) == exact.image_basis(monomial)


@pytest.mark.parametrize("family,k", [("BDM", 2), ("HdivS_minus", 2), ("DivDiv", 3)])
def test_certificates_do_not_depend_on_their_order(family, k):
    fr = random_frame(2, random.Random(43))
    a, b = build_element(fr, family, k), build_element(fr, family, k)
    uni_first = (check_unisolvence(a).as_dict(), trace_block_rank(a).as_dict())
    block = trace_block_rank(b).as_dict()
    assert uni_first == (check_unisolvence(b).as_dict(), block)


def test_shared_split_memo_belongs_to_one_dof_matrix(tri):
    e = build_element(tri, "HdivS", 2)
    assert check_unisolvence(e).passed and trace_block_rank(e).passed
    memo = e._split
    # the first read assembles the DoF matrix and keeps the memo, so nothing
    # is eliminated twice
    assert e.dof_matrix.rows == len(e.dofs)
    assert e._split is memo
    assert check_unisolvence(e).passed and trace_block_rank(e).passed and e._split is memo
    interior = [i for i, dof in enumerate(e.dofs) if not dof.shared]
    # the pair of test_unisolvence_failure_reports_kernel_witness: a new
    # Element over the same frame and space, one interior DoF copied over
    # another, starts without a memo or a matrix, and is eliminated in
    # Bernstein coordinates like any element
    broken = _with_dofs(e, {interior[-1]: e.dofs[interior[0]]})
    assert "_split" not in vars(broken) and "dof_matrix" not in vars(broken)
    assert not check_unisolvence(broken).passed
    assert "_split" in vars(broken) and e._split is memo
    # the memo is neither compared nor printed, and a copy starts afresh
    twin = dataclasses.replace(e)
    assert "_split" not in vars(twin) and twin == e and repr(twin) == repr(e)
    # the element is frozen and its DoFs are a tuple (also when built over a
    # list), so no edit can leave the memo or the matrix stale
    with pytest.raises(TypeError):
        e.dofs[interior[0]] = dataclasses.replace(e.dofs[interior[0]], shared=True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.dofs = broken.dofs
    assert e._split is memo and isinstance(broken.dofs, tuple)


def test_a_dof_cannot_be_edited_in_place(tri):
    # a DoF is frozen like its element: an interior DoF set shared in place
    # would leave the split memo of a certified element stale (15 shared
    # DoFs and a kernel of dimension 3, where the same DoFs certified afresh
    # give 16 and 2); the edit goes through a new DoF and a new element
    e = build_element(tri, "HdivS", 2)
    certified = trace_block_rank(e).as_dict()
    i = next(i for i, dof in enumerate(e.dofs) if not dof.shared)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.dofs[i].shared = True
    assert not e.dofs[i].shared and trace_block_rank(build_element(tri, "HdivS", 2)).as_dict() == certified
    res = trace_block_rank(_with_dofs(e, {i: dataclasses.replace(e.dofs[i], shared=True)}))
    assert not res.passed and (res.context["shared_dofs"], res.got, res.context["bubble_dim"]) == (16, 2, 3)


_LAZY_CELLS = [(fam, d) for fam in ("BDM", "RT", "HdivS_minus", "DivDiv", "DivDivPlusMinus") for d in (2, 3)]


@pytest.mark.parametrize("family,d", _LAZY_CELLS)
def test_dof_matrix_is_assembled_when_first_read(monkeypatch, family, d):
    # building and certifying apply no DoF; the first read applies every DoF
    # to every member, once, and the certificates do not depend on whether
    # it came before or after them
    fr = random_frame(d, random.Random(59 + d))
    k = FAMILIES[family].floor(d)
    applied = []
    apply = el.apply_dof
    monkeypatch.setattr(el, "apply_dof", lambda *args: applied.append(args) or apply(*args))
    e = build_element(fr, family, k)
    certified = (check_unisolvence(e).as_dict(), trace_block_rank(e).as_dict())
    assert certified[0]["status"] == certified[1]["status"] == "pass"
    assert not applied
    memo = e._split
    m = e.dof_matrix
    assert len(applied) == len(e.dofs) * e.dim
    assert m == el._dof_matrix(fr, e.dofs, e.space.kind, e.space.k).matmul(e.space.basis)
    assert e.dof_matrix is m and len(applied) == len(e.dofs) * e.dim and e._split is memo
    read_first = build_element(fr, family, k)
    assert read_first.dof_matrix == m
    assert (check_unisolvence(read_first).as_dict(), trace_block_rank(read_first).as_dict()) == certified


# -- the shared block assembled in Bernstein coordinates ---------------------------------
#
# The shared DoF rows against the Bernstein basis, and the traces against it,
# are built from the faces' Bernstein traces; the products with G_s are the
# oracle.


@pytest.mark.parametrize("family,d,k", _KERNEL_CELLS)
def test_bernstein_shared_rows_are_the_shared_rows_times_g_s(family, d, k):
    fr = random_frame(d, random.Random(45 + d))
    e = build_element(fr, family, k)
    shared, rank_s, ker, _ = e._split
    g = reference.change_of_basis(e.space, k)
    rows = el._dof_matrix(fr, [e.dofs[i] for i in shared], e.space.kind, k, True)
    oracle = e.dof_matrix.take(shared).matmul(g)
    assert rows.hstack(e.dof_matrix.take(shared, rows.cols)) == oracle
    assert ker == oracle.null_space() and rank_s == oracle.rank()
    # the traces against basis G_s: Bernstein on the leading block, monomial past it
    basis = e.space.basis.matmul(g)
    for face in fr.faces(1):
        for mode in FAMILIES[family].trace_modes:
            got = el._split_traces(face, e.space, k, mode)
            assert got == tuple(t.matmul(basis) for t in face.traces(e.space.kind, e.space.k, mode)[1])


_INTERIOR_CELLS = [(fam, d, FAMILIES[fam].floor(d) + step) for fam in sorted(FAMILIES)
                   for d, steps in ((2, (0, 1)), (3, (0, 1)), (4, (0,))) for step in steps]


@pytest.mark.parametrize("family,d,k", _INTERIOR_CELLS)
def test_bernstein_interior_rows_are_the_monomial_rows_times_g(family, d, k):
    # pair runs from the Dirichlet moments, div and divdiv runs from the
    # stencil table times G, tangential-normal face runs from the face tables
    fr = random_frame(d, random.Random(47 + d))
    spec = FAMILIES[family]
    kind = "vector" if spec.shape in ("P_vector", "RT_shape") else "sym"
    interior = [dof for dof in spec.dofs(fr, k) if not dof.shared]  # none for BDM and RT at the floor
    rows = el._dof_matrix(fr, interior, kind, k, True)
    assert rows == el._dof_matrix(fr, interior, kind, k).matmul(fr.bernstein(kind, k))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_unisolvence_of_a_built_element_takes_no_product_with_g(monkeypatch, family):
    # S G_s and I G_s come from the DoFs' own Bernstein rows: only the sparse
    # div and divdiv stencil tables multiply G
    fr = random_frame(2, random.Random(43))
    k = FAMILIES[family].floor(2)
    e = build_element(fr, family, k)
    kind = e.space.kind
    g_s, g = reference.change_of_basis(e.space, k), fr.bernstein(kind, k)
    tables = [poly.operator_table(op, kind, 2, k) for op in (("div",) if kind == "vector" else ("div_rowwise", "divdiv"))]
    lefts = []
    matmul = Matrix.matmul

    def spy(self, other):
        if other is g or other == g_s:  # G_s equal to the one the certificate would use
            lefts.append(self)
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "matmul", spy)
    assert check_unisolvence(e).passed
    assert all(any(left is t for t in tables) for left in lefts)


# The DoFs with monomial rows: the shared and the interior ones where the
# shape basis reaches past its Bernstein block (RT_shape, P_minus_sym; RT has
# no interior DoF at k=0).  The trace block takes the bubble generators in
# Bernstein coordinates, so BDM builds none
_MONOMIAL_ROWS = {"RT": "shared", "BDM": "none", "HdivS_minus": "all", "DivDiv": "none"}


@pytest.mark.parametrize("family,k", [("RT", 0), ("BDM", 2), ("HdivS_minus", 2), ("DivDiv", 3)])
def test_certifying_a_built_element_assembles_no_monomial_dof_rows(monkeypatch, family, k):
    # no DoF is applied member by member; the leading block of S G_s comes
    # from the Bernstein rows, and monomial rows are built, each once, only
    # for the columns past that block
    e = build_element(random_frame(2, random.Random(43)), family, k)
    applied, bernstein_rows, built = [], [], []
    run_rows, apply = el._run_rows, el.apply_dof

    def spy(frame, run, kind, k, bernstein=False):
        (bernstein_rows if bernstein else built).extend(run)
        return run_rows(frame, run, kind, k, bernstein)

    monkeypatch.setattr(el, "_run_rows", spy)
    monkeypatch.setattr(el, "apply_dof", lambda *args: applied.append(args) or apply(*args))
    assert check_unisolvence(e).passed and trace_block_rank(e).passed
    assert bernstein_rows and not applied
    want = {"none": [], "shared": [dof for dof in e.dofs if dof.shared], "all": e.dofs}[_MONOMIAL_ROWS[family]]
    assert sorted(map(id, built)) == sorted(map(id, want))


@pytest.mark.parametrize("family", ["BDM", "HdivS", "HdivS_split"])
@pytest.mark.parametrize("where", ["reference", "random"])
def test_trace_block_of_the_generator_families_takes_no_polynomial_product(monkeypatch, family, where):
    # the bubble generators are integer columns against the Bernstein block
    # of S G_s: no generator polynomial and no monomial shared row is built
    fr = reference_simplex(3) if where == "reference" else random_frame(3, random.Random(67))
    e = build_element(fr, family, 3)
    calls = []
    multiply, dof_matrix = poly.multiply, el._dof_matrix
    monkeypatch.setattr(poly, "multiply", lambda *args: calls.append("multiply") or multiply(*args))

    def spy(frame, dofs, kind, k, bernstein=False):
        if not bernstein:
            calls.append("monomial rows")
        return dof_matrix(frame, dofs, kind, k, bernstein)

    monkeypatch.setattr(el, "_dof_matrix", spy)
    res = trace_block_rank(e)
    assert res.passed and res.context["bubble_dim"] == res.got > 0
    assert calls == []
    monkeypatch.undo()
    assert res.as_dict() == reference_trace_block_rank(e).as_dict()


@pytest.mark.parametrize("family,k", [("BDM", 2), ("RT", 1), ("HdivS_minus", 2), ("DivDiv", 3)])
def test_shared_rows_not_assembled_from_their_dofs_are_eliminated_as_they_are(family, k):
    # a shared DoF with its test scaled by 2 gives a shared row that the
    # built element does not have, and keeps every certificate; the row is
    # eliminated as it is, from the scaled DoF's own Bernstein rows
    e = build_element(random_frame(2, random.Random(43)), family, k)
    i = next(i for i, dof in enumerate(e.dofs) if dof.shared and dof.test is not None)
    broken = _with_dofs(e, {i: dataclasses.replace(e.dofs[i], test=e.dofs[i].test.scale(2))})
    uni, block = check_unisolvence(broken), trace_block_rank(broken)
    assert uni.passed and block.passed
    assert broken.dof_matrix.row(i) == tuple(2 * x for x in e.dof_matrix.row(i))
    assert uni.as_dict() == reference_check_unisolvence(broken).as_dict() == check_unisolvence(e).as_dict()
    assert block.as_dict() == reference_trace_block_rank(broken).as_dict() == trace_block_rank(e).as_dict()
