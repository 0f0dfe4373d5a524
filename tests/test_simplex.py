import random
from fractions import Fraction
from math import comb

import pytest

from femforge.exact import Matrix
from femforge import poly, simplex
from femforge.poly import Polynomial, dot
from femforge.simplex import (
    DegenerateSimplexError,
    SimplexFrame,
    build_frame,
    random_frame,
    reference_simplex,
    surface_div,
)


def project_to_face(face, v):
    """Reference tangential projection (I - g g^T / (g.g)) v, g the face's
    scaled normal."""
    g = face.normal_frame[0]
    gg = sum(a * a for a in g)
    gv = sum((v.component(t).scale(g[t]) for t in range(v.d)), Polynomial.zero(v.d))
    return Polynomial.vector_from([v.component(t) - gv.scale(g[t] / gg) for t in range(v.d)])


def test_reference_triangle():
    fr = reference_simplex(2)
    x1 = Polynomial.coordinate(2, 0)
    x2 = Polynomial.coordinate(2, 1)
    assert fr.lambdas[0] == Polynomial.constant(2, 1) - x1 - x2
    assert fr.lambdas[1] == x1
    assert fr.lambdas[2] == x2
    assert fr.volume == Fraction(1, 2)


def test_reference_tet_volume():
    assert reference_simplex(3).volume == Fraction(1, 6)


def test_collinear_rejected():
    with pytest.raises(DegenerateSimplexError):
        build_frame([(0, 0), (1, 1), (2, 2)])


def test_face_counts():
    fr3 = reference_simplex(3)
    assert len(fr3.faces(1)) == 4
    assert len(fr3.faces(2)) == 6
    assert len(fr3.faces(3)) == 4
    fr4 = reference_simplex(4)
    assert len(fr4.faces(2)) == 10


def test_lambda_kronecker_and_partition():
    rng = random.Random(1)
    for d in (2, 3):
        fr = random_frame(d, rng)
        for i in range(d + 1):
            for j in range(d + 1):
                assert fr.lambdas[i].evaluate(fr.vertices[j]) == (1 if i == j else 0)
        total = sum(fr.lambdas[1:], fr.lambdas[0])
        assert total == Polynomial.constant(d, 1)


@pytest.mark.parametrize("d", [2, 3])
def test_tangent_gradient_pairing(d):
    rng = random.Random(10 + d)
    fr = random_frame(d, rng)
    for i in range(d + 1):
        for j in range(d + 1):
            if i == j:
                continue
            t = fr.tangent(i, j)
            for ell in range(d + 1):
                expect = (1 if ell == j else 0) - (1 if ell == i else 0)
                got = sum(a * b for a, b in zip(t, fr.grad_lambda[ell]))
                assert got == expect


@pytest.mark.parametrize("d", [2, 3])
def test_dual_frame(d):
    rng = random.Random(20 + d)
    fr = random_frame(d, rng)
    for i in range(1, d + 1):
        ti0 = fr.tangent(i, 0)
        for j in range(1, d + 1):
            got = sum(a * b for a, b in zip(ti0, fr.scaled_normals[j]))
            assert got == (1 if i == j else 0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tensor_bases_duality(d):
    rng = random.Random(30 + d)
    fr = random_frame(d, rng)
    pairs = sorted(fr.tensor_T)
    assert len(pairs) == d * (d + 1) // 2
    for ij in pairs:
        for kl in pairs:
            prod = dot(fr.tensor_T[ij], fr.tensor_N[kl])
            expect = Polynomial.constant(d, 1 if ij == kl else 0)
            assert prod == expect, (ij, kl)


def test_tensor_bases_span():
    fr = reference_simplex(3)
    m = Matrix.from_columns(
        [[p.entry(i, j).evaluate((0, 0, 0)) for i in range(3) for j in range(i, 3)]
         for p in fr.tensor_T.values()]
    )
    assert m.rank() == 6


def test_project_normal_to_zero():
    fr = reference_simplex(2)
    face = fr.face_opposite(0)
    g = face.normal_frame[0]
    v = Polynomial.constant_vector(2, g)
    assert project_to_face(face, v).is_zero()


def test_project_tangent_unchanged():
    fr = reference_simplex(2)
    face = fr.face_opposite(2)  # the edge on x2 = 0
    e1 = Polynomial.constant_vector(2, (1, 0))
    assert project_to_face(face, e1) == e1


def test_restrict_vanishing_lambda():
    rng = random.Random(4)
    fr = random_frame(3, rng)
    for face in fr.faces(2):
        for i in face.opposite_ids:
            assert face.restrict(fr.lambdas[i]).is_zero()


def test_restrict_constant_and_edge_chart():
    fr = reference_simplex(2)
    one = Polynomial.constant(2, 1)
    edge = [f for f in fr.faces(1) if f.vertex_ids == (1, 2)][0]
    assert edge.restrict(one) == Polynomial.constant(1, 1)
    x1 = Polynomial.coordinate(2, 0)
    s = Polynomial.coordinate(1, 0)
    assert edge.restrict(x1) == Polynomial.constant(1, 1) - s


def test_face_frames_orthogonal():
    rng = random.Random(6)
    for d in (2, 3):
        fr = random_frame(d, rng)
        for r in range(1, d):
            for face in fr.faces(r):
                for g in face.normal_frame:
                    for t in face.tangents:
                        assert sum(a * b for a, b in zip(g, t)) == 0
                assert Matrix([list(t) for t in face.tangents]).rank() == face.dim


@pytest.mark.parametrize("d", [2, 3])
def test_surface_div_projected_position(d):
    fr = reference_simplex(d)
    for face in fr.faces(1):
        xvec = Polynomial.vector_from([Polynomial.coordinate(d, t) for t in range(d)])
        w = project_to_face(face, xvec)
        assert surface_div(face, w) == Polynomial.constant(face.dim, d - 1)




@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [0, 2])
def test_vertex_face_trace_is_point_evaluation(d, k):
    # at a vertex (a 0-dimensional chart) the trace a^T tau b is one number:
    # the restriction of a^T tau b to the vertex
    rng = random.Random(40 + 10 * d + k)
    fr = random_frame(d, rng)
    for face in fr.faces(d):
        a = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        tau = Polynomial(d, "sym", {(c, e): Fraction(rng.randint(-5, 5))
                                    for c, e in poly.frame("sym", d, k)})
        atb = sum((tau.entry(i, j).scale(a[i] * b[j]) for i in range(d) for j in range(d)),
                  Polynomial.zero(d))
        got = face.trace("sym", k, a, b).matmul(Matrix.from_columns([poly.coeff_vector(tau, k)]))
        assert got.column(0) == tuple(poly.coeff_vector(face.restrict(atb), k))
        assert got.rows == 1


def test_float_vertices_are_rejected():
    with pytest.raises(TypeError):
        build_frame([[0.1, 0], [1, 0], [0, 1]])
    assert build_frame([[Fraction(1, 10), 0], [1, 0], [0, 1]]).vertices[0][0] == Fraction(1, 10)


# -- the Bernstein matrix -----------------------------------------------------------


def _bernstein_frames(d):
    fractional = SimplexFrame(
        [[Fraction(i + 1, j + 2) if i == j else Fraction(i - j, 3) for j in range(d)] for i in range(d)]
        + [[Fraction(1, 5)] * d]
    )
    return reference_simplex(d), random_frame(d, random.Random(70 + d)), fractional


def _lambda_power(fr, alpha):
    out = Polynomial.constant(fr.d, 1)
    for i, a in enumerate(alpha):
        for _ in range(a):
            out = poly.multiply(out, fr.lambdas[i])
    return out


@pytest.mark.parametrize("kind", ["scalar", "vector", "sym"])
@pytest.mark.parametrize("d,k", [(1, 3), (2, 0), (2, 3), (3, 2)])
def test_bernstein_columns_are_products_of_barycentric_coordinates(kind, d, k):
    alphas = [a for a in poly.monomials(d + 1, k) if sum(a) == k]
    nc = poly.ncomp(kind, d)
    for fr in _bernstein_frames(d):
        g = fr.bernstein(kind, k)
        assert fr.bernstein(kind, k) is g
        assert g.rows == g.cols == len(alphas) * nc == len(poly.frame(kind, d, k))
        scales = set()
        for ia, alpha in enumerate(alphas):
            power = _lambda_power(fr, alpha)
            for c in range(nc):
                # column (alpha, c) is one positive integer multiple of lambda^alpha e_c
                shaped = Polynomial(d, kind, {(c, e): v for (_, e), v in power.terms.items()})
                want = poly.coeff_vector(shaped, k)
                col = g.column(ia * nc + c)
                assert all(x.denominator == 1 for x in col)
                scales |= {x / w for x, w in zip(col, want) if w}
                assert [x for x, w in zip(col, want) if not w] == [0] * want.count(0)
        (scale,) = scales
        assert scale > 0 and scale.denominator == 1
        if fr.vertices == reference_simplex(d).vertices:
            assert scale == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bernstein_matrix_has_full_rank(d):
    for fr in _bernstein_frames(d):
        for k in range(5):
            gs = fr.bernstein("scalar", k)
            assert gs.rows == gs.cols == comb(k + d, d) and gs.rank() == gs.cols
            # a shaped G is the scalar G on each stored component alone, so it
            # has full rank as well
            for kind in ("vector", "sym"):
                nc = poly.ncomp(kind, d)
                g = fr.bernstein(kind, k)
                for i in range(gs.rows):
                    row = gs.int_row(i)[1]
                    for c in range(nc):
                        want = tuple(v if c2 == c else 0 for v in row for c2 in range(nc))
                        assert g.int_row(i * nc + c) == (1, want)


# -- the Bernstein traces -------------------------------------------------------------
#
# Face.bernstein_trace(s) build T G, a face trace T times the frame's Bernstein
# matrix G, from the restrictions of lambda^alpha alone; the product T G is the
# oracle.

_NAMED_MODES = {"vector": ("vector_normal", "tangential"),
                "sym": ("tensor_normal", "normal_normal", "tangential", "tangential_tangential",
                        "normal_div", "combo")}


def _oracle_frames(d):
    frames = _bernstein_frames(d)
    return frames if d < 4 else frames[:2]


@pytest.mark.parametrize("kind", ["vector", "sym"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_bernstein_traces_are_the_traces_times_g(kind, d, k):
    for fr in _oracle_frames(d):
        g = fr.bernstein(kind, k)
        # at d=4, k=4 the sym oracle products are large: two of the five facets
        faces = fr.faces(1) if (d, k) != (4, 4) else (fr.faces(1)[0], fr.faces(1)[-1])
        for face in faces:
            for mode in _NAMED_MODES[kind]:
                chart_k, mats = face.traces(kind, k, mode)
                got_k, got = face.bernstein_traces(kind, k, mode)
                assert got_k == chart_k and len(got) == len(mats)
                assert face.bernstein_traces(kind, k, mode)[1] == got
                for t, tb in zip(mats, got):
                    assert tb == t.matmul(g)


@pytest.mark.parametrize("kind", ["vector", "sym"])
@pytest.mark.parametrize("d,k", [(d, k) for d in (2, 3) for k in range(5)] + [(4, k) for k in range(3)])
def test_bernstein_trace_is_the_trace_times_g_on_every_face(kind, d, k):
    # the weight pairs of the normal-normal face moments, on the faces of
    # every codimension down to the vertices
    for fr in _oracle_frames(d):
        g = fr.bernstein(kind, k)
        for r in range(1, d + 1):
            for face in fr.faces(r):
                for a in range(r):
                    for b in range(a, r):
                        ga, gb = face.normal_frame[a], face.normal_frame[b]
                        args = (ga,) if kind == "vector" else (ga, gb)
                        assert face.bernstein_trace(kind, k, *args) == face.trace(kind, k, *args).matmul(g)


def test_bernstein_trace_of_a_vertex_is_d_to_the_k_at_k_e_v():
    # lambda^alpha at vertex v is 1 for alpha = k e_v and 0 otherwise
    fr = _bernstein_frames(3)[2]
    assert fr.faces(1)[0].bary_den > 1
    for face in fr.faces(3):
        (v,) = face.vertex_ids
        row = face.bernstein_trace("scalar", 3, (1,))
        alphas = [a for a in poly.monomials(4, 3) if sum(a) == 3]
        want = [face.bary_den ** 3 if a[v] == 3 else 0 for a in alphas]
        assert row == Matrix([want])


def test_pointwise_traces_share_one_memoized_scalar_table(monkeypatch):
    # a pointwise trace is its weights scattered over the face's scalar table
    # of the restriction: the table is built once per (k, op, bernstein), the
    # weights once per call
    face = random_frame(3, random.Random(5)).face_opposite(0)
    calls = []
    weights = simplex._weights
    monkeypatch.setattr(simplex, "_weights", lambda *args: calls.append(args) or weights(*args))
    g, e0 = face.normal_frame[0], (1, 0, 0)
    for bernstein in (False, True):
        trace = face.bernstein_trace if bernstein else face.trace
        t = trace("sym", 2, g, e0)
        table = face.table(2, None, bernstein)
        assert trace("sym", 2, g, e0) == t and len(calls) == 2 + 4 * bernstein
        # (a, b) and (b, a) weigh a symmetric field alike: equal traces
        assert trace("sym", 2, e0, g) == t and len(calls) == 3 + 4 * bernstein
        trace("vector", 2, g)  # another kind, the same scalar table
        assert face.table(2, None, bernstein) is table and len(calls) == 4 + 4 * bernstein
    assert sorted(face._tables, key=str) == [(False, 2, None), (True, 2, None)]
