import random
from fractions import Fraction

import pytest

from femforge.exact import Matrix
from femforge.integrate import (
    bernstein_gram,
    chart_mass,
    frame_gram,
    integrate_face,
    integrate_simplex,
    pair_simplex,
)
from femforge.poly import Polynomial, dot, grad, div, multiply
from femforge.simplex import SimplexFrame, random_frame, reference_simplex
from reference import gram_matrix, integrate_barycentric


def bary_monomial(frame, alpha):
    p = Polynomial.constant(frame.d, 1)
    for lam, a in zip(frame.lambdas, alpha):
        for _ in range(a):
            p = multiply(p, lam)
    return p


def test_unit_over_reference_triangle():
    fr = reference_simplex(2)
    assert integrate_simplex(fr, Polynomial.constant(2, 1)) == Fraction(1, 2)


def test_lambda0_lambda1_over_triangle():
    fr = reference_simplex(2)
    p = multiply(fr.lambdas[0], fr.lambdas[1])
    assert integrate_simplex(fr, p) == Fraction(1, 24)
    assert integrate_barycentric(fr, (1, 1, 0)) == Fraction(1, 24)


def test_tet_quartic_barycentric():
    fr = reference_simplex(3)
    val = integrate_simplex(fr, bary_monomial(fr, (2, 1, 1, 0)))
    assert val == integrate_barycentric(fr, (2, 1, 1, 0))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dual_integration_oracles_agree(d):
    # the barycentric factorial formula and the Cartesian substitution route
    # must agree on random barycentric monomials over random simplices
    rng = random.Random(40 + d)
    fr = random_frame(d, rng)
    samples = 100
    for _ in range(samples):
        alpha = tuple(rng.randint(0, 2) for _ in range(d + 1))
        assert integrate_simplex(fr, bary_monomial(fr, alpha)) == integrate_barycentric(fr, alpha)


def _fractional_simplex(d):
    """A simplex off the origin whose barycentric map has a denominator > 1."""
    verts = [[Fraction(0)] * d] + [[Fraction(3 if i == j else (j - i) % 3, 2 + j) for j in range(d)]
                                   for i in range(d)]
    return SimplexFrame([[x + Fraction(1, 3) for x in v] for v in verts])


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("where", ["reference", "random", "fractional"])
def test_bernstein_gram_is_the_frame_gram_times_g(d, where):
    # the Dirichlet weights over the power table against the product with G
    fr = {"reference": lambda: reference_simplex(d), "random": lambda: random_frame(d, random.Random(70 + d)),
          "fractional": lambda: _fractional_simplex(d)}[where]()
    assert where != "fractional" or fr._bary.den > 1
    for kind in ("scalar", "vector", "sym"):
        for k2 in range(5):
            g = fr.bernstein(kind, k2)
            for k1 in range(4):
                assert bernstein_gram(fr, kind, k1, k2) == frame_gram(fr, kind, k1, k2).matmul(g), (kind, k1, k2)


def test_face_chart_basics():
    fr = reference_simplex(2)
    edge = fr.faces(1)[0]
    one = Polynomial.constant(1, 1)
    s = Polynomial.coordinate(1, 0)
    assert integrate_face(edge, one) == 1
    assert integrate_face(edge, multiply(s, one - s)) == Fraction(1, 6)


def test_vertex_chart_is_evaluation():
    fr = reference_simplex(2)
    vertex_face = fr.faces(2)[0]
    c = Polynomial.constant(0, 5)
    assert integrate_face(vertex_face, c) == 5


@pytest.mark.parametrize("k1,k2", [(0, 0), (2, 3)])
def test_vertex_chart_mass_is_evaluation(k1, k2):
    # a 0-dimensional chart has the single monomial 1 of every degree
    assert chart_mass(0, k1, k2) == Matrix([[1]])


def test_shared_edge_integral_is_side_independent():
    # conformity oracle: the canonical chart gives the same integral from
    # both simplices sharing an edge
    left = reference_simplex(2)
    right = type(left)([(0, 0), (1, 0), (Fraction(1, 2), -1)])
    shared_l = [f for f in left.faces(1) if f.vertex_ids == (0, 1)][0]
    shared_r = [f for f in right.faces(1) if f.vertex_ids == (0, 1)][0]
    p = multiply(left.lambdas[0], left.lambdas[1])
    assert shared_l.restrict(p) == shared_r.restrict(p)
    assert integrate_face(shared_l, shared_l.restrict(p)) == integrate_face(
        shared_r, shared_r.restrict(p)
    )


def test_gram_one_by_one_normalized():
    fr = reference_simplex(2)
    p = Polynomial.constant(2, 1)
    norm2 = pair_simplex(fr, p, p)
    g = gram_matrix(fr, [p.scale(1) * Fraction(1, 1)])
    assert g[0, 0] == norm2


def test_gram_basis_one_x():
    fr = reference_simplex(2)
    basis = [Polynomial.constant(2, 1), Polynomial.coordinate(2, 0)]
    g = gram_matrix(fr, basis)
    assert g[0, 0] == Fraction(1, 2)
    assert g[0, 1] == Fraction(1, 6)
    assert g[1, 0] == Fraction(1, 6)
    assert g[1, 1] == Fraction(1, 12)


@pytest.mark.parametrize("d", [2, 3])
def test_gram_spd(d):
    rng = random.Random(50 + d)
    fr = random_frame(d, rng)
    basis = [fr.lambdas[0], fr.lambdas[1], multiply(fr.lambdas[0], fr.lambdas[2])]
    g = gram_matrix(fr, basis)
    assert g == g.transpose()
    # leading principal minors positive (SPD)
    for n in range(1, len(basis) + 1):
        sub = type(g)([[g[i, j] for j in range(n)] for i in range(n)])
        assert sub.det() > 0


@pytest.mark.parametrize("d", [2, 3])
def test_positivity_of_squares(d):
    rng = random.Random(60 + d)
    fr = random_frame(d, rng)
    for _ in range(5):
        p = Polynomial(
            d,
            "scalar",
            {
                (0, tuple(rng.randint(0, 2) for _ in range(d))): Fraction(rng.randint(-4, 4))
                for _ in range(4)
            },
        )
        if p.is_zero():
            continue
        assert integrate_simplex(fr, multiply(p, p)) > 0


def test_linearity():
    fr = reference_simplex(3)
    p = multiply(fr.lambdas[1], fr.lambdas[2])
    q = fr.lambdas[0]
    lhs = integrate_simplex(fr, p.scale(3) + q.scale(-7))
    assert lhs == 3 * integrate_simplex(fr, p) - 7 * integrate_simplex(fr, q)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_green_identity_scaled_normal_form(d, seed):
    # (div v, p)_K + (v, grad p)_K = d!|K| sum_F int_chart (v.g_F) p
    rng = random.Random(100 * d + seed)
    fr = random_frame(d, rng)

    def rand_scalar(deg):
        return Polynomial(
            d,
            "scalar",
            {
                (0, e): Fraction(rng.randint(-5, 5))
                for e in [tuple(rng.randint(0, deg) for _ in range(d)) for _ in range(5)]
                if sum(e) <= deg
            },
        )

    v = Polynomial.vector_from([rand_scalar(2) for _ in range(d)])
    p = rand_scalar(2)
    lhs = pair_simplex(fr, div(v), p) + pair_simplex(fr, v, grad(p))
    rhs = Fraction(0)
    for face in fr.faces(1):
        g = face.normal_frame[0]
        vg = sum((v.component(t).scale(g[t]) for t in range(d)), Polynomial.zero(d))
        rhs += integrate_face(face, dot(face.restrict(vg), face.restrict(p)))
    assert lhs == fr.jac_factor * rhs
