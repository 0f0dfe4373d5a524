import random
from fractions import Fraction

import pytest

from femforge import poly
from femforge.poly import (
    Polynomial,
    ShapeMismatchError,
    coeff_matrix,
    coeff_vector,
    div,
    div_rowwise,
    divdiv,
    dot,
    frame,
    from_coeff_vector,
    grad,
    koszul_dot_x,
    koszul_x,
    koszul_xxT,
    monomials,
    multiply,
    partial,
    poly_from_json,
    poly_to_json,
)
from reference import homogeneous_component


def x(d, i):
    return Polynomial.coordinate(d, i)


def random_homogeneous(rng, d, r, kind="scalar"):
    terms = {}
    for c in range(poly.ncomp(kind, d)):
        for exps in monomials(d, r):
            if sum(exps) == r:
                terms[(c, exps)] = Fraction(rng.randint(-9, 9))
    p = Polynomial(d, kind, terms)
    return p if not p.is_zero() else Polynomial.monomial(d, kind, 0, (r,) + (0,) * (d - 1))


def test_eval_product():
    d = 2
    p = multiply(x(d, 0) + x(d, 1), x(d, 0))
    assert p.evaluate((1, 2)) == 3


def test_additive_inverse():
    d = 3
    p = multiply(x(d, 0), x(d, 2)) + x(d, 1)
    assert (p + (-p)).is_zero()


def test_barycentric_product_at_barycenter():
    # lambda0 = 1 - x1 - x2 and lambda1 = x1 on the reference triangle
    d = 2
    lam0 = Polynomial.constant(d, 1) - x(d, 0) - x(d, 1)
    lam1 = x(d, 0)
    val = multiply(lam0, lam1).evaluate((Fraction(1, 3), Fraction(1, 3)))
    assert val == Fraction(1, 9)


def test_grad_example():
    d = 2
    p = multiply(multiply(x(d, 0), x(d, 0)), x(d, 1))
    g = grad(p)
    assert g.component(0) == multiply(x(d, 0), x(d, 1)).scale(2)
    assert g.component(1) == multiply(x(d, 0), x(d, 0))


def test_div_x_times_q():
    # div(x q) = (r + d) q for homogeneous q of degree r; here d=3, q = x1 x2
    d = 3
    q = multiply(x(d, 0), x(d, 1))
    v = Polynomial.vector_from([multiply(x(d, i), q) for i in range(d)])
    assert div(v) == q.scale(5)


def test_divdiv_xxT_example():
    d = 2
    q = x(d, 0)
    assert divdiv(koszul_xxT(q)) == q.scale(12)


def test_koszul_dot_x_euler():
    d = 2
    q = multiply(multiply(x(d, 0), x(d, 0)), x(d, 0))
    assert koszul_dot_x(grad(q)) == q.scale(3)


def test_koszul_mat_x_zero():
    d = 3
    assert poly._apply("mat_x", Polynomial.zero(d, "sym")).is_zero()


def test_koszul_x_unrolled():
    d = 3
    q = Polynomial.constant(d, 2) + multiply(x(d, 0), x(d, 2)).scale(-5)
    assert koszul_x(q) == Polynomial.vector_from([multiply(x(d, t), q) for t in range(d)])
    with pytest.raises(ShapeMismatchError):
        koszul_x(grad(x(d, 0)))


def test_koszul_xxT_unrolled():
    d = 2
    m = koszul_xxT(Polynomial.constant(d, 1))
    assert m.entry(0, 0) == multiply(x(d, 0), x(d, 0))
    assert m.entry(0, 1) == multiply(x(d, 0), x(d, 1))
    assert m.entry(1, 0) == multiply(x(d, 0), x(d, 1))
    assert m.entry(1, 1) == multiply(x(d, 1), x(d, 1))


def test_homogeneous_component():
    d = 2
    p = Polynomial.constant(d, 1) + x(d, 0) + multiply(x(d, 0), x(d, 1))
    assert homogeneous_component(p, 2) == multiply(x(d, 0), x(d, 1))
    assert homogeneous_component(p, 5).is_zero()
    sq = multiply(Polynomial.constant(d, 1) + x(d, 0), Polynomial.constant(d, 1) + x(d, 0))
    assert homogeneous_component(sq, 1) == x(d, 0).scale(2)
    total = sum(
        (homogeneous_component(p, r) for r in range(p.degree() + 1)), Polynomial.zero(d)
    )
    assert total == p


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [0, 1, 3, 6])
def test_euler_identity_grad(d, r):
    rng = random.Random(d * 10 + r)
    q = random_homogeneous(rng, d, r)
    assert koszul_dot_x(grad(q)) == q.scale(r)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [0, 2, 5])
def test_euler_identity_div(d, r):
    rng = random.Random(d * 100 + r)
    q = random_homogeneous(rng, d, r)
    v = Polynomial.vector_from([multiply(x(d, i), q) for i in range(d)])
    assert div(v) == q.scale(r + d)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [0, 1, 4])
def test_divdiv_eigenvalue(d, r):
    rng = random.Random(d * 1000 + r)
    q = random_homogeneous(rng, d, r)
    out = divdiv(koszul_xxT(q))
    assert out == q.scale((r + 1 + d) * (r + d))
    # degree preservation into the same homogeneous slice
    assert homogeneous_component(out, r) == out


@pytest.mark.parametrize("d", [2, 3])
def test_sym_skw_split_of_gradient(d):
    rng = random.Random(77 + d)
    v = random_homogeneous(rng, d, 3, kind="vector")
    s = poly._apply("def", v)
    w = poly._apply("skw_grad", v)
    for i in range(d):
        for j in range(d):
            dji = partial(v.component(i), j)
            assert s.entry(i, j) + w.entry(i, j) == dji
            assert s.entry(i, j) == (partial(v.component(i), j) + partial(v.component(j), i)).scale(
                Fraction(1, 2)
            )


def test_hess_is_sym_grad_of_grad():
    d = 3
    rng = random.Random(5)
    p = random_homogeneous(rng, d, 4)
    assert poly._apply("hess", p) == poly._apply("def", grad(p))


def test_divdiv_equals_div_of_rowwise_div():
    d = 2
    rng = random.Random(9)
    tau = random_homogeneous(rng, d, 3, kind="sym")
    assert divdiv(tau) == div(div_rowwise(tau))


def test_shape_mismatch_errors():
    d = 2
    with pytest.raises(ShapeMismatchError):
        grad(Polynomial.zero(d, "vector"))
    with pytest.raises(ShapeMismatchError):
        div(Polynomial.zero(d, "scalar"))
    with pytest.raises(ShapeMismatchError):
        multiply(Polynomial.zero(d, "vector"), Polynomial.zero(d, "sym"))
    with pytest.raises(ShapeMismatchError):
        x(2, 0) + x(3, 0)


def test_skw_entries_mirror():
    d = 3
    w = Polynomial.monomial(d, "skw", 0, (0, 0, 0))  # entry (0,1)
    assert w.entry(0, 1) == Polynomial.constant(d, 1)
    assert w.entry(1, 0) == Polynomial.constant(d, -1)
    assert w.entry(2, 2).is_zero()


def test_frobenius_pairing_weights():
    d = 2
    a = Polynomial.constant_sym(d, [[1, 2], [2, 3]])
    b = Polynomial.constant_sym(d, [[5, 7], [7, 11]])
    # full Frobenius product: 1*5 + 2*2*7 + 3*11 = 66
    assert dot(a, b) == Polynomial.constant(d, 66)


def test_substitute_affine_on_edge():
    # x restricted to the segment (1,0)-(0,1): x1 -> 1 - s, x2 -> s
    d = 2
    p = x(d, 0)
    q = poly.AffinePowers((1, 0), [[-1], [1]]).substitute(p)
    s = Polynomial.coordinate(1, 0)
    assert q == Polynomial.constant(1, 1) - s


def test_frame_prefix_property():
    fr2 = frame("vector", 2, 2)
    fr4 = frame("vector", 2, 4)
    assert fr4[: len(fr2)] == fr2


def test_coeff_vector_roundtrip():
    d = 3
    rng = random.Random(31)
    p = random_homogeneous(rng, d, 2, kind="sym") + random_homogeneous(rng, d, 0, kind="sym")
    vec = coeff_vector(p, 4)
    assert from_coeff_vector(d, "sym", 4, vec) == p
    m = coeff_matrix([p, p.scale(3)], 4)
    assert m.cols == 2 and m.rank() == 1


def test_json_roundtrip():
    d = 2
    rng = random.Random(13)
    p = random_homogeneous(rng, d, 3, kind="skw")
    assert poly_from_json(poly_to_json(p)) == p
    assert "vdim" not in poly_to_json(p)


def test_json_roundtrip_keeps_chart_vdim():
    # a vector field restricted to a face chart keeps its 3 ambient components
    from femforge.simplex import reference_simplex

    rng = random.Random(14)
    field = random_homogeneous(rng, 3, 2, kind="vector")
    face = reference_simplex(3).face_opposite(0)
    p = face.restrict(field)
    assert (p.d, p.vdim) == (2, 3)
    data = poly_to_json(p)
    assert data["vdim"] == 3
    assert poly_from_json(data) == p


@pytest.mark.parametrize("k", [0, 3])
def test_monomials_in_zero_variables(k):
    assert monomials(0, k) == ((),)
    assert monomials(0, -1) == ()


def test_evaluate_full_matrix_shapes():
    d = 2
    m = koszul_xxT(Polynomial.constant(d, 1))
    val = m.evaluate((2, 3))
    assert val == ((4, 6), (6, 9))
    w = Polynomial.monomial(d, "skw", 0, (0, 0))
    assert w.evaluate((0, 0)) == ((0, 1), (-1, 0))


@pytest.mark.parametrize("build", [
    lambda: Polynomial(2, "scalar", {(0, (1, 0)): 0.1}),
    lambda: Polynomial(2, "scalar", {(0, (1, 0)): 0.0}),
    lambda: Polynomial.coordinate(2, 0).scale(0.5),
    lambda: Polynomial.constant(2, 0.5),
    lambda: Polynomial.monomial(2, "vector", 1, (0, 1), 0.5),
    lambda: Polynomial.constant_vector(2, [1, 0.5]),
    lambda: Polynomial.constant_sym(2, [[1, 0.5], [0.5, 2]]),
    lambda: Polynomial.coordinate(2, 0).evaluate([0.1, 0]),
], ids=["init", "init-zero", "scale", "constant", "monomial", "constant_vector", "constant_sym", "evaluate"])
def test_float_coefficients_are_rejected(build):
    with pytest.raises(TypeError):
        build()


# -- stencil tables against the per-term oracle ---------------------------------------

import reference  # noqa: E402

# def, skw_grad, hess and mat_x have no function of their own: they are applied
# through the table operator
_PUBLIC_OPERATORS = {
    "grad": grad, "div": div, "div_rowwise": div_rowwise, "def": lambda v: poly._apply("def", v),
    "skw_grad": lambda v: poly._apply("skw_grad", v), "hess": lambda p: poly._apply("hess", p), "divdiv": divdiv,
    "dot_x": koszul_dot_x, "x": koszul_x, "mat_x": lambda tau: poly._apply("mat_x", tau), "xxT": koszul_xxT,
}
_OPERATOR_KINDS = [(op, kind) for op in _PUBLIC_OPERATORS for kind in poly.OPERATORS[op][0]]


@pytest.mark.parametrize("op,kind", _OPERATOR_KINDS)
def test_operator_table_equals_the_per_term_images(op, kind):
    # every admissible kind, d = 1..4 (no skew fields at d = 1), k = 0..5
    for d in range(1, 5):
        if poly.ncomp(kind, d) == 0:
            continue
        for k in range(6):
            assert poly.operator_table(op, kind, d, k) == reference.operator_images(op, kind, d, k), (d, k)


@pytest.mark.parametrize("op,kind", _OPERATOR_KINDS)
def test_operator_functions_match_the_oracle_on_random_fields(op, kind):
    rng = random.Random(f"{op}-{kind}")
    for d in (2, 3):
        terms = {(c, e): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for c, e in frame(kind, d, 3) if rng.random() < 0.4}
        p = Polynomial(d, kind, terms)
        assert _PUBLIC_OPERATORS[op](p) == reference.OPERATOR_FUNCTIONS[op](p)


_WRONG_KIND = {"scalar": "vector", "vector": "sym", "sym": "scalar", "skw": "vector", "matrix": "scalar"}


@pytest.mark.parametrize("op", list(_PUBLIC_OPERATORS))
def test_operators_reject_a_wrong_kind_and_a_chart_restriction(op):
    from femforge.simplex import reference_simplex

    kind = poly.OPERATORS[op][0][0]
    fn = _PUBLIC_OPERATORS[op]
    wrong = _WRONG_KIND[kind]
    with pytest.raises(ShapeMismatchError):
        fn(Polynomial.monomial(3, wrong, 0, (1, 0, 0)))
    with pytest.raises(ShapeMismatchError):
        poly.operator_table(op, wrong, 3, 2)
    if kind != "scalar":
        # a field restricted to a face chart: 2 chart variables, 3 value dimensions
        field = Polynomial.monomial(3, kind, 0, (1, 1, 0))
        restricted = reference_simplex(3).face_opposite(0).restrict(field)
        assert (restricted.d, restricted.vdim) == (2, 3)
        with pytest.raises(ShapeMismatchError):
            fn(restricted)
