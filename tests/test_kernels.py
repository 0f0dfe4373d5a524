"""The integer polynomial kernels against their Fraction oracles.

Monomial moments, face restrictions, affine substitution and the named face
trace operators all read the integer power tables of ``poly.AffinePowers``;
``reference`` keeps the routines that compose one ``Fraction`` polynomial
product at a time.  The simplices have rational, non-integer vertices, the
reflected patch apex among them.
"""

import gc
import random
from fractions import Fraction

import pytest

import reference
from femforge import poly
from femforge.conformity import reflected_patch
from femforge.elements import FAMILIES, apply_dof, build_element
from femforge.integrate import integrate_simplex
from femforge.poly import Polynomial, multiply, substitute_affine
from femforge.simplex import DegenerateSimplexError, SimplexFrame

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_SETTINGS = dict(deadline=None, derandomize=True)


def _rationals():
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def _frames(draw, dims=(1, 2, 3, 4)):
    """A rational simplex, or the mirror image of its apex across the opposite
    face (the right side of a reflected patch)."""
    d = draw(st.sampled_from(dims))
    verts = draw(st.lists(st.lists(_rationals(), min_size=d, max_size=d), min_size=d + 1, max_size=d + 1))
    try:
        frame = SimplexFrame(verts)
    except DegenerateSimplexError:
        hypothesis.assume(False)
    if d >= 2 and draw(st.booleans()):
        frame = reflected_patch(frame).right
    return frame


def _random_poly(rng, d, kind, k):
    terms = {}
    for c, e in poly.frame(kind, d, k):
        if rng.random() < 0.6:
            terms[(c, e)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return Polynomial(d, kind, terms)


def _bary_monomial(frame, alpha):
    p = Polynomial.constant(frame.d, 1)
    for lam, a in zip(frame.lambdas, alpha):
        for _ in range(a):
            p = multiply(p, lam)
    return p


@hypothesis.settings(max_examples=40, **_SETTINGS)
@hypothesis.given(st.data())
def test_barycentric_moments_match_closed_form(data):
    frame = data.draw(_frames())
    deg = data.draw(st.integers(0, 8))
    cuts = sorted(data.draw(st.lists(st.integers(0, deg), min_size=frame.d, max_size=frame.d)))
    alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
    p = _bary_monomial(frame, alpha)
    assert integrate_simplex(frame, p) == reference.integrate_barycentric(frame, alpha)


@hypothesis.settings(max_examples=30, **_SETTINGS)
@hypothesis.given(_frames((2, 3)), st.integers(0, 4), st.integers(0, 2**32))
def test_monomial_moments_match_composed_reference(frame, k, seed):
    exps = random.Random(seed).choice(poly.monomials(frame.d, k))
    p = Polynomial.monomial(frame.d, "scalar", 0, exps)
    assert integrate_simplex(frame, p) == reference.monomial_integral(frame, exps)


@hypothesis.settings(max_examples=40, **_SETTINGS)
@hypothesis.given(_frames((2, 3, 4)), st.sampled_from(poly.SHAPES), st.integers(0, 4), st.integers(0, 2**32))
def test_restrict_and_substitute_match_reference(frame, kind, k, seed):
    rng = random.Random(seed)
    p = _random_poly(rng, frame.d, kind, k)
    for r in range(1, frame.d + 1):
        face = rng.choice(frame.faces(r))
        assert face.restrict(p) == reference.face_restrict(face, p)
    m = rng.randint(0, frame.d)
    const = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(frame.d)]
    lin = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)] for _ in range(frame.d)]
    assert substitute_affine(p, const, lin) == reference.substitute_affine(p, const, lin)


_MODES = {
    "vector": ("vector_normal", "tangential"),
    "sym": ("tensor_normal", "normal_normal", "tangential", "tangential_tangential", "normal_div", "combo"),
}


@hypothesis.settings(max_examples=25, **_SETTINGS)
@hypothesis.given(_frames((2, 3)), st.sampled_from(sorted(_MODES)), st.integers(0, 3), st.integers(0, 2**32))
def test_every_trace_mode_matches_restricted_members(frame, kind, k, seed):
    face = random.Random(seed).choice(frame.faces(1))
    for mode in _MODES[kind]:
        chart_k, mats = face.traces(kind, k, mode)
        assert chart_k == (max(k - 1, 0) if mode in ("normal_div", "combo") else k)
        assert list(mats) == reference.face_traces(face, kind, k, mode)
        assert face.traces(kind, k, mode)[1] == mats


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_apply_dof_on_member_and_fresh_copy(family):
    frame = reflected_patch(SimplexFrame([[0, 0], [Fraction(5, 2), Fraction(1, 3)], [Fraction(1, 2), 2]])).right
    k = FAMILIES[family].floor(2)
    element = build_element(frame, family, k)
    for dof in element.dofs:
        for j, member in enumerate(element.space.members()):
            fresh = Polynomial(member.d, member.kind, dict(member.terms))
            value = apply_dof(frame, dof, fresh)
            assert value == apply_dof(frame, dof, member)
            assert value == element.dof_matrix[element.dofs.index(dof), j]


@hypothesis.settings(max_examples=60, **_SETTINGS)
@hypothesis.given(st.sampled_from(poly.SHAPES), st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32))
def test_equality_and_hash_ignore_the_cleared_memo(kind, d, k, seed):
    p = _random_poly(random.Random(seed), d, kind, k)
    filled = Polynomial(d, kind, dict(p.terms))
    den, deg, items = filled.int_terms()
    assert deg == p.degree() and all(Fraction(v, den) == p.terms[key] for key, v in items)
    built = poly.from_coeff_row(d, kind, k, poly.coeff_row(p, k))
    for q in (filled, built):
        assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
        assert q.int_terms()[:2] == (den, deg) and sorted(q.int_terms()[2]) == sorted(items)


def test_kernels_leave_no_cyclic_garbage():
    """Moments, restrictions, substitutions and the monomial lists free their
    intermediates by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        rng = random.Random(5)
        for verts in ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                      [[Fraction(1, 2), 0, 0], [3, Fraction(1, 3), 0], [0, Fraction(5, 2), -1], [0, 1, 2]]):
            frame = SimplexFrame(verts)
            p = _random_poly(rng, 3, "scalar", 4)
            tau = _random_poly(rng, 3, "sym", 3)
            integrate_simplex(frame, p)
            for r in (1, 2, 3):
                for face in frame.faces(r):
                    face.restrict(tau)
            substitute_affine(p, [Fraction(1, 3), 2, 0], [[1, Fraction(1, 2)], [0, 1], [3, -1]])
            poly.monomials.__wrapped__(3, 5)
            assert gc.collect() == 0
            del frame, face
            assert gc.collect() == 0
    finally:
        gc.enable()
