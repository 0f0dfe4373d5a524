import random
from fractions import Fraction

import pytest

from femforge import conformity
from femforge.conformity import (
    SameSideApexesError,
    SharedChartMismatchError,
    build_patch,
    conformity_check,
    green_identity_check,
    green_residual,
)
from femforge.poly import Polynomial, hess, koszul_xxT, divdiv
from femforge.integrate import pair_simplex
from femforge.simplex import DegenerateSimplexError, SimplexFrame, random_frame, reference_simplex
from femforge.spaces import divdiv_splits, split_bubble


@pytest.fixture(scope="module")
def patch2():
    return build_patch([(0, 0), (1, 0)], (0, 1), (Fraction(1, 2), -1))


@pytest.fixture(scope="module")
def patch3():
    return build_patch([(0, 0, 0), (1, 0, 0), (0, 1, 0)], (0, 0, 1), (0, 0, -1))


def test_build_patch_valid(patch2):
    assert patch2.left.d == 2
    assert patch2.shared_left.tangents == patch2.shared_right.tangents
    assert patch2.shared_left.origin == patch2.shared_right.origin


def test_same_side_apexes_rejected():
    with pytest.raises(SameSideApexesError):
        build_patch([(0, 0), (1, 0)], (0, 1), (1, 2))


def test_degenerate_apex_rejected():
    with pytest.raises(DegenerateSimplexError):
        build_patch([(0, 0), (1, 0)], (0, 1), (2, 0))


def test_mismatched_shared_chart_rejected(monkeypatch):
    # A right simplex that reports another face as the shared one.
    class OffsetRight(SimplexFrame):
        __slots__ = ()

        def face_opposite(self, i):
            return super().face_opposite(0 if self.vertices[-1] == (1, -1) else i)

    monkeypatch.setattr(conformity, "SimplexFrame", OffsetRight)
    with pytest.raises(SharedChartMismatchError):
        build_patch([(0, 0), (1, 0)], (0, 1), (1, -1))


def test_build_patch_3d(patch3):
    assert patch3.left.d == 3
    assert patch3.shared_left.vertex_ids == (0, 1, 2)


@pytest.mark.parametrize(
    "family,k",
    [("BDM", 1), ("BDM", 2), ("RT", 0), ("RT", 1), ("HdivS", 2), ("HdivS", 3),
     ("HdivS_split", 2), ("HdivS_minus", 2), ("DivDivPlus", 3), ("DivDivPlusMinus", 3),
     ("DivDiv", 3), ("DivDivMinus", 3)],
)
def test_conformity_2d(patch2, family, k):
    res = conformity_check(patch2, family, k)
    assert res.passed, res.as_dict()
    assert res.context["negative_control_jumped"]


@pytest.mark.parametrize("family,k", [("BDM", 1), ("HdivS", 2), ("DivDiv", 3)])
def test_conformity_3d(patch3, family, k):
    res = conformity_check(patch3, family, k)
    assert res.passed, res.as_dict()


def test_skewed_patch_conformity():
    patch = build_patch([(-1, 1), (2, 0)], (0, 3), (1, -2))
    for family, k in (("BDM", 2), ("HdivS", 2), ("DivDiv", 3)):
        res = conformity_check(patch, family, k)
        assert res.passed, res.as_dict()


def test_green_residual_xxT_x1():
    fr = reference_simplex(2)
    tau = koszul_xxT(Polynomial.constant(2, 1))
    v = Polynomial.coordinate(2, 0)
    assert green_residual(fr, tau, v) == 0


def test_green_residual_affine_v():
    # hess v = 0 for affine v: the identity reduces to pure boundary terms
    rng = random.Random(2)
    fr = random_frame(2, rng)
    tau = koszul_xxT(Polynomial.coordinate(2, 1))
    v = Polynomial.constant(2, 3) + Polynomial.coordinate(2, 0).scale(2)
    assert hess(v).is_zero()
    assert green_residual(fr, tau, v) == 0


def test_green_bubble_reduces_to_volume_terms():
    # when tau n and n.div tau both vanish on the boundary, the identity
    # collapses to (divdiv tau, v)_K = (tau, hess v)_K on the nose
    fr = reference_simplex(2)
    f0, _ = divdiv_splits(fr, 4)
    assert f0.dim == 5
    v = Polynomial(
        2, "scalar", {(0, (2, 0)): Fraction(1), (0, (1, 1)): Fraction(-2), (0, (0, 3)): Fraction(5)}
    )
    for tau in f0.members():
        lhs = pair_simplex(fr, divdiv(tau), v)
        rhs = pair_simplex(fr, tau, hess(v))
        assert lhs == rhs
        assert green_residual(fr, tau, v) == 0


def test_green_divergence_free_bubble_annihilates_hessians():
    # divergence-free bubbles pair to zero against every Hessian
    fr = reference_simplex(2)
    e0, _ = split_bubble(fr, "div_sym", 4)
    assert e0.dim == 1
    rng = random.Random(9)
    for _ in range(3):
        v = Polynomial(
            2,
            "scalar",
            {(0, (rng.randint(0, 2), rng.randint(0, 2))): Fraction(rng.randint(-5, 5))
             for _ in range(4)},
        )
        for tau in e0.members():
            assert divdiv(tau).is_zero() or pair_simplex(fr, divdiv(tau), v) == 0
            assert pair_simplex(fr, tau, hess(v)) == 0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_green_identity_random(d, k):
    rng = random.Random(10 * d + k)
    fr = random_frame(d, rng)
    res = green_identity_check(fr, k, k, samples=4, seed=d * 100 + k)
    assert res.passed, res.as_dict()


def test_skewed_patch_conformity_3d():
    patch = build_patch(
        [(0, 0, 0), (2, 1, 0), (-1, 2, 1)], (0, 1, 3), (1, 0, -2)
    )
    for family, k in (("HdivS", 2), ("DivDiv", 3)):
        res = conformity_check(patch, family, k)
        assert res.passed, res.as_dict()
        assert res.context["negative_control_jumped"]
