"""Acceptance suite: every criterion is an exact (zero-tolerance) check.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line; a FAIL line is
followed by the failing assertion with the collected evidence.
"""

import random
from fractions import Fraction

import pytest

from femforge import poly, spaces
from femforge.conformity import build_patch, conformity_check, green_identity_check
from femforge.elements import FAMILIES, build_element, check_unisolvence, trace_block_rank
from femforge.exact import Matrix
from femforge.integrate import pair_simplex
from femforge.poly import Polynomial
from femforge.report import all_passed
from femforge.simplex import random_frame, reference_simplex
from femforge.spaces import (
    bubble_space,
    build_standard,
    certify_decompositions,
    dim_E0_sym,
    dim_E0_vector,
    dim_P,
    dim_RM,
    dim_bubble_sym,
    dim_bubble_vector,
    dim_trace_sym,
    dim_trace_vector,
    image_space,
    ker_mat_x_sym,
    orthocomplement_in,
    space_equal,
    split_bubble,
    trace_matrix,
)


def _report(number: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not failures, failures[:5]


def _rand_frames(d: int, count: int, seed: int):
    rng = random.Random(seed)
    return [random_frame(d, rng) for _ in range(count)]


def test_acceptance_1_dimension_suite():
    failures = []
    for d in (2, 3):
        fr = reference_simplex(d)
        for k in range(1, 5):
            checks = [
                ("bubble-vector", bubble_space(fr, "div_vector", k).dim, dim_bubble_vector(d, k)),
                ("trace-vector",
                 trace_matrix(fr, build_standard(fr, "P_vector", k), "vector_normal").rank(),
                 dim_trace_vector(d, k)),
            ]
            e0, _ = split_bubble(fr, "div_vector", k)
            checks.append(("kernel-bubble-vector", e0.dim, dim_E0_vector(d, k)))
            for name, got, want in checks:
                if got != want:
                    failures.append((name, d, k, got, want))
        for k in range(2, 5):
            checks = [
                ("bubble-sym", bubble_space(fr, "div_sym", k).dim, dim_bubble_sym(d, k)),
                ("trace-sym",
                 trace_matrix(fr, build_standard(fr, "P_sym", k), "tensor_normal").rank(),
                 dim_trace_sym(d, k)),
            ]
            s0, _ = split_bubble(fr, "div_sym", k)
            checks.append(("kernel-bubble-sym", s0.dim, dim_E0_sym(d, k)))
            if d == 3:
                checks.append(("boundary-total-3d", dim_trace_sym(3, k), 6 * (k + 1) ** 2))
            for name, got, want in checks:
                if got != want:
                    failures.append((name, d, k, got, want))
    _report(1, "dimension suite", failures)


def test_acceptance_2_decomposition_suite():
    failures = []
    for d in (2, 3):
        frames = [reference_simplex(d)] + _rand_frames(d, 3, seed=100 + d)
        for k in range(1, 5):
            for i, fr in enumerate(frames):
                for res in certify_decompositions(fr, k):
                    if not res.passed:
                        failures.append((res.check_id, d, k, f"frame{i}", res.as_dict()))
    _report(2, "decomposition suite", failures)


def test_acceptance_3_operator_identities():
    failures = []
    rng = random.Random(33)
    for d in (2, 3, 4):
        for r in range(0, 6):
            terms = {}
            for exps in poly.monomials(d, r):
                if sum(exps) == r:
                    c = rng.randint(-9, 9)
                    if c:
                        terms[(0, exps)] = Fraction(c)
            if not terms:
                terms[(0, (r,) + (0,) * (d - 1))] = Fraction(1)
            q = Polynomial(d, "scalar", terms)
            if poly.koszul_dot_x(poly.grad(q)) != q.scale(r):
                failures.append(("euler-gradient", d, r))
            xq = Polynomial.vector_from(
                [poly.multiply(Polynomial.coordinate(d, t), q) for t in range(d)]
            )
            if poly.div(xq) != q.scale(r + d):
                failures.append(("euler-divergence", d, r))
            if poly.divdiv(poly.koszul_xxT(q)) != q.scale((r + 1 + d) * (r + d)):
                failures.append(("divdiv-eigen", d, r))
        # matched-basis matrix form of the divdiv eigen-relation
        fr = reference_simplex(d)
        k = 3 if d < 4 else 2
        h = build_standard(fr, "H_scalar", k - 1)
        got = poly.coeff_matrix([poly.divdiv(poly.koszul_xxT(p)) for p in h.members()], k - 1)
        want = poly.coeff_matrix([p.scale((k + d) * (k + d - 1)) for p in h.members()], k - 1)
        if got != want:
            failures.append(("divdiv-eigen-matrix", d, k))
    _report(3, "operator identities", failures)


_UNISOLVENCE_GRID = {
    "BDM": range(1, 5),
    "RT": range(0, 4),
    "HdivS": range(2, 5),
    "HdivS_split": range(2, 5),
    "HdivS_minus": range(2, 4),
    "DivDivPlus": range(3, 5),
    "DivDivPlusMinus": range(3, 5),
    "DivDiv": range(3, 5),
    "DivDivMinus": range(3, 5),
}


def test_acceptance_4_unisolvence():
    failures = []
    for d in (2, 3):
        frames = [("ref", reference_simplex(d))]
        for i, fr in enumerate(_rand_frames(d, 2, seed=400 + d)):
            frames.append((f"rand{i}", fr))
        for family, krange in _UNISOLVENCE_GRID.items():
            floor = FAMILIES[family].floor(d)
            for k in krange:
                if k < floor:
                    continue
                for label, fr in frames:
                    res = check_unisolvence(build_element(fr, family, k))
                    if not res.passed:
                        failures.append((family, d, k, label, res.as_dict()))
    # d = 4 spot checks on the reference simplex
    fr4 = reference_simplex(4)
    for family, k in (("BDM", 1), ("HdivS", 2)):
        res = check_unisolvence(build_element(fr4, family, k))
        if not res.passed:
            failures.append((family, 4, k, "ref", res.as_dict()))
    _report(4, "unisolvence", failures)


def test_acceptance_5_dual_characterizations():
    failures = []
    for d in (2, 3):
        fr = reference_simplex(d)
        # interior edge-space moments match gradient + skw-Koszul moments rowwise
        for k in (2, 3):
            e = build_element(fr, "BDM", k)
            interior = Matrix(
                [e.dof_matrix.row(i) for i, dof in enumerate(e.dofs) if not dof.shared]
            )
            members = e.space.members()
            grads = image_space("grad", build_standard(fr, "P_scalar", k - 1)).members()
            skwx = build_standard(fr, "skwPx", k - 2).members()
            alt = Matrix(
                [[pair_simplex(fr, q, m) for m in members] for q in grads + skwx]
            )
            from femforge import exact

            if not exact.subspace_equal(interior.transpose(), alt.transpose()):
                failures.append(("nd-merge", d, k))
        # kernel-of-Koszul moments pair nondegenerately with the kernel bubble
        for k in (2, 3, 4):
            e0, _ = split_bubble(fr, "div_sym", k)
            tests = ker_mat_x_sym(fr, k - 2)
            if tests.dim != e0.dim:
                failures.append(("pairing-dims", d, k, tests.dim, e0.dim))
                continue
            if e0.dim:
                pairing = Matrix(
                    [[pair_simplex(fr, t, b) for b in e0.members()] for t in tests.members()]
                )
                if pairing.rank() != e0.dim:
                    failures.append(("pairing-rank", d, k, pairing.rank(), e0.dim))
    _report(5, "dual characterizations", failures)


_CONFORMITY_GRID = {
    "BDM": (1, 2),
    "RT": (0, 1),
    "HdivS": (2, 3),
    "HdivS_split": (2,),
    "HdivS_minus": (2,),
    "DivDivPlus": (3,),
    "DivDivPlusMinus": (3,),
    "DivDiv": (3,),
    "DivDivMinus": (3,),
}


def test_acceptance_6_conformity_patches():
    failures = []
    patches = {
        2: build_patch([(0, 0), (1, 0)], (0, 1), (Fraction(1, 2), -1)),
        3: build_patch([(0, 0, 0), (1, 0, 0), (0, 1, 0)], (0, 0, 1), (0, 0, -1)),
    }
    for d, patch in patches.items():
        for family, ks in _CONFORMITY_GRID.items():
            for k in ks:
                if k < FAMILIES[family].floor(d):
                    continue
                res = conformity_check(patch, family, k)
                if not res.passed:
                    failures.append((family, d, k, res.as_dict()))
                elif not res.context.get("negative_control_jumped"):
                    failures.append((family, d, k, "negative control never jumped"))
    _report(6, "conformity patches", failures)


def test_acceptance_7_green_identity():
    failures = []
    for d in (2, 3):
        rng_frame = random_frame(d, random.Random(700 + d))
        for k in (1, 2, 3, 4):
            fr = rng_frame if k <= 2 else reference_simplex(d)
            res = green_identity_check(fr, k, k, samples=20, seed=70 + 10 * d + k)
            if not res.passed:
                failures.append((d, k, res.as_dict()))
    _report(7, "green identity", failures)


def test_acceptance_8_surjectivity_images():
    failures = []
    for d in (2, 3):
        fr = reference_simplex(d)
        for k in (1, 2, 3):
            img = image_space("div_rowwise", build_standard(fr, "P_sym", k + 1))
            if not space_equal(img, build_standard(fr, "P_vector", k)):
                failures.append(("div-sym-onto", d, k))
        for k in (2, 3):
            img = image_space("div_rowwise", bubble_space(fr, "div_sym", k))
            p = build_standard(fr, "P_vector", k - 1)
            rm = build_standard(fr, "RM", 0)
            if not space_equal(img, orthocomplement_in(p, rm)):
                failures.append(("div-bubble-sym-image", d, k))
        k = 3
        plus = build_element(fr, "DivDivPlus", k)
        minus = build_element(fr, "DivDivPlusMinus", k)
        if not space_equal(
            image_space("divdiv", plus.space), build_standard(fr, "P_scalar", k - 2)
        ):
            failures.append(("divdiv-image-plus", d, k))
        if not space_equal(
            image_space("divdiv", minus.space), build_standard(fr, "P_scalar", k - 1)
        ):
            failures.append(("divdiv-image-enriched", d, k))
    _report(8, "surjectivity and images", failures)
