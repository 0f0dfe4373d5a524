import hashlib
import json
import random
from argparse import Namespace
from fractions import Fraction

import pytest

from femforge import conformity
from femforge.conformity import (
    SameSideApexesError,
    SharedChartMismatchError,
    build_patch,
    conformity_check,
    green_form,
    green_identity_check,
    green_residual,
    reflected_patch,
)
from femforge.poly import Polynomial, koszul_xxT
from femforge.integrate import pair_simplex
from femforge.simplex import DegenerateSimplexError, SimplexFrame, random_frame, reference_simplex
from femforge.spaces import build_standard, divdiv_splits, split_bubble
from reference import div_rowwise, divdiv, grad, hess


def _random_poly(rng, d, kind, k):
    terms = {}
    for c in range(poly.ncomp(kind, d)):
        for exps in poly.monomials(d, k):
            coeff = rng.randint(-5, 5)
            if coeff:
                terms[(c, exps)] = Fraction(coeff)
    return Polynomial(d, kind, terms)


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


@pytest.mark.parametrize("d", [2, 3])
def test_reflected_patch_reuses_the_frame(d):
    frame = random_frame(d, random.Random(40 + d))
    patch = reflected_patch(frame)
    assert patch.left is frame
    assert patch.right.vertices[:d] == frame.vertices[:d]
    assert frame.lambdas[d].evaluate(patch.right.vertices[d]) == -1
    assert patch.shared_left.origin == patch.shared_right.origin
    assert patch.shared_left.tangents == patch.shared_right.tangents


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


# -- differential tests against polynomial trace extraction ---------------------
#
# The reference restricts each trace of one polynomial to the face; the
# library multiplies face trace matrices with coefficient vectors.

from femforge import poly  # noqa: E402
from femforge.elements import FAMILIES, FamilySpec, apply_dof, build_element  # noqa: E402
from femforge.exact import Matrix  # noqa: E402
from femforge.simplex import surface_div  # noqa: E402


def _ref_dot(v, a):
    d = v.d
    return sum((v.component(t).scale(a[t]) for t in range(d) if a[t]), Polynomial.zero(d))


def _ref_taug(tau, g):
    d = tau.d
    return Polynomial.vector_from(
        [sum((tau.entry(i, j).scale(g[j]) for j in range(d) if g[j]), Polynomial.zero(d))
         for i in range(d)]
    )


def reference_jump_traces(face, tau, mode):
    """The traces of tau on the face, paired with the face's scaled normal g."""
    g = face.normal_frame[0]
    d = tau.d
    if mode == "vector_normal":
        return [face.restrict(_ref_dot(tau, g))]
    if mode == "tensor_normal":
        taug = _ref_taug(tau, g)
        return [face.restrict(taug.component(t)) for t in range(d)]
    if mode == "normal_normal":
        return [face.restrict(_ref_dot(_ref_taug(tau, g), g))]
    if mode == "normal_div":
        return [face.restrict(_ref_dot(div_rowwise(tau), g))]
    if mode == "combo":
        return [face.restrict(_ref_dot(div_rowwise(tau), g)) + surface_div(face, _ref_taug(tau, g))]
    if mode == "tangential":
        field = tau if tau.kind == "vector" else _ref_taug(tau, g)
        return [face.restrict(_ref_dot(field, tan)) for tan in face.tangents]
    if mode == "tangential_tangential":
        tan = face.tangents[0]
        return [face.restrict(_ref_dot(_ref_taug(tau, tan), tan))]
    raise ValueError(mode)


_MODES = {
    "vector": ("vector_normal", "tangential"),
    "sym": ("tensor_normal", "normal_normal", "normal_div", "combo", "tangential",
            "tangential_tangential"),
}


@pytest.mark.parametrize("kind", sorted(_MODES))
@pytest.mark.parametrize("d,k", [(2, 0), (2, 3), (3, 2)])
def test_face_traces_match_polynomial_reference(kind, d, k):
    rng = random.Random(17 * d + k)
    fr = random_frame(d, rng)
    taus = [_random_poly(rng, d, kind, k) for _ in range(3)]
    coeffs = poly.coeff_matrix(taus, k)
    for face in fr.faces(1):
        for mode in _MODES[kind]:
            chart_k, mats = face.traces(kind, k, mode)
            got = [[poly.from_coeff_vector(face.dim, "scalar", chart_k, t.matmul(coeffs).column(j))
                    for t in mats] for j in range(len(taus))]
            expected = [[Polynomial(face.dim, "scalar", {(0, e): v for (_, e), v in p.terms.items()})
                         for p in reference_jump_traces(face, tau, mode)] for tau in taus]
            assert got == expected, (mode, face.vertex_ids)


# sha256 of the failure record of _replay_conformity_failure on patch2, one
# per family; each comes from the right element's whole DoF system
# (conformity._full_solve_check)
_FAILURE_RECORDS = {
    "BDM": "839dba81cf3c9d52a9da23225c0ea7000146328e69023eb6b79236f6ad444ebb",
    "HdivS": "e71793638e580d98bc5dbaf6529f5a9d9cf56b3fb6c798d5512c0dda1e081a5f",
    "DivDiv": "9c845ab709afba6d64ba5c108e00a86c9ba19eae84a8c323a7866dc172502a9a",
}


def _replay_conformity_failure(patch, monkeypatch, family, k):
    # declaring the negative control conforming must fail with a witness
    spec = FAMILIES[family]
    control = conformity._NEGATIVE_CONTROL[spec.trace_modes[0]]
    fake = FamilySpec(spec.name, spec.shape, spec.faces, spec.interior, spec.floor, spec.trace_modes + (control,))
    monkeypatch.setitem(FAMILIES, family, fake)
    res = conformity_check(patch, family, k)
    assert not res.passed
    # the whole record pinned: no golden report reaches the full solve
    record = json.dumps(res.as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(record).hexdigest() == _FAILURE_RECORDS[family]
    assert res.context["jump_mode"] == control
    jump = poly.poly_from_json(res.context["jump"])
    assert not jump.is_zero()
    # replay: the left member minus the right function matching its shared
    # DoFs one member at a time, traced by the polynomial reference
    left = conformity.build_element(patch.left, family, k)
    right = conformity.build_element(patch.right, family, k)
    member = left.space.members()[res.context["member"]]
    d = patch.left.d

    def on_shared(dof):
        return dof.shared and (dof.vertex < d if dof.face is None else d not in dof.face.vertex_ids)

    rhs = [apply_dof(patch.right, dof, member) if on_shared(dof) else 0 for dof in right.dofs]
    coeffs = right.space.basis.matmul(right.dof_matrix.solve(Matrix.from_columns([rhs])))
    tau_r = poly.from_coeff_vector(d, right.space.kind, right.space.k, coeffs.column(0))
    jumps = [a - b for a, b in zip(reference_jump_traces(patch.shared_left, member, control),
                                   reference_jump_traces(patch.shared_left, tau_r, control))]
    first = next(p for p in jumps if not p.is_zero())
    assert jump == Polynomial(d - 1, "scalar", {(0, e): v for (_, e), v in first.terms.items()})


def test_conformity_failure_carries_a_replayable_jump(patch2, monkeypatch):
    # one vector, one HdivS-type and one DivDiv-type family
    for family, k in (("BDM", 1), ("HdivS", 2), ("DivDiv", 3)):
        _replay_conformity_failure(patch2, monkeypatch, family, k)


def _run_element_cell(family, d, k):
    """One element cell of the CLI grid on the reference simplex, through the
    CLI's cell runner; the frame caches it fills are cleared afterwards."""
    from femforge import cli

    try:
        return cli._run_task(("elem", family, d, k), Namespace(simplex="ref", seed=0))
    finally:
        cli._fixed_frame.cache_clear()
        cli._fixed_patch.cache_clear()


def test_cell_checks_build_one_element_per_simplex(monkeypatch):
    from femforge import cli

    built = []

    def counting(frame, family, k):
        built.append(frame)
        return build_element(frame, family, k)

    monkeypatch.setattr(cli, "build_element", counting)
    monkeypatch.setattr(conformity, "build_element", counting)
    out = _run_element_cell("HdivS", 2, 2)
    assert [res.passed for *_, res in out] == [True, True, True]
    assert len(built) == 1


# -- the shared-block patch check against the full DoF solve ----------------------
#
# The reference solves the right element's whole DoF system (the shared DoFs
# on the face matched, every other DoF zero); the library solves the right
# side's shared DoF block and certifies ker S_R, falling back to the full
# solve for every outcome but a pass.

import dataclasses  # noqa: E402

from femforge.elements import _change_of_basis, _dof_matrix, _first_nonzero_trace  # noqa: E402
from femforge.exact import DimensionMismatchError, SingularMatrixError, rref_kernel  # noqa: E402
from femforge.report import CheckResult  # noqa: E402


def _right_shared(patch, spec, k):
    return [dof for dof in spec.faces(patch.right, k) if dof.shared]


def reference_conformity_check(patch, family, k):
    spec = FAMILIES[family]
    left = build_standard(patch.left, spec.shape, k)
    right_e = build_element(patch.right, family, k)
    d = patch.left.d
    on_shared = [i for i, dof in enumerate(right_e.dofs) if dof.shared and (
        dof.vertex < d if dof.face is None else d not in dof.face.vertex_ids)]
    kind, k_frame = left.kind, left.k
    shared_dofs = [right_e.dofs[i] for i in on_shared]
    matched = _dof_matrix(patch.right, shared_dofs, kind, k_frame).matmul(left.basis)
    rows = [[Fraction(0)] * left.dim for _ in right_e.dofs]
    for r, i in enumerate(on_shared):
        rows[i] = matched.row(r)
    ctx = {"family": family, "d": d, "k": k, "members": left.dim}
    try:
        sol = right_e.dof_matrix.solve(Matrix(rows, left.dim))
    except (SingularMatrixError, DimensionMismatchError):
        return CheckResult(f"conformity-{family}", False, expected="unisolvent right element",
                           got=right_e.dof_matrix.rank(), context=ctx)
    jumps = left.basis - right_e.space.basis.matmul(sol)
    face = patch.shared_left
    control_mode = conformity._NEGATIVE_CONTROL[spec.trace_modes[0]]
    hit = _first_nonzero_trace([face], kind, k_frame, spec.trace_modes, jumps)
    if hit is not None:
        j, mode, jump = hit
        ctx.update(jump_mode=mode, member=j, jump=poly.poly_to_json(jump))
        return CheckResult(f"conformity-{family}", False, expected="zero jump", got=mode, context=ctx)
    control_jumped = _first_nonzero_trace([face], kind, k_frame, (control_mode,), jumps) is not None
    ctx.update(negative_control=control_mode, negative_control_jumped=control_jumped)
    if not control_jumped:
        return CheckResult(f"conformity-{family}", False,
                           expected="non-conforming component jumps for some member",
                           got="all controls zero", context=ctx)
    return CheckResult(f"conformity-{family}", True, context=ctx)


def _patch_cases():
    for family, spec in FAMILIES.items():
        floor2 = spec.floor(2)
        for k in (floor2, floor2 + 1):
            yield pytest.param(family, 2, k, None, id=f"{family}-d2-k{k}-ref")
            yield pytest.param(family, 2, k, 60 + k, id=f"{family}-d2-k{k}-random")
        yield pytest.param(family, 3, spec.floor(3), 63, id=f"{family}-d3-k{spec.floor(3)}-random")


@pytest.mark.parametrize("family,d,k,seed", _patch_cases())
def test_shared_block_check_matches_full_solve(family, d, k, seed):
    frame = reference_simplex(d) if seed is None else random_frame(d, random.Random(seed))
    patch = reflected_patch(frame)
    res = conformity_check(patch, family, k)
    assert res.passed
    assert res.as_dict() == reference_conformity_check(patch, family, k).as_dict()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_shared_block_solution_solves_the_shared_rows(family):
    # S sol = rhs: sol matches the left members' DoFs on the shared face and
    # zeroes the right side's other shared DoFs, and it lies in the right
    # shape space
    patch = reflected_patch(random_frame(2, random.Random(64)))
    spec = FAMILIES[family]
    k = spec.floor(2) + 1
    left, right = build_standard(patch.left, spec.shape, k), build_standard(patch.right, spec.shape, k)
    sol = conformity._shared_block_solution(patch, spec, left, right, k, _right_shared(patch, spec, k))
    shared = [dof for dof in spec.dofs(patch.right, k) if dof.shared]
    rows = _dof_matrix(patch.right, shared, right.kind, right.k)
    on_face = rows.take([i if conformity._on_shared_face(dof, 2) else None for i, dof in enumerate(shared)])
    assert (sol.rows, sol.cols) == (right.basis.rows, left.dim)
    assert rows.matmul(sol) == on_face.matmul(left.basis)
    assert right.basis.hstack(sol).rank() == right.dim


def reference_shared_block_solution(patch, spec, left, right, k):
    """The shared-block solution through products with G_s: one RREF of
    [S (basis G_s) | rhs] with every right-hand side, the zero ones too, and
    the kernel's traces taken as monomial traces of (basis G_s) K."""
    d = patch.left.d
    shared = [dof for dof in spec.dofs(patch.right, k) if dof.shared]
    rows = _dof_matrix(patch.right, shared, right.kind, right.k)
    on_face = rows.take([i if conformity._on_shared_face(dof, d) else None for i, dof in enumerate(shared)])
    n = right.dim
    basis = right.basis.matmul(_change_of_basis(right, k))
    red, pivots = rows.matmul(basis).hstack(on_face.matmul(left.basis)).rref()
    if pivots and pivots[-1] >= n:
        return None
    row_of = {pc: r for r, pc in enumerate(pivots)}
    sol = red.take([row_of.get(c) for c in range(n)], n)
    coeffs = basis.matmul(rref_kernel(red, pivots, n))
    if any(not t.matmul(coeffs).is_zero() for mode in spec.trace_modes
           for t in patch.shared_left.traces(right.kind, right.k, mode)[1]):
        return None
    return basis.matmul(sol)


_BLOCK_CELLS = [(fam, 2, FAMILIES[fam].floor(2) + step) for fam in sorted(FAMILIES) for step in (0, 1)]
_BLOCK_CELLS += [(fam, 3, FAMILIES[fam].floor(3)) for fam in ("BDM", "RT", "HdivS", "DivDiv")]


@pytest.mark.parametrize("family,d,k", _BLOCK_CELLS)
def test_shared_block_solution_equals_the_product_route(family, d, k):
    # the same right coefficients without the zero right-hand sides in the
    # RREF and without a product by G_s
    patch = reflected_patch(random_frame(d, random.Random(64 + d)))
    spec = FAMILIES[family]
    left, right = build_standard(patch.left, spec.shape, k), build_standard(patch.right, spec.shape, k)
    sol = conformity._shared_block_solution(patch, spec, left, right, k, _right_shared(patch, spec, k))
    assert sol is not None
    assert sol == reference_shared_block_solution(patch, spec, left, right, k)


def test_zero_right_hand_sides_are_members_without_dofs_on_the_face():
    # on the d=3 DivDiv k=3 patch some left members have no DoF on the shared
    # face; their right function is zero
    patch = reflected_patch(reference_simplex(3))
    spec = FAMILIES["DivDiv"]
    left, right = build_standard(patch.left, spec.shape, 3), build_standard(patch.right, spec.shape, 3)
    shared = [dof for dof in spec.dofs(patch.right, 3) if dof.shared]
    on_face = _dof_matrix(patch.right, [dof for dof in shared if conformity._on_shared_face(dof, 3)],
                          right.kind, right.k).matmul(left.basis)
    zero = [j for j in range(left.dim) if not any(on_face.column(j))]
    assert 0 < len(zero) < left.dim
    sol = conformity._shared_block_solution(patch, spec, left, right, 3, _right_shared(patch, spec, 3))
    assert all(not any(sol.column(j)) for j in zero)
    assert sol == reference_shared_block_solution(patch, spec, left, right, 3)


@pytest.fixture
def fallbacks(monkeypatch):
    """The (family, k) of every full-solve fallback of conformity_check."""
    seen = []
    full = conformity._full_solve_check

    def spy(patch, family, k):
        seen.append((family, k))
        return full(patch, family, k)

    monkeypatch.setattr(conformity, "_full_solve_check", spy)
    return seen


@pytest.mark.parametrize("family,k", [("BDM", 2), ("HdivS", 2), ("HdivS_minus", 2), ("DivDiv", 3)])
def test_passing_patch_builds_no_right_element(monkeypatch, family, k):
    def forbidden(*args):
        raise AssertionError("right element built on a passing cell")

    solved = []
    solve = Matrix.solve

    def recording(m, b):
        solved.append(m.rows)
        return solve(m, b)

    patch = reflected_patch(random_frame(2, random.Random(7)))
    monkeypatch.setattr(conformity, "build_element", forbidden)
    monkeypatch.setattr(Matrix, "solve", recording)
    assert conformity_check(patch, family, k).passed
    # no solve with the right DoF matrix (square, one row per shape function)
    assert build_standard(patch.right, FAMILIES[family].shape, k).dim not in solved


@pytest.mark.parametrize("family,k", [("BDM", 2), ("HdivS_minus", 2), ("DivDivPlus", 3), ("DivDiv", 3)])
def test_passing_patch_builds_no_right_interior_tests(monkeypatch, family, k):
    # the right side's shared DoFs are all face DoFs: a passing cell builds
    # none of the interior test spaces on the right frame
    from femforge import spaces

    patch = reflected_patch(random_frame(2, random.Random(7)))
    for frame in (patch.left, patch.right):
        build_standard(frame, FAMILIES[family].shape, k)
    built = []

    def spy(name, frame_of):
        # record the frame of each call that builds an interior test space
        fn = getattr(spaces, name)

        def recording(*args):
            built.append((name, frame_of(*args)))
            return fn(*args)
        monkeypatch.setattr(spaces, name, recording)

    spy("orthocomplement_in", lambda parent, sub: parent.frame)
    spy("ker_mat_x_sym", lambda frame, deg: frame)
    spy("image_space", lambda op, src: src.frame if op == "def" else None)
    spy("build_standard", lambda frame, tag, deg: frame if tag == "ND" else None)
    assert conformity_check(patch, family, k).passed
    assert [name for name, frame in built if frame is patch.right] == []
    # the spies see the interior tests of the right element's DoF list
    FAMILIES[family].dofs(patch.right, k)
    assert [name for name, frame in built if frame is patch.right]


def _with_spec(monkeypatch, family, **changes):
    monkeypatch.setitem(FAMILIES, family, dataclasses.replace(FAMILIES[family], **changes))
    return FAMILIES[family]


def test_inconsistent_shared_block_falls_back(fallbacks):
    # a right shape space of one degree less cannot match the left traces,
    # and its DoF matrix is not square
    patch = reflected_patch(reference_simplex(2))
    spec = FAMILIES["BDM"]
    # the right frame's P_2 shape space is the degree-1 space padded to degree 2
    patch.right._space_cache[("P_vector", 2)] = build_standard(patch.right, "P_vector", 1).with_degree(2)
    left, right = build_standard(patch.left, spec.shape, 2), build_standard(patch.right, spec.shape, 2)
    assert conformity._shared_block_solution(patch, spec, left, right, 2, _right_shared(patch, spec, 2)) is None
    res = conformity_check(patch, "BDM", 2)
    assert fallbacks == [("BDM", 2)]
    assert res.as_dict() == reference_conformity_check(patch, "BDM", 2).as_dict()
    assert (res.passed, res.expected, res.got) == (False, "unisolvent right element", right.dim)


@pytest.mark.parametrize("family,k", [("BDM", 2), ("HdivS", 2), ("DivDiv", 3)])
def test_kernel_with_a_trace_falls_back(monkeypatch, fallbacks, family, k):
    # one shared DoF on the shared face declared interior: ker S_R then holds
    # a function with a nonzero declared trace on the face
    faces = FAMILIES[family].faces

    def one_on_face_interior(fr, k):
        out = faces(fr, k)
        i = next(i for i, dof in enumerate(out)
                 if dof.shared and dof.face is not None and fr.d not in dof.face.vertex_ids)
        out[i] = dataclasses.replace(out[i], shared=False)
        return out

    spec = _with_spec(monkeypatch, family, faces=one_on_face_interior)
    patch = reflected_patch(random_frame(2, random.Random(8)))
    left, right = build_standard(patch.left, spec.shape, k), build_standard(patch.right, spec.shape, k)
    assert conformity._shared_block_solution(patch, spec, left, right, k, _right_shared(patch, spec, k)) is None
    res = conformity_check(patch, family, k)
    assert fallbacks == [(family, k)]
    assert not res.passed and "jump" in res.context
    assert res.as_dict() == reference_conformity_check(patch, family, k).as_dict()


@pytest.mark.parametrize("family,k", [("BDM", 1), ("HdivS", 2), ("DivDiv", 3)])
def test_control_without_a_jump_falls_back(monkeypatch, fallbacks, family, k):
    # a declared trace as the negative control never jumps
    mode = FAMILIES[family].trace_modes[0]
    monkeypatch.setitem(conformity._NEGATIVE_CONTROL, mode, mode)
    patch = reflected_patch(reference_simplex(2))
    res = conformity_check(patch, family, k)
    assert fallbacks == [(family, k)]
    assert (res.passed, res.got) == (False, "all controls zero")
    assert res.as_dict() == reference_conformity_check(patch, family, k).as_dict()


@pytest.mark.parametrize("family,rank", [("BDM", 11), ("HdivS", 17)])
def test_singular_right_element_is_a_fail_record(monkeypatch, family, rank):
    # the last DoF, an interior moment, replaced by the first, a face DoF:
    # the right DoF matrix is singular
    spec = FAMILIES[family]
    kind, tests, shift, label = spec.interior[-1]

    def duplicated(fr, k):
        out = spec.faces(fr, k)
        return out + out[:1]

    def one_less(fr, deg):
        return tests(fr, deg)[:-1]

    _with_spec(monkeypatch, family, faces=duplicated, interior=spec.interior[:-1] + ((kind, one_less, shift, label),))
    patch = reflected_patch(reference_simplex(2))
    res = conformity._full_solve_check(patch, family, 2)
    assert (res.passed, res.expected, res.got) == (False, "unisolvent right element", rank)
    assert res.as_dict() == reference_conformity_check(patch, family, 2).as_dict()
    # the shared block still forces the traces; a forced fallback reports the
    # singular system instead of raising
    assert conformity_check(patch, family, 2).passed
    mode = FAMILIES[family].trace_modes[0]
    monkeypatch.setitem(conformity._NEGATIVE_CONTROL, mode, mode)
    assert conformity_check(patch, family, 2).as_dict() == res.as_dict()
    # and the grid cell reports instead of crashing
    out = _run_element_cell(family, 2, 2)
    assert [res.check_id for *_, res in out][0] == f"unisolvence-{family}"
    assert not out[0][3].passed


# -- HdivS_minus: the patch check on P_k(S), without the right side's enrichment ---
#
# Every shared DoF and every declared trace vanishes on the bubble generators
# that span the enrichment W, so the right side's shared block is solved on
# P_k(S) written at degree k + 1; the reports are those of the catalog space.

_MINUS_CELLS = [pytest.param(d, k, seed, id=f"d{d}-k{k}-{'ref' if seed is None else 'random'}")
                for d, ks in ((2, (2, 3, 4)), (3, (2, 3, 4)), (4, (2,))) for k in ks
                for seed in (None, 90 + 10 * d + k)]


@pytest.mark.parametrize("d,k,seed", _MINUS_CELLS)
def test_minus_patch_without_the_right_enrichment(fallbacks, d, k, seed):
    frame = reference_simplex(d) if seed is None else random_frame(d, random.Random(seed))
    patch = reflected_patch(frame)
    res = conformity_check(patch, "HdivS_minus", k)
    assert res.passed and fallbacks == []
    # no enrichment, and so no catalog P_minus_sym, on the right frame
    assert ("enrichment", k) not in patch.right._space_cache
    assert ("P_minus_sym", k) not in patch.right._space_cache
    assert res.as_dict() == reference_conformity_check(patch, "HdivS_minus", k).as_dict()


def test_minus_right_space_is_p_k_at_degree_k_plus_1():
    patch = reflected_patch(random_frame(3, random.Random(95)))
    spec = FAMILIES["HdivS_minus"]
    right = conformity._right_space(patch, spec, _right_shared(patch, spec, 3), 3)
    assert (right.k, right.basis) == (4, build_standard(patch.right, "P_sym", 3).with_degree(4).basis)
    # the other families keep their catalog space
    for family in ("HdivS", "HdivS_split", "DivDivMinus"):
        spec = FAMILIES[family]
        k = spec.floor(3)
        right = conformity._right_space(patch, spec, _right_shared(patch, spec, k), k)
        assert right is build_standard(patch.right, spec.shape, k)


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2)])
def test_minus_generator_seen_by_a_shared_dof_keeps_the_catalog_space(monkeypatch, fallbacks, d, k):
    # a generator of degree k + 1 with a vertex value is seen by the shared
    # DoFs: the identity fails, and the check solves on the catalog space
    patch = reflected_patch(reference_simplex(d))
    catalog = build_standard(patch.right, "P_minus_sym", k)
    expected = reference_conformity_check(patch, "HdivS_minus", k).as_dict()
    generators = conformity.bubble_generator_bernstein

    def with_a_vertex_value(frame, kind, j):
        gens = generators(frame, kind, j)
        # every component of the last Bernstein function, a vertex power lambda_i^j
        nc = poly.ncomp(kind, frame.d)
        return gens.hstack(Matrix.identity(gens.rows).take(range(gens.rows), gens.rows - nc))

    solved_on = []
    solution = conformity._shared_block_solution

    def recording(patch, spec, left, right, k, shared):
        solved_on.append(right)
        return solution(patch, spec, left, right, k, shared)

    monkeypatch.setattr(conformity, "bubble_generator_bernstein", with_a_vertex_value)
    monkeypatch.setattr(conformity, "_shared_block_solution", recording)
    res = conformity_check(patch, "HdivS_minus", k)
    assert solved_on == [catalog] and fallbacks == []
    assert res.as_dict() == expected


# -- the Green identity against its polynomial evaluation -------------------------
#
# The reference restricts and multiplies every face and edge integrand of one
# (tau, v) pair; the library pairs coefficient vectors through green_form.

from femforge.integrate import chart_mass, integrate_face  # noqa: E402


def reference_green_terms(frame, tau, v):
    """The four groups of the grouped scaled-normal identity (see the
    conformity module docstring), each integrated polynomial by polynomial."""
    d = frame.d
    c = frame.jac_factor
    volume = pair_simplex(frame, divdiv(tau), v) - pair_simplex(frame, tau, hess(v))
    edge = normal_normal = combo = Fraction(0)
    grad_v = grad(v)
    div_tau = div_rowwise(tau)
    edges = {f.vertex_ids: f for f in frame.faces(2)}
    for i in range(d + 1):
        face = frame.face_opposite(i)
        gi = face.normal_frame[0]
        taugi = _ref_taug(tau, gi)
        for j in range(d + 1):
            if j == i:
                continue
            mij = conformity._projected_normal(frame, i, j)
            e = edges[tuple(sorted(set(range(d + 1)) - {i, j}))]
            edge += c * integrate_face(e, e.restrict(poly.multiply(_ref_dot(taugi, mij), v)))
        gg = sum(a * a for a in gi)
        nn = poly.multiply(_ref_dot(taugi, gi), _ref_dot(grad_v, gi))
        normal_normal += c / gg * integrate_face(face, face.restrict(nn))
        integrand = face.restrict(poly.multiply(_ref_dot(div_tau, gi), v)) + poly.multiply(
            surface_div(face, taugi), face.restrict(v)
        )
        combo -= c * integrate_face(face, integrand)
    return {"volume": volume, "edge": edge, "normal_normal": normal_normal, "combo": combo}


def reference_green_residual(frame, tau, v):
    return sum(reference_green_terms(frame, tau, v).values())


def _trace_green_terms(frame, tau, k_tau, v, k_v):
    """The boundary groups of the identity from Face.trace matrices alone."""
    d = frame.d
    c = frame.jac_factor
    t = Matrix.from_columns([poly.coeff_vector(tau, k_tau)])
    s = Matrix.from_columns([poly.coeff_vector(v, k_v)])
    k_g = max(k_v - 1, 0)
    gs = Matrix.from_columns([poly.coeff_vector(grad(v), k_g)])

    def paired(face, left, k_left, right, k_right):
        # chart integral of the product of two chart coefficient columns
        return left.transpose().matmul(chart_mass(face.dim, k_left, k_right)).matmul(right)[0, 0]

    edges = {f.opposite_ids: f for f in frame.faces(2)}
    out = {"edge": Fraction(0), "normal_normal": Fraction(0), "combo": Fraction(0)}
    for i in range(d + 1):
        face = frame.face_opposite(i)
        g = face.normal_frame[0]
        for j in range(d + 1):
            if j != i:
                e = edges[tuple(sorted((i, j)))]
                mij = conformity._projected_normal(frame, i, j)
                out["edge"] += c * paired(e, e.trace("sym", k_tau, mij, g).matmul(t), k_tau,
                                          e.trace("scalar", k_v, (1,)).matmul(s), k_v)
        gg = sum(a * a for a in g)
        out["normal_normal"] += c / gg * paired(face, face.trace("sym", k_tau, g, g).matmul(t), k_tau,
                                                face.trace("vector", k_g, g).matmul(gs), k_g)
        chart_k, (combo,) = face.traces("sym", k_tau, "combo")
        out["combo"] -= c * paired(face, combo.matmul(t), chart_k,
                                   face.trace("scalar", k_v, (1,)).matmul(s), k_v)
    return out


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_green_form_is_zero(d, k):
    # B == 0 proves the identity for every tau of degree <= k and v of degree <= k
    for fr in (reference_simplex(d), random_frame(d, random.Random(50 + 10 * d + k))):
        assert green_form(fr, k, k).is_zero()


@pytest.mark.parametrize("d", [2, 3])
def test_green_form_mixed_degrees_is_zero(d):
    fr = random_frame(d, random.Random(70 + d))
    assert green_form(fr, 3, 1).is_zero()
    assert green_form(fr, 1, 3).is_zero()


@pytest.mark.parametrize("d,k_tau,k_v", [(2, 3, 2), (2, 2, 4), (3, 2, 3)])
def test_green_residual_matches_polynomial_reference(d, k_tau, k_v):
    rng = random.Random(80 + d + k_tau + k_v)
    fr = random_frame(d, rng)
    for _ in range(3):
        tau = _random_poly(rng, d, "sym", k_tau)
        v = _random_poly(rng, d, "scalar", k_v)
        assert green_residual(fr, tau, v) == reference_green_residual(fr, tau, v)


@pytest.mark.parametrize("d", [2, 3])
def test_green_trace_terms_match_reference_and_are_nonzero(d):
    # each boundary group built from Face.trace equals its polynomial integral
    # and is nonzero, so a zero residual is not a sum of vanishing terms
    rng = random.Random(90 + d)
    fr = random_frame(d, rng)
    k_tau, k_v = 3, 2
    tau = _random_poly(rng, d, "sym", k_tau)
    v = _random_poly(rng, d, "scalar", k_v)
    ref = reference_green_terms(fr, tau, v)
    got = _trace_green_terms(fr, tau, k_tau, v, k_v)
    for name, value in got.items():
        assert value == ref[name], name
        assert value != 0, name
    assert ref["volume"] != 0
    assert sum(ref.values()) == 0


# -- the Green check: B == 0 passes unsampled, a nonzero B always fails ----------


@pytest.fixture
def pairs(monkeypatch):
    """The pairings of a form with a polynomial pair, as they are made."""
    seen = []
    pair = conformity._pair

    def spy(*args):
        seen.append(args)
        return pair(*args)

    monkeypatch.setattr(conformity, "_pair", spy)
    return seen


@pytest.mark.parametrize("d", [2, 3])
def test_zero_green_form_passes_unsampled(pairs, d):
    fr = random_frame(d, random.Random(110 + d))
    res = green_identity_check(fr, 2, 2, samples=20, seed=5)
    assert res.passed and pairs == []
    # the sample budget stays in the record
    assert (res.context["samples"], res.context["seed"]) == (20, 5)


def _perturbed_green_form(monkeypatch, i, j, value):
    form = conformity.green_form

    def perturbed(frame, k_tau, k_v):
        b = form(frame, k_tau, k_v)
        rows = [list(b.row(r)) for r in range(b.rows)]
        rows[i][j] += value
        return Matrix(rows, b.cols)

    monkeypatch.setattr(conformity, "green_form", perturbed)


@pytest.mark.parametrize("samples,seed", [(0, 0), (20, 4)])
def test_nonzero_green_form_fails_with_its_first_nonzero_entry(monkeypatch, pairs, samples, seed):
    # whatever the sample budget, the witness is the first nonzero entry of B
    # in row order: a monomial pair (tau, v) and its residual, with no pairing
    fr = reference_simplex(2)
    _perturbed_green_form(monkeypatch, 9, 0, Fraction(2))
    _perturbed_green_form(monkeypatch, 7, 2, Fraction(-3, 5))
    res = green_identity_check(fr, 2, 1, samples=samples, seed=seed)
    assert (res.passed, res.expected, res.got) == (False, 0, Fraction(-3, 5)) and pairs == []
    assert (res.context["samples"], res.context["seed"]) == (samples, seed)
    tau, v = poly.poly_from_json(res.context["tau"]), poly.poly_from_json(res.context["v"])
    assert list(tau.terms) == [poly.frame("sym", 2, 2)[7]] and list(v.terms) == [poly.frame("scalar", 2, 1)[2]]
    assert conformity._pair(conformity.green_form(fr, 2, 1), tau, 2, v, 1) == Fraction(-3, 5)
