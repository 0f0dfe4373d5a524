"""Two-simplex patch conformity checks and the divdiv Green's identity.

Patch test
----------
Both simplices of a patch list the shared face's vertices first, in the same
order, so the canonical chart of the shared face is bit-identical from either
side.  For each left shape function, the right element's shape function is
solved for by matching every right DoF that lives on the shared face (applied
directly to the left function; all other right DoFs are set to zero).  The
family's declared traces must then agree exactly as chart polynomials, while
a designated non-conforming component must jump for at least one pair (the
negative control that guards against vacuous passes).  The jumps of all
members are one product per trace: the shared face's trace matrix times the
left minus the right shape coefficients.  A failure reports the first
nonzero jump as a chart polynomial.

All jumps are formed with one fixed covector: the left element's scaled
normal g.  Since the right element's outward scaled normal is a negative
rational multiple of g, agreement of the g-paired traces is equivalent to the
unit-normal continuity statements.

Green's identity (grouped scaled-normal form)
---------------------------------------------
With g_i = -grad(lambda_i) the scaled outward normal of face F_i,
m_ij = proj_{F_i}(g_j) the scaled outward normal of edge F_i cap F_j inside
F_i, and all face/edge integrals taken in canonical chart measure, the
surface measure and normalization factors collapse per face to the single
constant C = d!|K|:

  sqrt(det G_F) / |g_i|          = C        (codim-1 faces)
  sqrt(det G_e) / (|m_ij| |g_i|) = C        (codim-2 edges)

because sqrt(det G_F) = (d-1)!vol(F), |g_i| = 1/dist(x_i, F_i), and
analogously one dimension down.  Therefore

  (divdiv tau, v)_K - (tau, hess v)_K
    + C * sum_i sum_{j != i} int_{chart(e_ij)} (m_ij^T tau g_i) v
    + C * sum_i (g_i . g_i)^-1 int_{chart(F_i)} (g_i^T tau g_i)(g_i . grad v)
    - C * sum_i int_{chart(F_i)} (g_i . div tau + div_F(tau g_i)) v = 0

holds exactly for all symmetric tau and scalar v, and is what this module
verifies on random rational polynomials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import poly
from .elements import FAMILIES, _dof_rows, _first_nonzero_trace, apply_dof, build_element
from .exact import Matrix
from .integrate import integrate_face, pair_simplex
from .poly import Polynomial
from .report import CheckResult
from .simplex import Face, SimplexFrame, surface_div

_ZERO = Fraction(0)


class SameSideApexesError(ValueError):
    """Raised when the two apexes lie on the same side of the shared face."""


class SharedChartMismatchError(ValueError):
    """Raised when the two sides derive different charts for the shared face."""


@dataclass
class Patch:
    left: SimplexFrame
    right: SimplexFrame
    shared_left: Face
    shared_right: Face


def build_patch(shared_face_vertices, apex_left, apex_right) -> Patch:
    """Glue two simplices along the face spanned by the given d vertices."""
    left = SimplexFrame(list(shared_face_vertices) + [apex_left])
    right = SimplexFrame(list(shared_face_vertices) + [apex_right])
    d = left.d
    plane = left.lambdas[d]
    side = plane.evaluate([Fraction(x) for x in apex_right])
    if side > 0:
        raise SameSideApexesError("apexes lie on the same side of the shared face")
    shared_left = left.face_opposite(d)
    shared_right = right.face_opposite(d)
    if shared_left.origin != shared_right.origin or shared_left.tangents != shared_right.tangents:
        raise SharedChartMismatchError("the two sides chart the shared face differently")
    return Patch(left, right, shared_left, shared_right)


def _vec_dot_g(v: Polynomial, g) -> Polynomial:
    acc = Polynomial.zero(v.d)
    for t in range(v.vdim):
        if g[t]:
            acc = acc + v.component(t).scale(g[t])
    return acc


def _taug_fixed(tau: Polynomial, g) -> Polynomial:
    d = tau.d
    comps = []
    for i in range(d):
        acc = Polynomial.zero(d)
        for j in range(d):
            if g[j]:
                acc = acc + tau.entry(i, j).scale(g[j])
        comps.append(acc)
    return Polynomial.vector_from(comps)


_NEGATIVE_CONTROL = {
    "BDM": "tangential",
    "RT": "tangential",
    "HdivS": "tangential_tangential",
    "HdivS_split": "tangential_tangential",
    "HdivS_minus": "tangential_tangential",
    "DivDivPlus": "tangential_tangential",
    "DivDivPlusMinus": "tangential_tangential",
    "DivDiv": "tangential",
    "DivDivMinus": "tangential",
}


def conformity_check(patch: Patch, family: str, k: int) -> CheckResult:
    """Single-valued shared DoFs must force exactly the declared traces."""
    left_e = build_element(patch.left, family, k)
    right_e = build_element(patch.right, family, k)
    d = patch.left.d
    spec = FAMILIES[family]

    # right DoFs living on the shared face (its vertices are 0..d-1 on both sides)
    on_shared = []
    for i, dof in enumerate(right_e.dofs):
        if not dof.shared:
            continue
        if dof.kind == "vertex_eval":
            if dof.vertex < d:
                on_shared.append(i)
        elif dof.face is not None and d not in dof.face.vertex_ids:
            on_shared.append(i)

    members = left_e.space.members()
    kind, k_frame = left_e.space.kind, left_e.space.k
    rows = _dof_rows(patch.right, [right_e.dofs[i] for i in on_shared], kind, k_frame)
    rhs_cols = []
    for member in members:
        col = [_ZERO] * len(right_e.dofs)
        for i in on_shared:
            col[i] = apply_dof(patch.right, right_e.dofs[i], member, rows)
        rhs_cols.append(col)
    rhs = Matrix.from_columns(rhs_cols)
    sol = right_e.dof_matrix.solve(rhs)
    # jumps of every member at once: the traces of left minus right coefficients
    jumps = left_e.space.basis - right_e.space.basis.matmul(sol)

    face = patch.shared_left
    control_mode = _NEGATIVE_CONTROL[family]
    ctx = {"family": family, "d": d, "k": k, "members": len(members)}
    hit = _first_nonzero_trace([face], kind, k_frame, spec.trace_modes, jumps)
    if hit is not None:
        j, mode, jump = hit
        ctx["jump_mode"] = mode
        ctx["member"] = j
        ctx["jump"] = poly.poly_to_json(jump)
        return CheckResult(f"conformity-{family}", False, expected="zero jump", got=mode, context=ctx)
    control_jumped = _first_nonzero_trace([face], kind, k_frame, (control_mode,), jumps) is not None
    ctx["negative_control"] = control_mode
    ctx["negative_control_jumped"] = control_jumped
    if not control_jumped:
        return CheckResult(
            f"conformity-{family}",
            False,
            expected="non-conforming component jumps for some member",
            got="all controls zero",
            context=ctx,
        )
    return CheckResult(f"conformity-{family}", True, context=ctx)


# -- Green's identity -----------------------------------------------------------------


def _projected_normal(frame: SimplexFrame, i: int, j: int):
    """m_ij: the scaled outward normal of edge F_i cap F_j within F_i."""
    gi = frame.scaled_normals[i]
    gj = frame.scaled_normals[j]
    gig = sum((a * b for a, b in zip(gi, gi)), _ZERO)
    gij = sum((a * b for a, b in zip(gi, gj)), _ZERO)
    return tuple(b - a * gij / gig for a, b in zip(gi, gj))


def green_residual(frame: SimplexFrame, tau: Polynomial, v: Polynomial) -> Fraction:
    """Exact residual of the grouped scaled-normal divdiv Green's identity."""
    d = frame.d
    c = frame.jac_factor
    res = pair_simplex(frame, poly.divdiv(tau), v) - pair_simplex(frame, tau, poly.hess(v))
    grad_v = poly.grad(v)
    div_tau = poly.div_rowwise(tau)
    edges = {f.vertex_ids: f for f in frame.faces(2)} if d >= 2 else {}
    for i in range(d + 1):
        face = frame.face_opposite(i)
        gi = face.normal_frame[0]
        taugi = _taug_fixed(tau, gi)

        # codim-2 terms: edges of F_i, outward normal m_ij within the face
        for j in range(d + 1):
            if j == i:
                continue
            mij = _projected_normal(frame, i, j)
            edge = edges[tuple(sorted(set(range(d + 1)) - {i, j}))]
            integrand = poly.multiply(_vec_dot_g(taugi, mij), v)
            res += c * integrate_face(edge, edge.restrict(integrand))

        # normal-normal against the normal derivative, with the 1/(g.g) factor
        gg = sum((a * b for a, b in zip(gi, gi)), _ZERO)
        nn = _vec_dot_g(taugi, gi)
        dn = _vec_dot_g(grad_v, gi)
        res += c / gg * integrate_face(face, face.restrict(poly.multiply(nn, dn)))

        # combo trace against v
        combo = face.restrict(poly.multiply(_vec_dot_g(div_tau, gi), v)) + poly.multiply(
            surface_div(face, taugi), face.restrict(v)
        )
        res -= c * integrate_face(face, combo)
    return res


def _random_poly(rng, d: int, kind: str, k: int) -> Polynomial:
    terms = {}
    for c in range(poly.ncomp(kind, d)):
        for exps in poly.monomials(d, k):
            coeff = rng.randint(-5, 5)
            if coeff:
                terms[(c, exps)] = Fraction(coeff)
    return Polynomial(d, kind, terms)


def green_identity_check(
    frame: SimplexFrame, k_tau: int, k_v: int, samples: int = 20, seed: int = 0
) -> CheckResult:
    rng = random.Random(seed)
    ctx = {"d": frame.d, "k_tau": k_tau, "k_v": k_v, "samples": samples, "seed": seed}
    for s in range(samples):
        tau = _random_poly(rng, frame.d, "sym", k_tau)
        v = _random_poly(rng, frame.d, "scalar", k_v)
        r = green_residual(frame, tau, v)
        if r != 0:
            ctx["sample"] = s
            return CheckResult("green-identity", False, expected=0, got=r, context=ctx)
    return CheckResult("green-identity", True, expected=0, got=0, context=ctx)
