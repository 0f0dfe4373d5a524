"""Two-simplex patch conformity checks and the divdiv Green's identity.

Patch test
----------
Both simplices of a patch list the shared face's vertices first, in the same
order, so the canonical chart of the shared face is bit-identical from
either side.  For each left shape function, a right shape function is solved
for that matches every right DoF living on the shared face (applied directly
to the left function), with the right side's other shared DoFs set to zero.
The left side is only its shape space, never a full element, and the matched
shared DoFs of all left members are one product: the right side's shared DoF
rows times the left shape basis, built for the DoFs on the face alone.  The
right side needs only its shared rows S too, taken from its face DoFs (no
interior test space is built), and eliminated in Bernstein coordinates:
``elements._rows_times_g_s`` forms the sparse S G_s, as it does for the
element certificates, with G_s mapping Bernstein to member coordinates; the
monomial rows of all of S are built only for the catalog bases with columns
past their Bernstein block.  One RREF of [S G_s | rhs], the zero
right-hand sides left out, gives a particular solution (free Bernstein
coordinates zero) and ker(S G_s), both mapped back by G_s.  When every
member of ker S has zero declared traces on the face, all right functions
with these shared DoFs have the same declared traces there (the shared DoFs
fix the trace part of the paper's split), so the jumps are taken on the
particular solution, and they do not depend on which one it is.  For the
``P_minus_sym`` shape, P_k(S) plus the enrichment W of bubbles, the right
space is P_k(S) written at degree k + 1 (``_right_space``): every shared DoF
and every declared trace vanishes on the bubble generators that span W,
which is checked on the right frame, so W adds only free coordinates, zero in
the particular solution, and kernel members with zero traces.  The
family's declared traces must then agree exactly as chart polynomials, while
a designated non-conforming component (fixed by the first declared trace)
must jump for at least one pair (the negative control that guards against
vacuous passes; unlike the declared traces, it can depend on the particular
solution).  The jumps of all members are one product per trace: the shared
face's trace matrix times the left minus the right shape coefficients.

Every outcome but a pass (an inconsistent system, a kernel member with a
nonzero declared trace, a nonzero jump, a control that does not jump) is
decided again from the right element's whole DoF system, every right DoF
off the shared face zero.  A failure then reports the first nonzero jump of
that unique right function as a chart polynomial, or a singular right DoF
matrix by its rank.

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

holds exactly for all symmetric tau and scalar v.  The left-hand side is
assembled once as an exact bilinear form B over the shaped monomial frames
(``green_form``): every term is a trace matrix of ``Face.trace`` (or a volume
operator matrix) paired through a chart mass (or frame Gram) matrix with a
trace of v, so the module only multiplies matrices.  B == 0 is the identity
itself, and the check passes on it alone; a nonzero B fails with its first
nonzero entry, a pair of monomials, as the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import poly
from .elements import (FAMILIES, _change_of_basis, _dof_matrix, _first_nonzero_trace, _kills_generators,
                       _nonzero_trace_mode, _rows_times_g_s, build_element)
from .exact import DimensionMismatchError, Matrix, SingularMatrixError, rref_kernel
from .integrate import chart_mass, frame_gram
from .poly import Polynomial
from .report import CheckResult
from .simplex import Face, SimplexFrame
from .spaces import PolySpace, bubble_generator_bernstein, build_standard

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
    return _glued(SimplexFrame(list(shared_face_vertices) + [apex_left]), apex_right)


def reflected_patch(frame: SimplexFrame) -> Patch:
    """Glue the simplex, as the left side, to its apex reflection across the
    face opposite the apex; lambda_d is 1 at the apex and -1 at its mirror."""
    d = frame.d
    g = frame.grad_lambda[d]
    gg = sum(a * a for a in g)
    return _glued(frame, tuple(x - 2 * gi / gg for x, gi in zip(frame.vertices[d], g)))


def _glued(left: SimplexFrame, apex_right) -> Patch:
    """The patch of ``left`` and the simplex on its first d vertices and ``apex_right``."""
    d = left.d
    right = SimplexFrame(list(left.vertices[:d]) + [apex_right])
    if left.lambdas[d].evaluate([Fraction(x) for x in apex_right]) > 0:
        raise SameSideApexesError("apexes lie on the same side of the shared face")
    shared_left = left.face_opposite(d)
    shared_right = right.face_opposite(d)
    if shared_left.origin != shared_right.origin or shared_left.tangents != shared_right.tangents:
        raise SharedChartMismatchError("the two sides chart the shared face differently")
    return Patch(left, right, shared_left, shared_right)


# the component that must jump for some member, by the first declared trace
_NEGATIVE_CONTROL = {
    "vector_normal": "tangential",
    "tensor_normal": "tangential_tangential",
    "normal_normal": "tangential",
}


def _on_shared_face(dof, d: int) -> bool:
    """A DoF on the shared face: its vertices are 0..d-1 on both sides."""
    return dof.vertex < d if dof.face is None else d not in dof.face.vertex_ids


def conformity_check(patch: Patch, family: str, k: int) -> CheckResult:
    """Single-valued shared DoFs must force exactly the declared traces.

    A pass comes from the right side's shared DoF block alone; every other
    outcome is decided by the right element's whole DoF system."""
    spec = FAMILIES[family]
    left = build_standard(patch.left, spec.shape, k)
    shared = [dof for dof in spec.faces(patch.right, k) if dof.shared]
    right = _shared_block_solution(patch, spec, left, _right_space(patch, spec, shared, k), k, shared)
    if right is not None:
        res = _jump_check(patch, family, k, left, right)
        if res.passed:
            return res
    return _full_solve_check(patch, family, k)


def _right_space(patch: Patch, spec, shared, k: int) -> PolySpace:
    """The right shape space of the shared-block solution: the catalog space,
    or for P_minus_sym = P_k(S) + W the space P_k(S) over the frame of degree
    k + 1, once the right side's ``shared`` DoFs and the shared face's
    declared traces, all of degree k + 1 in Bernstein form, are seen to
    annihilate the bubble generators whose span holds W.  The columns of W
    then lie in the span of the P_k(S) columns of S, so the RREF, the
    particular solution and the declared traces of ker S are those of the
    catalog space."""
    if spec.shape == "P_minus_sym":
        face = patch.shared_right
        gens = bubble_generator_bernstein(patch.right, "sym", k + 1)
        traces = [t for mode in spec.trace_modes for t in face.traces("sym", k + 1, mode, True)[1]]
        if _kills_generators(patch.right, shared, "sym", k + 1, gens, *traces):
            return build_standard(patch.right, "P_sym", k).with_degree(k + 1)
    return build_standard(patch.right, spec.shape, k)


def _shared_block_solution(patch: Patch, spec, left: PolySpace, right: PolySpace, k: int,
                           shared) -> Matrix | None:
    """Right shape coefficients (over the shaped frame) that match the shared
    DoFs of every left member on the shared face, the right side's other
    shared DoFs zero, from the rows S of the right side's ``shared`` DoFs
    alone (all of them face DoFs); None unless the system is consistent and
    ker S has zero declared traces on the face, so that every such right
    function has the same declared traces.

    One RREF of [S G_s | rhs], G_s = ``_change_of_basis(right, k)``, gives
    both a particular solution (free Bernstein coordinates zero) and ker S,
    each mapped back by G_s.  The zero right-hand sides (left members with
    no DoF on the face) stay out of the RREF: their solution is zero."""
    d = patch.left.d
    s = _rows_times_g_s(patch.right, shared, right, k)
    on_face = [dof for dof in shared if _on_shared_face(dof, d)]
    at = {id(dof): r for r, dof in enumerate(on_face)}
    matched = _dof_matrix(patch.right, on_face, right.kind, right.k).matmul(left.basis)
    rhs = matched.take([at.get(id(dof)) for dof in shared]).transpose()
    nonzero = [j for j in range(rhs.rows) if any(rhs.int_row(j)[1])]
    n = right.dim
    red, pivots = s.hstack(rhs.take(nonzero).transpose()).rref()
    if pivots and pivots[-1] >= n:
        return None
    ker = rref_kernel(red, pivots, n)
    if ker.cols and _nonzero_trace_mode([patch.shared_right], spec.trace_modes, right, k, ker) is not None:
        return None
    row_of = {pc: r for r, pc in enumerate(pivots)}
    sol = red.take([row_of.get(c) for c in range(n)], n).transpose()
    col_of = {j: c for c, j in enumerate(nonzero)}
    sol = sol.take([col_of.get(j) for j in range(rhs.rows)]).transpose()
    return right.basis.matmul(_change_of_basis(right, k).matmul(sol))


def _full_solve_check(patch: Patch, family: str, k: int) -> CheckResult:
    """The patch check from the right element's whole DoF system: the right
    function matches the shared DoFs on the face, and every other right DoF
    is zero."""
    left = build_standard(patch.left, FAMILIES[family].shape, k)
    right_e = build_element(patch.right, family, k)
    d = patch.left.d
    on_shared = [i for i, dof in enumerate(right_e.dofs) if dof.shared and _on_shared_face(dof, d)]
    # the shared DoFs of every left member as one product; the other right DoFs are zero
    shared_dofs = [right_e.dofs[i] for i in on_shared]
    matched = _dof_matrix(patch.right, shared_dofs, left.kind, left.k).matmul(left.basis)
    row_of = {i: r for r, i in enumerate(on_shared)}
    try:
        sol = right_e.dof_matrix.solve(matched.take([row_of.get(i) for i in range(len(right_e.dofs))]))
    except (SingularMatrixError, DimensionMismatchError):
        ctx = {"family": family, "d": d, "k": k, "members": left.dim}
        return CheckResult(f"conformity-{family}", False, expected="unisolvent right element",
                           got=right_e.dof_matrix.rank(), context=ctx)
    return _jump_check(patch, family, k, left, right_e.space.basis.matmul(sol))


def _jump_check(patch: Patch, family: str, k: int, left: PolySpace, right: Matrix) -> CheckResult:
    """The declared traces of the left members minus the right functions
    (shape coefficients ``right``) must vanish on the shared face, and the
    negative control must not."""
    spec = FAMILIES[family]
    # jumps of every member at once: the traces of left minus right coefficients
    jumps = left.basis - right
    face = patch.shared_left
    kind, k_frame = left.kind, left.k
    control_mode = _NEGATIVE_CONTROL[spec.trace_modes[0]]
    ctx = {"family": family, "d": patch.left.d, "k": k, "members": left.dim}
    hit = _first_nonzero_trace([face], kind, k_frame, spec.trace_modes, jumps)
    if hit is not None:
        j, mode, jump = hit
        ctx["jump_mode"] = mode
        ctx["member"] = j
        ctx["jump"] = poly.poly_to_json(jump)
        return CheckResult(f"conformity-{family}", False, expected="zero jump", got=mode, context=ctx)
    control_jumped = any(not t.matmul(jumps).is_zero() for t in face.traces(kind, k_frame, control_mode)[1])
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


def green_form(frame: SimplexFrame, k_tau: int, k_v: int) -> Matrix:
    """The residual of the Green identity as an exact bilinear form B:
    residual(tau, v) = coeff(tau)^T B coeff(v) over the frames (sym, d, k_tau)
    (rows) and (scalar, d, k_v) (columns), so the identity holds iff B == 0.

    Each term is (s T)^T M R: a scaled trace or volume operator T of tau, a
    chart mass or frame Gram matrix M and a trace or operator R of v, so B is
    one product of the stacked factors s T with the stacked factors M R."""
    d = frame.d
    c = frame.jac_factor
    dd, k_dd = poly.operator_table("divdiv", "sym", d, k_tau), poly.operator_target("divdiv", k_tau)[1]
    hess, k_hess = poly.operator_table("hess", "scalar", d, k_v), poly.operator_target("hess", k_v)[1]
    grad, k_grad = poly.operator_table("grad", "scalar", d, k_v), poly.operator_target("grad", k_v)[1]
    # (divdiv tau, v)_K - (tau, hess v)_K
    lhs = [dd, frame_gram(frame, "sym", k_hess, k_tau).scale(-1)]
    rhs = [frame_gram(frame, "scalar", k_dd, k_v), hess]
    edges = {e.opposite_ids: e for e in frame.faces(2)}
    edge_v = {ids: chart_mass(e.dim, k_tau, k_v).matmul(e.trace("scalar", k_v, (1,)))
              for ids, e in edges.items()}
    for i in range(d + 1):
        face = frame.face_opposite(i)
        gi = face.normal_frame[0]

        # codim-2 terms: edges of F_i, outward normal m_ij within the face
        for j in range(d + 1):
            if j == i:
                continue
            ids = tuple(sorted((i, j)))
            lhs.append(edges[ids].trace("sym", k_tau, _projected_normal(frame, i, j), gi).scale(c))
            rhs.append(edge_v[ids])

        # normal-normal against the normal derivative, with the 1/(g.g) factor
        gg = sum((a * b for a, b in zip(gi, gi)), _ZERO)
        lhs.append(face.trace("sym", k_tau, gi, gi).scale(c / gg))
        rhs.append(chart_mass(face.dim, k_tau, k_grad).matmul(face.trace("vector", k_grad, gi)).matmul(grad))

        # combo trace against v
        chart_k, (combo,) = face.traces("sym", k_tau, "combo")
        lhs.append(combo.scale(-c))
        rhs.append(chart_mass(face.dim, chart_k, k_v).matmul(face.trace("scalar", k_v, (1,))))
    n_tau, n_v = dd.cols, hess.cols
    return Matrix.vstack(lhs, n_tau).transpose().matmul(Matrix.vstack(rhs, n_v))


def _pair(form: Matrix, tau: Polynomial, k_tau: int, v: Polynomial, k_v: int) -> Fraction:
    row = Matrix([poly.coeff_vector(tau, k_tau)]).matmul(form)
    return sum((a * b for a, b in zip(row.row(0), poly.coeff_vector(v, k_v))), _ZERO)


def green_residual(frame: SimplexFrame, tau: Polynomial, v: Polynomial) -> Fraction:
    """Exact residual of the grouped scaled-normal divdiv Green's identity."""
    k_tau, k_v = max(tau.degree(), 0), max(v.degree(), 0)
    return _pair(green_form(frame, k_tau, k_v), tau, k_tau, v, k_v)


def green_identity_check(
    frame: SimplexFrame, k_tau: int, k_v: int, samples: int = 20, seed: int = 0
) -> CheckResult:
    """The identity holds iff the form B of ``green_form`` is zero.  A nonzero
    B fails with its first nonzero entry as the witness: the pair of
    monomials (tau, v) it pairs, and its value.  ``samples`` and ``seed``
    stay in the record's context only; nothing is sampled."""
    ctx = {"d": frame.d, "k_tau": k_tau, "k_v": k_v, "samples": samples, "seed": seed}
    form = green_form(frame, k_tau, k_v)
    if form.is_zero():
        return CheckResult("green-identity", True, expected=0, got=0, context=ctx)
    i, j = next((i, j) for i in range(form.rows) for j, x in enumerate(form.int_row(i)[1]) if x)
    for key, kind, deg, at in (("tau", "sym", k_tau, i), ("v", "scalar", k_v, j)):
        ctx[key] = poly.poly_to_json(Polynomial(frame.d, kind, {poly.frame(kind, frame.d, deg)[at]: Fraction(1)}))
    return CheckResult("green-identity", False, expected=0, got=form[i, j], context=ctx)
