"""Two-simplex patch conformity checks and the divdiv Green's identity.

Patch test
----------
Both simplices of a patch list the shared face's vertices first, in the same
order, so the canonical chart of the shared face F is bit-identical from
either side.  The patch conforms when, for every left shape function u_L,
the right function u_R that matches every right DoF on F (applied directly
to u_L), every other right DoF zero, has the declared traces of u_L on F.
A pass comes from identities on F alone (``_face_identities``), over the
F-DoFs: the shared DoFs that lie on F.  The right side builds only its
F-DoFs, never a shape space:

- (a) on the left frame, the rows of each declared trace on F lie in the
  row span of the F-DoF rows D_F (rank [D_F; T_F] == rank D_F), both
  against the catalog basis in Bernstein coordinates
  (``elements._rows_times_g_s``, ``elements._split_traces``), P_k(S) for
  the ``P_minus_sym`` shape;
- (b) both cells define the same F-DoFs: their rows A and B over the global
  monomial frame of the shape space have rank A == rank B == rank [A; B].

The eight shapes other than ``P_minus_sym`` (P_k, P_k + x H_k and P_k(S) +
x x^T H_{k-1}) are translation invariant, the same polynomial space on both
cells, so w = u_L - u_R lies in it; B w = 0 by construction, so A w = 0 by
(b), and w has zero declared traces on F by (a).  ``P_minus_sym`` is P_k(S)
plus the enrichments W_L and W_R on the two cells: on both frames the F-DoFs
and the declared traces on F, at degree k + 1 in Bernstein form, annihilate
the bubble generators whose span holds W (``elements._kills_generators``),
so the argument runs on the P_k(S) parts.  The negative control guards
against vacuous passes: a designated non-conforming component (fixed by the
first declared trace) must jump for some member, so its rows must not lie in
the row span of D_F (a w with D_F w = 0 and a nonzero control is its own
jump, its right function zero).  D_F need not have full row rank.

Every outcome but a pass (a trace outside the span, a control inside it,
F-DoFs that differ, an enrichment the F-DoFs see) is decided again from the
right element's whole DoF system (``_full_solve_check``).  The jumps of all
members are one product per trace: the shared face's trace matrix times the
left minus the right shape coefficients.  A failure reports the first
nonzero jump of that unique right function as a chart polynomial, or a
singular right DoF matrix by its rank.  The identities only suffice: the full
solve passes, for example, a divdiv family whose mixed normal-normal moment
on an edge of F is cell-local, as each cell then takes the other edge
moments in its own edge normal frame.

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
from .elements import (FAMILIES, _dof_matrix, _first_nonzero_trace, _kills_generators, _rows_times_g_s,
                       _split_traces, build_element)
from .exact import DimensionMismatchError, Matrix, SingularMatrixError
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

    A pass comes from the face identities on the shared face alone; every
    other outcome is decided by the right element's whole DoF system."""
    spec = FAMILIES[family]
    left = build_standard(patch.left, spec.shape, k)
    control = _NEGATIVE_CONTROL[spec.trace_modes[0]]
    if not _face_identities(patch, spec, left, k, control):
        return _full_solve_check(patch, family, k)
    ctx = {"family": family, "d": patch.left.d, "k": k, "members": left.dim,
           "negative_control": control, "negative_control_jumped": True}
    return CheckResult(f"conformity-{family}", True, context=ctx)


def _rank(*blocks: Matrix) -> int:
    """The rank of the blocks stacked: rows R lie in the row span of D iff
    rank [D; R] == rank D."""
    return Matrix.vstack(blocks, blocks[0].cols).rank()


def _face_identities(patch: Patch, spec, left: PolySpace, k: int, control: str) -> bool:
    """The identities on the shared face F that make the patch conform: the
    declared traces, and not the ``control`` trace, lie in the row span of
    the left side's F-DoFs on its catalog space (P_k(S) for P_minus_sym);
    both sides' F-DoF rows span the same space over the frame of ``left``;
    for P_minus_sym, both sides' F-DoFs and F-traces annihilate the bubble
    generators of degree k + 1."""
    d = patch.left.d
    sides = [(fr, face, [dof for dof in spec.faces(fr, k) if dof.shared and _on_shared_face(dof, d)])
             for fr, face in ((patch.left, patch.shared_left), (patch.right, patch.shared_right))]
    space = build_standard(patch.left, "P_sym", k) if spec.shape == "P_minus_sym" else left
    # (a) and the control, on the left frame
    d_f = _rows_times_g_s(patch.left, sides[0][2], space, k)
    traces = [t for mode in spec.trace_modes for t in _split_traces(patch.shared_left, space, k, mode)]
    r = _rank(d_f)
    if _rank(d_f, *traces) != r or _rank(d_f, *_split_traces(patch.shared_left, space, k, control)) == r:
        return False
    if spec.shape == "P_minus_sym" and not all(
            _kills_generators(fr, dofs, "sym", k + 1, bubble_generator_bernstein(fr, "sym", k + 1),
                              *(t for mode in spec.trace_modes for t in face.traces("sym", k + 1, mode, True)[1]))
            for fr, face, dofs in sides):
        return False
    # (b)
    a, b = (_dof_matrix(fr, dofs, left.kind, left.k) for fr, _, dofs in sides)
    return _rank(a) == _rank(b) == _rank(a, b)


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
