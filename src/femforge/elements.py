"""The finite element catalog.

Each family assembles a Ciarlet triple: a simplex, a shape-function space and
an ordered list of degree-of-freedom functionals.  The square DoF matrix
(rows = DoFs, columns = shape basis members) is assembled with exact face and
cell moments; unisolvence is certified by exact rank.

Face functionals use the scaled normals g_i = -grad(lambda_i) and canonical
chart measures, so every DoF equals a fixed positive multiple of its
unit-normal counterpart; tangential edge test spaces pair through the chart's
inverse Gram so that their span matches the tangential first-kind edge space
exactly.  Neither rescaling nor recombination affects rank, unisolvence or
single-valuedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import exact, poly, spaces
from .exact import Matrix, SingularMatrixError
from .integrate import integrate_face, pair_simplex
from .poly import Polynomial
from .report import CheckResult
from .simplex import Face, SimplexFrame, surface_div
from .spaces import BadDegreeError, PolySpace, UnsupportedTagError

_ZERO = Fraction(0)
_ONE = Fraction(1)

VERTEX_EVAL = "vertex_eval"
FACE_SCALAR_NORMAL = "face_moment_scalar_normal"
FACE_NN = "face_moment_nn"
FACE_TN = "face_moment_tn"
FACE_NORMAL_DIV = "face_moment_normal_div"
FACE_DIVDIV_COMBO = "face_moment_divdiv_combo"
INTERIOR_PAIR = "interior_moment_pair"
INTERIOR_DIV = "interior_moment_div"
INTERIOR_DIVDIV = "interior_moment_divdiv"


@dataclass
class DoFDescriptor:
    kind: str
    shared: bool
    face: Face | None = None
    vertex: int | None = None
    comp: tuple | None = None
    test: Polynomial | None = None
    label: str = ""


@dataclass
class Element:
    family: str
    frame: SimplexFrame
    k: int
    space: PolySpace
    dofs: list[DoFDescriptor]
    dof_matrix: Matrix

    @property
    def dim(self) -> int:
        return self.space.dim


# -- DoF application ---------------------------------------------------------------


def _restricted_normal_product(face: Face, tau: Polynomial, ga, gb) -> Polynomial:
    """restrict(ga^T tau gb) onto the face chart."""
    d = tau.d
    acc = Polynomial.zero(d)
    for i in range(d):
        if not ga[i]:
            continue
        row = Polynomial.zero(d)
        for j in range(d):
            if gb[j]:
                row = row + tau.entry(i, j).scale(gb[j])
        acc = acc + row.scale(ga[i])
    return face.restrict(acc)


def _tau_g(face: Face, tau: Polynomial) -> Polynomial:
    """The ambient vector field tau g for the face's scaled normal."""
    g = face.normal_frame[0]
    d = tau.d
    comps = []
    for i in range(d):
        acc = Polynomial.zero(d)
        for j in range(d):
            if g[j]:
                acc = acc + tau.entry(i, j).scale(g[j])
        comps.append(acc)
    return Polynomial.vector_from(comps)


def _vec_dot_g(v: Polynomial, g) -> Polynomial:
    acc = Polynomial.zero(v.d)
    for t in range(v.vdim):
        if g[t]:
            acc = acc + v.component(t).scale(g[t])
    return acc


def apply_dof(frame: SimplexFrame, dof: DoFDescriptor, tau: Polynomial, cache: dict | None = None) -> Fraction:
    """Evaluate one DoF functional on any polynomial of the element's shape."""
    if cache is None:
        cache = {}
    kind = dof.kind
    if kind == VERTEX_EVAL:
        key = ("vals", dof.vertex)
        vals = cache.get(key)
        if vals is None:
            vals = tau.evaluate(frame.vertices[dof.vertex])
            cache[key] = vals
        i, j = dof.comp
        return vals[i][j]
    if kind == FACE_SCALAR_NORMAL:
        face = dof.face
        key = ("vg", face.vertex_ids)
        vg = cache.get(key)
        if vg is None:
            vg = face.restrict(_vec_dot_g(tau, face.normal_frame[0]))
            cache[key] = vg
        return integrate_face(face, poly.dot(vg, dof.test))
    if kind == FACE_NN:
        face = dof.face
        a, b = dof.comp
        key = ("nn", face.vertex_ids, a, b)
        s = cache.get(key)
        if s is None:
            s = _restricted_normal_product(face, tau, face.normal_frame[a], face.normal_frame[b])
            cache[key] = s
        return integrate_face(face, poly.dot(s, dof.test))
    if kind == FACE_TN:
        face = dof.face
        key = ("tn", face.vertex_ids)
        w = cache.get(key)
        if w is None:
            taug = _restricted_tau_g(face, tau, cache)
            comps = []
            for m in range(face.dim):
                acc = Polynomial.zero(face.dim)
                for t in range(tau.d):
                    c = face.tangents[m][t]
                    if c:
                        acc = acc + taug[t].scale(c)
                comps.append(acc)
            w = Polynomial.from_components(face.dim, "vector", comps)
            cache[key] = w
        return integrate_face(face, poly.dot(w, dof.test))
    if kind == FACE_NORMAL_DIV:
        face = dof.face
        s = _restricted_normal_div(frame, face, tau, cache)
        return integrate_face(face, poly.dot(s, dof.test))
    if kind == FACE_DIVDIV_COMBO:
        face = dof.face
        key = ("combo", face.vertex_ids)
        s = cache.get(key)
        if s is None:
            s = _restricted_normal_div(frame, face, tau, cache) + surface_div(face, _tau_g(face, tau))
            cache[key] = s
        return integrate_face(face, poly.dot(s, dof.test))
    if kind == INTERIOR_PAIR:
        return pair_simplex(frame, tau, dof.test)
    if kind == INTERIOR_DIV:
        w = _divergence(tau, cache)
        return pair_simplex(frame, w, dof.test)
    if kind == INTERIOR_DIVDIV:
        key = ("divdiv",)
        s = cache.get(key)
        if s is None:
            s = poly.div(_divergence(tau, cache))
            cache[key] = s
        return pair_simplex(frame, s, dof.test)
    raise UnsupportedTagError(f"unknown DoF kind {kind!r}")


def _divergence(tau: Polynomial, cache: dict) -> Polynomial:
    key = ("div",)
    w = cache.get(key)
    if w is None:
        w = poly.div_rowwise(tau) if tau.kind in ("sym", "skw", "matrix") else poly.div(tau)
        cache[key] = w
    return w


def _restricted_tau_g(face: Face, tau: Polynomial, cache: dict) -> list[Polynomial]:
    key = ("taug", face.vertex_ids)
    got = cache.get(key)
    if got is None:
        taug = _tau_g(face, tau)
        got = [face.restrict(taug.component(t)) for t in range(tau.d)]
        cache[key] = got
    return got


def _restricted_normal_div(frame: SimplexFrame, face: Face, tau: Polynomial, cache: dict) -> Polynomial:
    key = ("ndiv", face.vertex_ids)
    s = cache.get(key)
    if s is None:
        w = _divergence(tau, cache)
        s = face.restrict(_vec_dot_g(w, face.normal_frame[0]))
        cache[key] = s
    return s


# -- DoF block builders ----------------------------------------------------------------


def _chart_monomials(face: Face, deg: int) -> list[Polynomial]:
    if deg < 0:
        return []
    return [Polynomial(face.dim, "scalar", {(0, e): _ONE}) for e in poly.monomials(face.dim, deg)]


def _chart_nd_twisted(face: Face, deg: int) -> list[Polynomial]:
    """Basis of Ginv . (chart edge space): pairs with T^T(tau g) so that the
    functional span equals the face-intrinsic tangential edge moments."""
    if deg < 0:
        return []
    out = []
    m = face.dim
    for q in spaces.nd_basis(m, deg):
        comps = []
        for i in range(m):
            acc = Polynomial.zero(m)
            for j in range(m):
                c = face.gram_inv[i, j]
                if c:
                    acc = acc + q.component(j).scale(c)
            comps.append(acc)
        out.append(Polynomial.from_components(m, "vector", comps))
    return out


def _vertex_dofs(frame: SimplexFrame) -> list[DoFDescriptor]:
    d = frame.d
    out = []
    for v in range(d + 1):
        for (i, j) in poly.sym_pairs(d):
            out.append(
                DoFDescriptor(
                    VERTEX_EVAL, True, vertex=v, comp=(i, j), label=f"vertex{v}:entry{i}{j}"
                )
            )
    return out


def _nn_dofs(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    d = frame.d
    out = []
    for r in range(1, d):
        for face in frame.faces(r):
            deg = k + r - d - 1
            tests = _chart_monomials(face, deg)
            for a in range(r):
                for b in range(a, r):
                    for t, q in enumerate(tests):
                        out.append(
                            DoFDescriptor(
                                FACE_NN,
                                True,
                                face=face,
                                comp=(a, b),
                                test=q,
                                label=f"nn:f{face.vertex_ids}:g{a}{b}:q{t}",
                            )
                        )
    return out


def _tn_dofs(frame: SimplexFrame, k: int, shared: bool) -> list[DoFDescriptor]:
    out = []
    for face in frame.faces(1):
        for t, q in enumerate(_chart_nd_twisted(face, k - 2)):
            out.append(
                DoFDescriptor(
                    FACE_TN, shared, face=face, test=q, label=f"tn:f{face.vertex_ids}:q{t}"
                )
            )
    return out


def _face_scalar_dofs(frame: SimplexFrame, deg: int, kind: str, shared: bool, name: str) -> list[DoFDescriptor]:
    out = []
    for face in frame.faces(1):
        for t, q in enumerate(_chart_monomials(face, deg)):
            out.append(
                DoFDescriptor(
                    kind, shared, face=face, test=q, label=f"{name}:f{face.vertex_ids}:q{t}"
                )
            )
    return out


def _interior_dofs(kind: str, tests: Sequence[Polynomial], name: str) -> list[DoFDescriptor]:
    return [
        DoFDescriptor(kind, False, test=q, label=f"{name}:q{t}") for t, q in enumerate(tests)
    ]


def _members_or_empty(space_or_none) -> list[Polynomial]:
    return space_or_none.members() if space_or_none is not None else []


# -- interior test spaces ----------------------------------------------------------------


def _p_perp_rm(frame: SimplexFrame, deg: int) -> list[Polynomial]:
    p = spaces.build_standard(frame, "P_vector", deg)
    rm = spaces.build_standard(frame, "RM", 0)
    return spaces.orthocomplement_in(p, rm, f"P{deg}_vec_perp_RM").members()


def _scalar_mod_p1(frame: SimplexFrame, deg: int) -> list[Polynomial]:
    if deg < 0:
        return []
    p = spaces.build_standard(frame, "P_scalar", deg)
    p1 = spaces.build_standard(frame, "P_scalar", min(1, deg))
    return spaces.orthocomplement_in(p, p1, f"P{deg}_mod_P1").members()


def _skw_x_mod_const(frame: SimplexFrame, deg: int) -> list[Polynomial]:
    if deg < 0:
        return []
    big = spaces.build_standard(frame, "skwPx", deg)
    small = spaces.build_standard(frame, "skwPx", 0)
    return spaces.orthocomplement_in(big, small, f"skwPx{deg}_mod_const").members()


def _ker_sym(frame: SimplexFrame, deg: int) -> list[Polynomial]:
    if deg < 0:
        return []
    return spaces.ker_mat_x_sym(frame, deg).members()


def _def_space_members(frame: SimplexFrame, source_tag: str, deg: int) -> list[Polynomial]:
    if deg < 0:
        return []
    src = spaces.build_standard(frame, source_tag, deg)
    return spaces.image_space("def", src, f"def_{source_tag}_{deg}").members()


# -- family definitions ---------------------------------------------------------------------


def _floor_vec(_d: int) -> int:
    return 1


def _floor_rt(_d: int) -> int:
    return 0


def _floor_sym(_d: int) -> int:
    return 2


def _floor_divdiv(d: int) -> int:
    return max(d, 3)


def _shape_bdm(frame: SimplexFrame, k: int) -> PolySpace:
    return spaces.build_standard(frame, "P_vector", k)


def _shape_rt(frame: SimplexFrame, k: int) -> PolySpace:
    return spaces.build_standard(frame, "RT_shape", k)


def _shape_sym(frame: SimplexFrame, k: int) -> PolySpace:
    return spaces.build_standard(frame, "P_sym", k)


def _shape_sym_minus(frame: SimplexFrame, k: int) -> PolySpace:
    # P_k(S) plus the bubble slice that raises the divergence range to
    # degree k; the slice is taken inside the degree-(k+1) complement bubbles
    # (the plain complement-bubble sum overcounts once the degree-(k+1)
    # divergence-free bubbles pair nontrivially with lower-degree bubbles)
    p = spaces.build_standard(frame, "P_sym", k)
    enrich = spaces.bubble_enrichment_sym(frame, k)
    return spaces.space_sum(p, enrich, f"P_minus_sym_{k + 1}")


def _shape_sym_xxt(frame: SimplexFrame, k: int) -> PolySpace:
    p = spaces.build_standard(frame, "P_sym", k)
    xxt = spaces.build_standard(frame, "xxT_H", k - 1)
    return spaces.space_sum(p, xxt, f"P_sym_plus_xxT_{k}")


def _dofs_bdm(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    out = _face_scalar_dofs(frame, k, FACE_SCALAR_NORMAL, True, "normal")
    nd = spaces.build_standard(frame, "ND", k - 2).members() if k >= 2 else []
    out += _interior_dofs(INTERIOR_PAIR, nd, "nd")
    return out


def _dofs_rt(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    out = _face_scalar_dofs(frame, k, FACE_SCALAR_NORMAL, True, "normal")
    tests = (
        spaces.build_standard(frame, "P_vector", k - 1).members() if k >= 1 else []
    )
    out += _interior_dofs(INTERIOR_PAIR, tests, "pk-1")
    return out


def _dofs_hdivs(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    out = _vertex_dofs(frame) + _nn_dofs(frame, k) + _tn_dofs(frame, k, True)
    tests = spaces.build_standard(frame, "P_sym", k - 2).members() if k >= 2 else []
    out += _interior_dofs(INTERIOR_PAIR, tests, "psym")
    return out


def _dofs_hdivs_split(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    out = _vertex_dofs(frame) + _nn_dofs(frame, k) + _tn_dofs(frame, k, True)
    out += _interior_dofs(INTERIOR_DIV, _p_perp_rm(frame, k - 1), "div")
    out += _interior_dofs(INTERIOR_PAIR, _ker_sym(frame, k - 2), "ker")
    return out


def _dofs_hdivs_minus(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    out = _vertex_dofs(frame) + _nn_dofs(frame, k) + _tn_dofs(frame, k, True)
    out += _interior_dofs(INTERIOR_PAIR, _ker_sym(frame, k - 2), "ker")
    out += _interior_dofs(INTERIOR_DIV, _p_perp_rm(frame, k), "div")
    return out


def _dofs_divdiv_plus(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    out = _vertex_dofs(frame) + _nn_dofs(frame, k) + _tn_dofs(frame, k, True)
    out += _face_scalar_dofs(frame, k - 1, FACE_NORMAL_DIV, True, "ndiv")
    out += _interior_dofs(INTERIOR_DIVDIV, _scalar_mod_p1(frame, k - 2), "dd")
    out += _interior_dofs(INTERIOR_DIV, _skw_x_mod_const(frame, k - 3), "skwx")
    out += _interior_dofs(INTERIOR_PAIR, _ker_sym(frame, k - 2), "ker")
    return out


def _dofs_divdiv_plus_minus(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    out = _vertex_dofs(frame) + _nn_dofs(frame, k) + _tn_dofs(frame, k, True)
    out += _face_scalar_dofs(frame, k - 1, FACE_NORMAL_DIV, True, "ndiv")
    out += _interior_dofs(INTERIOR_DIVDIV, _scalar_mod_p1(frame, k - 1), "dd")
    out += _interior_dofs(INTERIOR_DIV, _skw_x_mod_const(frame, k - 3), "skwx")
    out += _interior_dofs(INTERIOR_PAIR, _ker_sym(frame, k - 2), "ker")
    return out


def _dofs_divdiv(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    out = _vertex_dofs(frame) + _nn_dofs(frame, k) + _tn_dofs(frame, k, False)
    out += _face_scalar_dofs(frame, k - 1, FACE_DIVDIV_COMBO, True, "combo")
    out += _interior_dofs(INTERIOR_PAIR, _def_space_members(frame, "ND", k - 3), "defnd")
    out += _interior_dofs(INTERIOR_PAIR, _ker_sym(frame, k - 2), "ker")
    return out


def _dofs_divdiv_minus(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    out = _vertex_dofs(frame) + _nn_dofs(frame, k) + _tn_dofs(frame, k, False)
    out += _face_scalar_dofs(frame, k - 1, FACE_DIVDIV_COMBO, True, "combo")
    out += _interior_dofs(INTERIOR_PAIR, _def_space_members(frame, "P_vector", k - 2), "defp")
    out += _interior_dofs(INTERIOR_PAIR, _ker_sym(frame, k - 2), "ker")
    return out


@dataclass
class FamilySpec:
    name: str
    shape: Callable[[SimplexFrame, int], PolySpace]
    dofs: Callable[[SimplexFrame, int], list[DoFDescriptor]]
    floor: Callable[[int], int]
    trace_modes: tuple[str, ...]  # declared conforming traces
    stability_floor: Callable[[int], int] | None = None


FAMILIES: dict[str, FamilySpec] = {
    "BDM": FamilySpec("BDM", _shape_bdm, _dofs_bdm, _floor_vec, ("vector_normal",)),
    "RT": FamilySpec("RT", _shape_rt, _dofs_rt, _floor_rt, ("vector_normal",)),
    "HdivS": FamilySpec(
        "HdivS", _shape_sym, _dofs_hdivs, _floor_sym, ("tensor_normal",), lambda d: d + 1
    ),
    "HdivS_split": FamilySpec(
        "HdivS_split", _shape_sym, _dofs_hdivs_split, _floor_sym, ("tensor_normal",), lambda d: d + 1
    ),
    "HdivS_minus": FamilySpec(
        "HdivS_minus", _shape_sym_minus, _dofs_hdivs_minus, _floor_sym, ("tensor_normal",), lambda d: d + 1
    ),
    "DivDivPlus": FamilySpec(
        "DivDivPlus", _shape_sym, _dofs_divdiv_plus, _floor_divdiv, ("tensor_normal", "normal_div")
    ),
    "DivDivPlusMinus": FamilySpec(
        "DivDivPlusMinus",
        _shape_sym_xxt,
        _dofs_divdiv_plus_minus,
        _floor_divdiv,
        ("tensor_normal", "normal_div"),
    ),
    "DivDiv": FamilySpec(
        "DivDiv", _shape_sym, _dofs_divdiv, _floor_divdiv, ("normal_normal", "combo")
    ),
    "DivDivMinus": FamilySpec(
        "DivDivMinus", _shape_sym_xxt, _dofs_divdiv_minus, _floor_divdiv, ("normal_normal", "combo")
    ),
}


def build_element(frame: SimplexFrame, family: str, k: int) -> Element:
    spec = FAMILIES.get(family)
    if spec is None:
        raise UnsupportedTagError(f"unknown element family {family!r}")
    if k < spec.floor(frame.d):
        raise BadDegreeError(
            f"{family} needs k >= {spec.floor(frame.d)} in dimension {frame.d}"
        )
    space = spec.shape(frame, k)
    dofs = spec.dofs(frame, k)
    members = space.members()
    rows = []
    applied = [(dof, []) for dof in dofs]
    for member in members:
        cache: dict = {}
        for dof, vals in applied:
            vals.append(apply_dof(frame, dof, member, cache))
    matrix = Matrix([vals for _, vals in applied], len(members))
    return Element(family, frame, k, space, dofs, matrix)


def check_unisolvence(element: Element) -> CheckResult:
    n_dofs = len(element.dofs)
    dim = element.space.dim
    ctx = {"family": element.family, "d": element.frame.d, "k": element.k, "dim": dim, "dofs": n_dofs}
    if n_dofs != dim:
        return CheckResult("unisolvence", False, expected=dim, got=n_dofs, context=ctx)
    r = element.dof_matrix.rank()
    if r == dim:
        return CheckResult("unisolvence", True, expected=dim, got=r, context=ctx)
    ker = element.dof_matrix.null_space()
    witness = poly.from_coeff_vector(
        element.frame.d,
        element.space.kind,
        element.space.k,
        element.space.basis.matmul(ker).column(0),
    )
    ctx["kernel_witness"] = poly.poly_to_json(witness)
    return CheckResult("unisolvence", False, expected=dim, got=r, context=ctx)


def nodal_basis(element: Element) -> list[Polynomial]:
    """Shape functions dual to the DoFs: dof_i(phi_j) = delta_ij exactly."""
    n = element.space.dim
    try:
        sol = element.dof_matrix.solve(Matrix.identity(n))
    except (SingularMatrixError, exact.DimensionMismatchError) as err:
        raise SingularMatrixError(f"element is not unisolvent: {err}") from None
    coeffs = element.space.basis.matmul(sol)
    d = element.frame.d
    return [
        poly.from_coeff_vector(d, element.space.kind, element.space.k, coeffs.column(j))
        for j in range(n)
    ]


def _declared_traces(element: Element, tau: Polynomial) -> dict[str, list[Polynomial]]:
    """The family's conforming trace data on every codim-1 face."""
    frame = element.frame
    out: dict[str, list[Polynomial]] = {}
    cache: dict = {}
    d = frame.d
    for mode in FAMILIES[element.family].trace_modes:
        vals = []
        for face in frame.faces(1):
            g = face.normal_frame[0]
            if mode == "vector_normal":
                vals.append(face.restrict(_vec_dot_g(tau, g)))
            elif mode == "tensor_normal":
                taug = _tau_g(face, tau)
                for t in range(d):
                    vals.append(face.restrict(taug.component(t)))
            elif mode == "normal_normal":
                vals.append(_restricted_normal_product(face, tau, g, g))
            elif mode == "normal_div":
                w = _divergence(tau, cache)
                vals.append(face.restrict(_vec_dot_g(w, g)))
            elif mode == "combo":
                w = _divergence(tau, cache)
                vals.append(
                    face.restrict(_vec_dot_g(w, g)) + surface_div(face, _tau_g(face, tau))
                )
        out[mode] = vals
    return out


def trace_block_rank(element: Element) -> CheckResult:
    """The shared DoF block alone must pin down the declared traces: every
    shape function annihilated by all shared DoFs has exactly zero trace."""
    shared_rows = [i for i, dof in enumerate(element.dofs) if dof.shared]
    sub = Matrix([element.dof_matrix.row(i) for i in shared_rows], element.dof_matrix.cols)
    ker = sub.null_space()
    frame = element.frame
    ctx = {
        "family": element.family,
        "d": frame.d,
        "k": element.k,
        "shared_dofs": len(shared_rows),
        "kernel_dim": ker.cols,
    }
    coeffs = element.space.basis.matmul(ker)
    for j in range(ker.cols):
        tau = poly.from_coeff_vector(frame.d, element.space.kind, element.space.k, coeffs.column(j))
        for mode, traces in _declared_traces(element, tau).items():
            for tr in traces:
                if not tr.is_zero():
                    ctx["nonzero_trace_mode"] = mode
                    return CheckResult("trace-block", False, expected="zero trace", got=mode, context=ctx)
    expected_kernel = None
    if element.family in ("BDM", "RT", "HdivS", "HdivS_split"):
        fam = {
            "BDM": "div_vector",
            "RT": "div_RT_minus",
            "HdivS": "div_sym",
            "HdivS_split": "div_sym",
        }[element.family]
        bubble = spaces.bubble_space(frame, fam, element.k)
        kernel_space = PolySpace(
            frame, element.space.kind, element.space.k, exact.image_basis(coeffs), "shared_kernel"
        )
        if not spaces.space_equal(kernel_space, bubble):
            ctx["bubble_dim"] = bubble.dim
            return CheckResult(
                "trace-block", False, expected="kernel == bubble", got=ker.cols, context=ctx
            )
        expected_kernel = bubble.dim
        ctx["bubble_dim"] = expected_kernel
    return CheckResult("trace-block", True, expected=expected_kernel, got=ker.cols, context=ctx)


# -- export -------------------------------------------------------------------------------


def _dof_to_json(dof: DoFDescriptor) -> dict:
    out = {"kind": dof.kind, "shared": dof.shared, "label": dof.label}
    if dof.face is not None:
        out["face"] = list(dof.face.vertex_ids)
    if dof.vertex is not None:
        out["vertex"] = dof.vertex
    if dof.comp is not None:
        out["comp"] = list(dof.comp)
    if dof.test is not None:
        out["test"] = poly.poly_to_json(dof.test)
    return out


def element_to_json(element: Element, with_nodal_basis: bool = True) -> dict:
    data = {
        "schema": "femforge-element/1",
        "family": element.family,
        "d": element.frame.d,
        "k": element.k,
        "vertices": [
            [f"{x.numerator}/{x.denominator}" for x in v] for v in element.frame.vertices
        ],
        "dim": element.space.dim,
        "shape_basis": [poly.poly_to_json(p) for p in element.space.members()],
        "dofs": [_dof_to_json(dof) for dof in element.dofs],
        "certification": [
            check_unisolvence(element).as_dict(),
            trace_block_rank(element).as_dict(),
        ],
    }
    if with_nodal_basis:
        data["nodal_basis"] = [poly.poly_to_json(p) for p in nodal_basis(element)]
    return data
