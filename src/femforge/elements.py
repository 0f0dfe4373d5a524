"""The finite element catalog.

Each family assembles a Ciarlet triple: a simplex, a shape-function space and
an ordered list of degree-of-freedom functionals.  A family is declared as
the paper builds it (``FamilySpec``): its face DoFs, of one of four kinds
(normal moments; vertex values, normal-normal and tangential-normal
moments; that plus normal-div moments; or that with the tangential-normal
moments interior, plus combo moments), then a table of interior moment
blocks, each against a test space of degree k plus a shift: plain
polynomial spaces, and the null spaces and orthogonal complements of the
bubble split.  A negative degree gives no moments.  Every shared DoF is a
face DoF, so the patch check builds the face DoFs alone.

The square DoF matrix (rows = DoFs, columns = shape basis members) is
assembled with exact face and cell moments.  Both certificates go through
the paper's split of the shape space into a trace part and a bubble part:
the shared DoF rows S are eliminated once per element, and their kernel K
(the shape functions with zero shared DoFs) serves both.  The elimination
runs in Bernstein coordinates, where that split is local: with G the integer
matrix of the barycentric monomials lambda^alpha, |alpha| = k
(``SimplexFrame.bernstein``), a face's DoFs see only the lambda^alpha that
do not vanish on it, so S G is sparse, and K = G ker(S G).  ``_shared_block`` forms S G for the element
certificates and for the patch check of ``conformity`` alike, on the leading
degree-k' block of the shape basis (k' = 0 included), from the faces'
Bernstein traces rather than a product with G.  A DoF matrix that
``build_element`` did not assemble is eliminated as it stands.  The DoF matrix
[S; I] is invertible exactly when S has full row rank and the square
interior block I G K is nonsingular; any other case falls back to the exact
rank of the full matrix and a kernel witness.  The trace-block check
multiplies the Bernstein traces with K, and proves ker S equal to the
paper's bubble space with one product and one rank in member coordinates
(of the element's own shape basis, through one RREF where that basis is not
the catalog's).

Every DoF is a row over the shaped monomial frame of the shape space, built
from the chart mass and frame Gram matrices of ``integrate``, one run of
DoFs that share a face and a trace at a time.  A face run multiplies its
test moments against the chart mass by each scalar restriction table of its
trace (``Face.trace_parts``, ``Face.table``) and scatters the products into
the component columns by the trace's weights, so no trace matrix is formed.
Applying a DoF to a polynomial is a sparse dot product with its
coefficients, over the polynomial's memoized integer terms
(``Polynomial.int_terms``; the members of a shape space come with them).
``build_element`` clears each row of the DoF matrix to integers as soon as
it is applied.  The Bernstein rows of the shared DoFs are the same products
with the Bernstein tables.

Face functionals use the scaled normals g_i = -grad(lambda_i) and canonical
chart measures, so every DoF equals a fixed positive multiple of its
unit-normal counterpart; tangential edge test spaces pair through the chart's
inverse Gram so that their span matches the tangential first-kind edge space
exactly.  Neither rescaling nor recombination affects rank, unisolvence or
single-valuedness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Callable, Sequence

from . import exact, poly, spaces
from .exact import Matrix, SingularMatrixError, _cleared
from .integrate import chart_mass, frame_gram
from .poly import Polynomial
from .report import CheckResult
from .simplex import Face, SimplexFrame, _weights
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
    # (dof_matrix, shared row indices, rank of S, change of basis G_s, basis
    # of ker(S G_s), degree of its Bernstein block); see _split_memo
    _split: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # the DoF matrix build_element assembled from ``dofs``; None on any other Element
    _assembled: Matrix | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.space.dim


# -- DoF rows --------------------------------------------------------------------------
#
# A DoF is a row over the shaped monomial frame (kind, d, k) of the shape space.
# Rows are assembled per run of DoFs sharing a kind, a face and a component pair:
#   face moments      tests_j^T x chart mass x scalar table, scattered by the
#                     trace's weights (Face.trace_parts, exact.kron_sum)
#   interior moments  tests^T x frame Gram x operator (identity, div, div div)
#   vertex values     the scalar table of the vertex
# and kept as integer rows with one denominator each.

_FACE_TRACES = {
    FACE_SCALAR_NORMAL: "vector_normal",
    FACE_TN: "tangential",
    FACE_NORMAL_DIV: "normal_div",
    FACE_DIVDIV_COMBO: "combo",
}
_FACE_KINDS = {FACE_NN, *_FACE_TRACES}


class _Row:
    """One DoF as ``ints / den`` over the frame (kind, d, k)."""

    __slots__ = ("dof", "kind", "k", "den", "ints", "index")

    def __init__(self, dof: DoFDescriptor, kind: str, k: int, row: tuple[int, tuple[int, ...]], index: dict):
        self.dof, self.kind, self.k, self.index = dof, kind, k, index
        self.den, self.ints = row

    def dot(self, tau: Polynomial) -> Fraction:
        l, _, items = tau.int_terms()
        ints, index = self.ints, self.index
        s = sum(ints[index[key]] * v for key, v in items)
        return Fraction(s, self.den * l) if s else _ZERO


def _run_key(dof: DoFDescriptor) -> tuple:
    return (dof.kind, id(dof.face), dof.vertex, dof.comp if dof.kind == FACE_NN else None)


def _dof_matrix(frame: SimplexFrame, dofs: Sequence[DoFDescriptor], kind: str, k: int,
                bernstein: bool = False) -> Matrix:
    """The rows of ``dofs``, in order, as one matrix over the frame (kind, d, k),
    or with ``bernstein`` against the Bernstein columns of G(kind, k)."""
    runs = [list(run) for _, run in groupby(dofs, key=_run_key)]
    return Matrix.vstack([_run_rows(frame, run, kind, k, bernstein) for run in runs],
                         len(poly.frame(kind, frame.d, k)))


def _dof_rows(frame: SimplexFrame, dofs: Sequence[DoFDescriptor], kind: str, k: int) -> dict[int, _Row]:
    """The rows of ``dofs`` over the frame (kind, d, k), keyed by ``id(dof)``."""
    index = {key: i for i, key in enumerate(poly.frame(kind, frame.d, k))}
    mat = _dof_matrix(frame, dofs, kind, k)
    return {id(dof): _Row(dof, kind, k, mat.int_row(i), index) for i, dof in enumerate(dofs)}


def _coeff_rows(tests: Sequence[Polynomial]) -> tuple[Matrix, int]:
    deg = max(max(q.degree() for q in tests), 0)
    return Matrix.from_int_rows([poly.coeff_row(q, deg) for q in tests]), deg


def _run_rows(frame: SimplexFrame, run: list[DoFDescriptor], kind: str, k: int, bernstein: bool = False) -> Matrix:
    first = run[0]
    d = frame.d
    width = len(poly.frame(kind, d, k))
    if first.kind == VERTEX_EVAL:
        # the values at the vertex: the scalar table of a 0-dimensional face
        den, values = frame.faces(d)[first.vertex].table(k, None, bernstein).int_row(0)
        nc = poly.ncomp(kind, d)
        rows = []
        for dof in run:
            c, sign = poly.entry_comp(kind, d, *dof.comp)
            row = [0] * width
            if sign:
                row[c::nc] = [sign * v for v in values]
            rows.append((den, row))
        return Matrix.from_int_rows(rows, width)
    tests = [dof.test for dof in run]
    if first.face is None:
        q, deg = _coeff_rows(tests)
        if first.kind == INTERIOR_PAIR:
            return q.matmul(frame_gram(frame, kind, deg, k))
        if first.kind == INTERIOR_DIV:
            name = "div" if kind == "vector" else "div_rowwise"
        elif first.kind == INTERIOR_DIVDIV:
            name = "divdiv"
        else:
            raise UnsupportedTagError(f"unknown DoF kind {first.kind!r}")
        tkind, tk = poly.operator_target(name, k)
        return q.matmul(frame_gram(frame, tkind, deg, tk)).matmul(poly.operator_table(name, kind, d, k))
    face = first.face
    if first.kind == FACE_NN:
        a, b = (face.normal_frame[i] for i in first.comp)
        chart_k, parts = k, ([(_weights(kind, d, a, b), None)],)
    elif first.kind in _FACE_TRACES:
        chart_k, parts = face.trace_parts(kind, k, _FACE_TRACES[first.kind])
    else:
        raise UnsupportedTagError(f"unknown DoF kind {first.kind!r}")
    # sum_j (tests_j^T M) T_j over the test components j, with each trace
    # T_j = sum_p table_p (x) w_p: the products with the scalar tables,
    # scattered by the weights
    terms = []
    for j, trace in enumerate(parts):
        q, deg = _coeff_rows([test if test.kind == "scalar" else test.component(j) for test in tests])
        lhs = q.matmul(chart_mass(face.dim, deg, chart_k))
        terms += [(lhs.matmul(face.table(k, op, bernstein)), w) for w, op in trace]
    return exact.kron_sum(terms, poly.ncomp(kind, d))


def apply_dof(frame: SimplexFrame, dof: DoFDescriptor, tau: Polynomial, cache: dict | None = None) -> Fraction:
    """Evaluate one DoF functional on any polynomial of the element's shape.

    The value is the DoF's row over tau's monomial frame dotted with tau's
    coefficients; ``cache`` may hold rows built by ``_dof_rows``, keyed by
    ``id(dof)``, and a row that does not cover tau is built afresh."""
    row = cache.get(id(dof)) if cache is not None else None
    deg = tau.int_terms()[1]
    if row is None or row.dof is not dof or row.kind != tau.kind or row.k < deg:
        row = _dof_rows(frame, [dof], tau.kind, max(deg, 0))[id(dof)]
    return row.dot(tau)


# -- face DoFs ---------------------------------------------------------------------------


def _chart_monomials(face: Face, deg: int) -> list[Polynomial]:
    return [Polynomial(face.dim, "scalar", {(0, e): _ONE}) for e in poly.monomials(face.dim, deg)]


def _chart_nd_twisted(face: Face, deg: int) -> list[Polynomial]:
    """Basis of Ginv . (chart edge space): pairs with T^T(tau g) so that the
    functional span equals the face-intrinsic tangential edge moments."""
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


def _facet_dofs(frame: SimplexFrame, kind: str, deg: int, shared: bool, name: str,
                tests: Callable[[Face, int], list[Polynomial]] = _chart_monomials) -> list[DoFDescriptor]:
    """Moments of ``kind`` against ``tests(face, deg)`` on each facet."""
    return [DoFDescriptor(kind, shared, face=face, test=q, label=f"{name}:f{face.vertex_ids}:q{t}")
            for face in frame.faces(1) for t, q in enumerate(tests(face, deg))]


def _normal_faces(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    return _facet_dofs(frame, FACE_SCALAR_NORMAL, k, True, "normal")


def _sym_faces(frame: SimplexFrame, k: int, tn_shared: bool = True) -> list[DoFDescriptor]:
    return (_vertex_dofs(frame) + _nn_dofs(frame, k)
            + _facet_dofs(frame, FACE_TN, k - 2, tn_shared, "tn", _chart_nd_twisted))


def _ndiv_faces(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    return _sym_faces(frame, k) + _facet_dofs(frame, FACE_NORMAL_DIV, k - 1, True, "ndiv")


def _combo_faces(frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
    """The tangential-normal moments are interior here; the combo moments are shared."""
    return _sym_faces(frame, k, False) + _facet_dofs(frame, FACE_DIVDIV_COMBO, k - 1, True, "combo")


# -- interior test spaces ----------------------------------------------------------------
#
# Each is tests(frame, deg) for deg >= 0: the null spaces and orthogonal
# complements of the paper's bubble split, and plain polynomial spaces.

_Tests = Callable[[SimplexFrame, int], list[Polynomial]]


def _members(tag: str) -> _Tests:
    return lambda frame, deg: spaces.build_standard(frame, tag, deg).members()


def _complement(tag: str, sub_tag: str, sub_deg: int, name: str) -> _Tests:
    """The members of ``tag`` orthogonal to ``sub_tag`` of degree
    min(sub_deg, deg), labelled ``name.format(deg)``."""
    def tests(frame: SimplexFrame, deg: int) -> list[Polynomial]:
        big = spaces.build_standard(frame, tag, deg)
        small = spaces.build_standard(frame, sub_tag, min(sub_deg, deg))
        return spaces.orthocomplement_in(big, small, name.format(deg)).members()
    return tests


def _def_image(tag: str) -> _Tests:
    return lambda frame, deg: spaces.image_space(
        "def", spaces.build_standard(frame, tag, deg), f"def_{tag}_{deg}").members()


def _ker_sym(frame: SimplexFrame, deg: int) -> list[Polynomial]:
    return spaces.ker_mat_x_sym(frame, deg).members()


_P_PERP_RM = _complement("P_vector", "RM", 0, "P{}_vec_perp_RM")
_KER = (INTERIOR_PAIR, _ker_sym, -2, "ker")
_SKW_X = (INTERIOR_DIV, _complement("skwPx", "skwPx", 0, "skwPx{}_mod_const"), -3, "skwx")
_SCALAR_MOD_P1 = _complement("P_scalar", "P_scalar", 1, "P{}_mod_P1")


# -- family definitions ---------------------------------------------------------------------


@dataclass
class FamilySpec:
    """A family: its shape space tag, its face DoFs ``faces(frame, k)`` and
    its interior moments, one block (DoF kind, tests(frame, deg), degree
    shift, label) per test space of degree k + shift."""

    name: str
    shape: str  # the shape space's spaces.build_standard tag
    faces: Callable[[SimplexFrame, int], list[DoFDescriptor]]
    interior: tuple[tuple[str, _Tests, int, str], ...]
    floor: Callable[[int], int]
    trace_modes: tuple[str, ...]  # declared conforming traces
    stability_floor: Callable[[int], int] | None = None

    def dofs(self, frame: SimplexFrame, k: int) -> list[DoFDescriptor]:
        """The face DoFs, then each interior block in order; a negative
        degree gives no moments."""
        out = self.faces(frame, k)
        for kind, tests, shift, label in self.interior:
            if k + shift >= 0:
                out += [DoFDescriptor(kind, False, test=q, label=f"{label}:q{t}")
                        for t, q in enumerate(tests(frame, k + shift))]
        return out


_TENSOR_NORMAL = ("tensor_normal",)
_NORMAL_DIV = ("tensor_normal", "normal_div")
_COMBO = ("normal_normal", "combo")

FAMILIES: dict[str, FamilySpec] = {spec.name: spec for spec in (
    FamilySpec("BDM", "P_vector", _normal_faces, ((INTERIOR_PAIR, _members("ND"), -2, "nd"),),
               lambda d: 1, ("vector_normal",)),
    FamilySpec("RT", "RT_shape", _normal_faces, ((INTERIOR_PAIR, _members("P_vector"), -1, "pk-1"),),
               lambda d: 0, ("vector_normal",)),
    FamilySpec("HdivS", "P_sym", _sym_faces, ((INTERIOR_PAIR, _members("P_sym"), -2, "psym"),),
               lambda d: 2, _TENSOR_NORMAL, lambda d: d + 1),
    FamilySpec("HdivS_split", "P_sym", _sym_faces, ((INTERIOR_DIV, _P_PERP_RM, -1, "div"), _KER),
               lambda d: 2, _TENSOR_NORMAL, lambda d: d + 1),
    FamilySpec("HdivS_minus", "P_minus_sym", _sym_faces, (_KER, (INTERIOR_DIV, _P_PERP_RM, 0, "div")),
               lambda d: 2, _TENSOR_NORMAL, lambda d: d + 1),
    FamilySpec("DivDivPlus", "P_sym", _ndiv_faces, ((INTERIOR_DIVDIV, _SCALAR_MOD_P1, -2, "dd"), _SKW_X, _KER),
               lambda d: max(d, 3), _NORMAL_DIV),
    FamilySpec("DivDivPlusMinus", "P_sym_plus_xxT", _ndiv_faces,
               ((INTERIOR_DIVDIV, _SCALAR_MOD_P1, -1, "dd"), _SKW_X, _KER), lambda d: max(d, 3), _NORMAL_DIV),
    FamilySpec("DivDiv", "P_sym", _combo_faces, ((INTERIOR_PAIR, _def_image("ND"), -3, "defnd"), _KER),
               lambda d: max(d, 3), _COMBO),
    FamilySpec("DivDivMinus", "P_sym_plus_xxT", _combo_faces,
               ((INTERIOR_PAIR, _def_image("P_vector"), -2, "defp"), _KER), lambda d: max(d, 3), _COMBO),
)}


def build_element(frame: SimplexFrame, family: str, k: int) -> Element:
    spec = FAMILIES.get(family)
    if spec is None:
        raise UnsupportedTagError(f"unknown element family {family!r}")
    if k < spec.floor(frame.d):
        raise BadDegreeError(
            f"{family} needs k >= {spec.floor(frame.d)} in dimension {frame.d}"
        )
    space = spaces.build_standard(frame, spec.shape, k)
    dofs = spec.dofs(frame, k)
    members = space.members()
    values = []
    for _, run in groupby(dofs, key=_run_key):
        # one run's rows at a time, released once applied; each DoF row of
        # the matrix is cleared to integers as soon as it is applied
        rows = _dof_rows(frame, list(run), space.kind, space.k)
        values += [_cleared([apply_dof(frame, row.dof, m, rows) for m in members]) for row in rows.values()]
    element = Element(family, frame, k, space, dofs, Matrix.from_int_rows(values, len(members)))
    element._assembled = element.dof_matrix
    return element


def _bernstein_lead(space: PolySpace) -> int | None:
    """The largest k' >= 0 whose frame (kind, d, k') is a leading identity
    block of the basis, diag(I_n, H), or None when the basis has no such
    block; at k' = 0, G(kind, 0) is the identity."""
    basis = space.basis
    lead = 0
    while lead < basis.cols:
        den, ints = basis.int_row(lead)
        if den != 1 or ints[lead] != 1 or ints.count(0) != basis.cols - 1:
            break
        lead += 1
    for k in range(space.k, -1, -1):
        n = len(poly.frame(space.kind, space.frame.d, k))
        if n <= lead and not any(any(basis.int_row(i)[1][:n]) for i in range(n, basis.rows)):
            return k
    return None


def _change_of_basis(space: PolySpace, lead: int | None) -> Matrix:
    cols = space.basis.cols
    if lead is None:
        return Matrix.identity(cols)
    g = space.frame.bernstein(space.kind, lead)
    return g if g.cols == cols else Matrix.block_diag(g, Matrix.identity(cols - g.cols))


def _split_traces(face: Face, space: PolySpace, lead: int | None, mode: str) -> tuple[Matrix, ...]:
    """The traces of ``mode`` on ``face`` against ``space.basis`` times
    ``_change_of_basis(space, lead)``: the Bernstein traces of degree
    ``lead`` on the leading block, beside the monomial traces of the basis
    columns past it (zero rows pad the lower chart degree)."""
    n = len(poly.frame(space.kind, space.frame.d, lead)) if lead is not None else 0
    if n == space.basis.cols:
        return face.bernstein_traces(space.kind, lead, mode)[1]
    tail = space.basis.take(range(space.basis.rows), n)
    out = [t.matmul(tail) for t in face.traces(space.kind, space.k, mode)[1]]
    if n:
        lead_traces = face.bernstein_traces(space.kind, lead, mode)[1]
        out = [Matrix.vstack([b, Matrix.zeros(t.rows - b.rows, n)], n).hstack(t) for b, t in zip(lead_traces, out)]
    return tuple(out)


def _shared_block(frame: SimplexFrame, dofs: Sequence[DoFDescriptor], space: PolySpace,
                  tail: Callable[[int], Matrix]) -> tuple[Matrix, Matrix, int] | None:
    """(S G_s, G_s, k') for the rows S of ``dofs`` against ``space.basis``,
    G_s = ``_change_of_basis(space, k')``: the DoFs' own Bernstein rows of
    degree k', beside ``tail(n)``, S times the basis columns from n on.  None
    where the basis has no Bernstein block or a DoF is neither a face moment
    nor a vertex value."""
    lead = _bernstein_lead(space)
    if lead is None or any(dof.kind != VERTEX_EVAL and (dof.face is None or dof.kind not in _FACE_KINDS)
                           for dof in dofs):
        return None
    block = _dof_matrix(frame, dofs, space.kind, lead, True)
    if block.cols < space.basis.cols:
        block = block.hstack(tail(block.cols))
    return block, _change_of_basis(space, lead), lead


def _split_memo(element: Element) -> tuple:
    """(dof_matrix, shared row indices, rank of the shared block S, G_s, K,
    k') with ker S = G_s K, from one elimination of S per element.

    The DoF matrix that ``build_element`` assembled is eliminated in the
    Bernstein coordinates of ``_shared_block``, its columns past the leading
    block taken as they stand; any other DoF matrix is eliminated as it is,
    with G_s the identity (k' None).  K = ker(S G_s) as columns.  Only the
    kernel is kept, not the echelon form; the memo is dropped when the DoF
    matrix or the shared rows change."""
    shared = [i for i, dof in enumerate(element.dofs) if dof.shared]
    memo = element._split
    if memo is None or memo[0] is not element.dof_matrix or memo[1] != shared:
        m, space = element.dof_matrix, element.space
        block = None
        if m is element._assembled:
            block = _shared_block(element.frame, [element.dofs[i] for i in shared], space,
                                  lambda n: m.take(shared, n))
        s, g, lead = block or (m.take(shared), _change_of_basis(space, None), None)
        ker = s.null_space()
        memo = element._split = (m, shared, m.cols - ker.cols, g, ker, lead)
    return memo


def check_unisolvence(element: Element) -> CheckResult:
    n_dofs = len(element.dofs)
    dim = element.space.dim
    ctx = {"family": element.family, "d": element.frame.d, "k": element.k, "dim": dim, "dofs": n_dofs}
    if n_dofs != dim:
        return CheckResult("unisolvence", False, expected=dim, got=n_dofs, context=ctx)
    _, shared, rank_s, g, ker, _ = _split_memo(element)
    if rank_s == len(shared):
        # A = [S; I] with S of full row rank: A x = 0 iff x = G_s K y and I G_s K y = 0
        interior = element.dof_matrix.take([i for i, dof in enumerate(element.dofs) if not dof.shared])
        if interior.matmul(g).matmul(ker).rank() == ker.cols:
            return CheckResult("unisolvence", True, expected=dim, got=dim, context=ctx)
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


def _nonzero_trace_mode(faces, modes, space: PolySpace, lead: int | None, coeffs: Matrix) -> str | None:
    """The first of ``modes`` in which a column of ``coeffs`` (coordinates
    against ``space.basis`` times ``_change_of_basis(space, lead)``) has a
    nonzero trace on one of ``faces``, or None.  This depends only on the
    span of the columns, not on their basis."""
    for mode in modes:
        for face in faces:
            if any(not t.matmul(coeffs).is_zero() for t in _split_traces(face, space, lead, mode)):
                return mode
    return None


def _first_nonzero_trace(faces, kind: str, k: int, modes, coeffs: Matrix):
    """The first column of ``coeffs`` (shape coefficients over the frame
    (kind, d, k)) with a nonzero trace of one of ``modes`` on ``faces``, as
    (column, mode, the trace as a chart polynomial), or None.  Columns come
    first and modes second, as in a check of one column at a time."""
    best = None
    for mode in modes:
        for face in faces:
            chart_k, mats = face.traces(kind, k, mode)
            for t in mats:
                vals = t.matmul(coeffs)
                if vals.is_zero():
                    continue
                j = next(j for j in range(vals.cols) if any(vals.column(j)))
                if best is None or j < best[0]:
                    best = (j, mode, poly.from_coeff_vector(face.dim, "scalar", chart_k, vals.column(j)))
    return best


def _expected_kernel(element: Element) -> Matrix | None:
    """Columns C spanning, in the family's catalog shape basis, the bubble
    that ker S must equal, where one is known: the paper's generators
    (identity basis), [B | W_low; 0 | I] for HdivS_minus (B the generators,
    W the enrichment, W_top the basis past P_k), and for RT a trace kernel."""
    frame, k, family = element.frame, element.k, element.family
    if family == "BDM":
        return spaces.bubble_generator_matrix(frame, "vector", k)
    if family == "RT":
        catalog = spaces.build_standard(frame, FAMILIES[family].shape, k)
        return spaces.trace_matrix(frame, catalog, "vector_normal").null_space()
    if family not in ("HdivS", "HdivS_split", "HdivS_minus"):
        return None
    gens = spaces.bubble_generator_matrix(frame, "sym", k)
    if family != "HdivS_minus":
        return gens
    w = spaces.bubble_enrichment_sym(frame, k).basis
    low = gens.hstack(w.take(range(gens.rows)))
    return Matrix.vstack([low, Matrix.zeros(w.cols, gens.cols).hstack(Matrix.identity(w.cols))], low.cols)


def _member_coords(space: PolySpace, catalog: PolySpace, coords: Matrix) -> Matrix | None:
    """``coords`` against ``catalog.basis`` re-expressed against
    ``space.basis``, from one RREF; None outside the span of that basis."""
    k = max(space.k, catalog.k)
    basis = space.with_degree(k).basis
    red, pivots = basis.hstack(catalog.with_degree(k).basis.matmul(coords)).rref()
    if pivots != tuple(range(space.dim)):
        return None
    return red.take(range(space.dim), space.dim)


def trace_block_rank(element: Element) -> CheckResult:
    """The shared DoF block alone must pin down the declared traces: every
    shape function annihilated by all shared DoFs has exactly zero trace,
    and ker S equals a known bubble C: S C = 0 and rank C = dim ker S."""
    _, shared_rows, _, _, ker, lead = _split_memo(element)
    frame = element.frame
    ctx = {
        "family": element.family,
        "d": frame.d,
        "k": element.k,
        "shared_dofs": len(shared_rows),
        "kernel_dim": ker.cols,
    }
    mode = _nonzero_trace_mode(frame.faces(1), FAMILIES[element.family].trace_modes, element.space, lead, ker)
    if mode is not None:
        ctx["nonzero_trace_mode"] = mode
        return CheckResult("trace-block", False, expected="zero trace", got=mode, context=ctx)
    coords = _expected_kernel(element)
    if coords is None:
        return CheckResult("trace-block", True, expected=None, got=ker.cols, context=ctx)
    dim = ctx["bubble_dim"] = coords.rank()
    catalog = spaces.build_standard(frame, FAMILIES[element.family].shape, element.k)
    if element.space.basis != catalog.basis:
        # an element built with another shape basis: C against that basis
        coords = _member_coords(element.space, catalog, coords)
    if dim != ker.cols or coords is None or not element.dof_matrix.take(shared_rows).matmul(coords).is_zero():
        return CheckResult("trace-block", False, expected="kernel == bubble", got=ker.cols, context=ctx)
    return CheckResult("trace-block", True, expected=dim, got=ker.cols, context=ctx)


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
    space = element.space
    # the shape basis in canonical form, whatever basis the space was built with
    canonical = PolySpace(element.frame, space.kind, space.k, exact.image_basis(space.basis))
    data = {
        "schema": "femforge-element/1",
        "family": element.family,
        "d": element.frame.d,
        "k": element.k,
        "vertices": [
            [f"{x.numerator}/{x.denominator}" for x in v] for v in element.frame.vertices
        ],
        "dim": space.dim,
        "shape_basis": [poly.poly_to_json(p) for p in canonical.members()],
        "dofs": [_dof_to_json(dof) for dof in element.dofs],
        "certification": [
            check_unisolvence(element).as_dict(),
            trace_block_rank(element).as_dict(),
        ],
    }
    if with_nodal_basis:
        data["nodal_basis"] = [poly.poly_to_json(p) for p in nodal_basis(element)]
    return data
