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

An element is its family, frame, degree k and DoFs, a tuple; its shape space
is the family's catalog space of degree k (``spaces.build_standard``), and
the square DoF matrix (rows = DoFs, columns = shape basis members) has no
other source.  It is assembled from the DoFs, one DoF and one member at a
time, when first read (by the export, the nodal basis and the fallbacks of
the unisolvence and patch checks); the certificates do not read it.  Both go
through the paper's split of the shape space into a trace part and a bubble
part: the shared DoF rows S are eliminated once per element, and their
kernel K (the shape functions with zero shared DoFs) serves both.  The
elimination runs in Bernstein coordinates, where that split is local: with G
the integer matrix of the barycentric monomials lambda^alpha, |alpha| = k
(``SimplexFrame.bernstein``), a face's DoFs see only the lambda^alpha that
do not vanish on it, so S G is sparse, and K = G ker(S G).  Every catalog
basis is diag(I_n, H), n the size of the frame (kind, d, k), held as n and H
(``PolySpace.lead``, ``tail``): H is empty for the full polynomial spaces, a
direct sum of degree k + 1 otherwise.  So G_s = diag(G, I), and
``_rows_times_g_s`` forms S G_s for the element
certificates and for the patch check of ``conformity`` alike, from the
faces' Bernstein traces rather than a product with G; it forms the interior
block I G_s the same way, from the closed-form Bernstein moments of
``integrate.bernstein_gram``.  The columns past the leading block are the
DoF rows times H.  The DoF matrix [S; I] is invertible exactly when S has
full row rank and the square interior block I G_s K is nonsingular; any
other case falls back to the exact rank of the full matrix and a kernel
witness.  The trace-block check multiplies the Bernstein traces with K, and
proves ker S equal to the paper's bubble C, which the catalog space holds by
construction, by S C = 0 and rank C = dim ker S, in Bernstein coordinates
alone: the generators lambda_i lambda_j lambda^beta c_ij are sparse integer
columns C_B over G, met by the Bernstein rows S_B of the shared DoFs, the
leading block of S G_s.  The HdivS_minus enrichment is G C_B times its
coordinates at degree k + 1, so S_B C_B = 0 at that degree kills it too.
Every face DoF vanishes on the RT bubble, the trace kernel of the shape
space, which has no trace.

A DoF is a row over the shaped monomial frame of the shape space (see the
DoF rows section below); applying it to a polynomial is a sparse dot
product with the polynomial's memoized integer terms
(``Polynomial.int_terms``), and each row of the DoF matrix is cleared to
integers as soon as it is applied.

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
from functools import cached_property
from itertools import groupby
from typing import Callable, Sequence

from . import exact, poly, spaces
from .exact import Matrix, SingularMatrixError, _cleared, rref_kernel
from .integrate import bernstein_gram, chart_mass, frame_gram
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


@dataclass(frozen=True)
class DoFDescriptor:
    kind: str
    shared: bool
    face: Face | None = None
    vertex: int | None = None
    comp: tuple | None = None
    test: Polynomial | None = None
    label: str = ""


@dataclass(frozen=True)
class Element:
    """A family's element on ``frame``, frozen: its degree and its DoFs (a
    tuple), the only source of its read-only DoF matrix.  Its shape space is
    the family's catalog space of degree k."""

    family: str
    frame: SimplexFrame
    k: int
    dofs: tuple[DoFDescriptor, ...]  # frozen, so that no edit leaves the caches below stale

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedTagError(f"unknown element family {self.family!r}")
        object.__setattr__(self, "dofs", tuple(self.dofs))

    @property
    def space(self) -> PolySpace:
        return spaces.build_standard(self.frame, FAMILIES[self.family].shape, self.k)

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def dof_matrix(self) -> Matrix:
        """Rows = DoFs, columns = shape basis members, assembled from ``dofs``
        at the first read, one DoF and one member at a time."""
        frame, space = self.frame, self.space
        members = space.members()
        values = []
        for _, run in groupby(self.dofs, key=_run_key):
            # one run's rows at a time, released once applied; each DoF row of
            # the matrix is cleared to integers as soon as it is applied
            run = list(run)
            rows = _dof_rows(frame, run, space.kind, space.k)
            values += [_cleared([apply_dof(frame, dof, m, rows) for m in members]) for dof in run]
        return Matrix.from_int_rows(values, len(members))

    @cached_property
    def _split(self) -> tuple:
        """(shared row indices, rank of the shared block S, K, verdict) with
        ker S = G_s K, G_s = diag(G(kind, k), I), from one
        elimination of S G_s (``_rows_times_g_s``) per element, whether its
        DoF matrix was read or not.  K = ker(S G_s) as columns; verdict is
        ``_bubble_verdict``."""
        shared = [i for i, dof in enumerate(self.dofs) if dof.shared]
        dofs = [self.dofs[i] for i in shared]
        s_g = _rows_times_g_s(self.frame, dofs, self.space, self.k)
        ker = s_g.null_space()
        return shared, s_g.cols - ker.cols, ker, _bubble_verdict(self, dofs, s_g)


# -- DoF rows --------------------------------------------------------------------------
#
# A DoF is a row over the shaped monomial frame (kind, d, k) of the shape space.
# Rows are assembled per run of DoFs sharing a kind, a face and a component pair:
#   face moments      tests_j^T x chart mass x scalar table, scattered by the
#                     trace's weights (Face.trace_parts, exact.kron_sum)
#   interior moments  tests^T x frame Gram x operator (identity, div, div div)
#   vertex values     the scalar table of the vertex
# and kept as integer rows with one denominator each.  Against the Bernstein
# columns of G(kind, k) (``bernstein``), a face run takes the faces' Bernstein
# tables, a pair run the Bernstein moments (integrate.bernstein_gram), a div or
# divdiv run the stencil table times G, and a vertex run the Bernstein table
# of the vertex.

_FACE_TRACES = {
    FACE_SCALAR_NORMAL: "vector_normal",
    FACE_TN: "tangential",
    FACE_NORMAL_DIV: "normal_div",
    FACE_DIVDIV_COMBO: "combo",
}


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
    index = poly._frame_index(kind, frame.d, k)
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
            return q.matmul((bernstein_gram if bernstein else frame_gram)(frame, kind, deg, k))
        if first.kind == INTERIOR_DIV:
            name = "div" if kind == "vector" else "div_rowwise"
        elif first.kind == INTERIOR_DIVDIV:
            name = "divdiv"
        else:
            raise UnsupportedTagError(f"unknown DoF kind {first.kind!r}")
        tkind, tk = poly.operator_target(name, k)
        table = poly.operator_table(name, kind, d, k)
        if bernstein:
            # the stencil table is sparse, so it takes G rather than the dense moments
            table = table.matmul(frame.bernstein(kind, k))
        return q.matmul(frame_gram(frame, tkind, deg, tk)).matmul(table)
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
    return [DoFDescriptor(VERTEX_EVAL, True, vertex=v, comp=(i, j), label=f"vertex{v}:entry{i}{j}")
            for v in range(frame.d + 1) for i, j in poly.sym_pairs(frame.d)]


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


def _complement(tag: str, sub_tag: str, sub_deg: int) -> _Tests:
    """The members of ``tag`` orthogonal to ``sub_tag`` of degree
    min(sub_deg, deg)."""
    def tests(frame: SimplexFrame, deg: int) -> list[Polynomial]:
        sub = spaces.build_standard(frame, sub_tag, min(sub_deg, deg))
        return spaces.orthocomplement_in(spaces.build_standard(frame, tag, deg), sub).members()
    return tests


def _def_image(tag: str) -> _Tests:
    return lambda frame, deg: spaces.image_space("def", spaces.build_standard(frame, tag, deg)).members()


def _ker_sym(frame: SimplexFrame, deg: int) -> list[Polynomial]:
    return spaces.ker_mat_x_sym(frame, deg).members()


_P_PERP_RM = _complement("P_vector", "RM", 0)
_KER = (INTERIOR_PAIR, _ker_sym, -2, "ker")
_SKW_X = (INTERIOR_DIV, _complement("skwPx", "skwPx", 0), -3, "skwx")
_SCALAR_MOD_P1 = _complement("P_scalar", "P_scalar", 1)


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
    # the shape space before the DoFs: the transients of its construction
    # (the HdivS_minus enrichment) are freed before the DoFs' test spaces are
    # held, which keeps the peak RSS lower (by 0.1 MB on enrich-d3)
    spaces.build_standard(frame, spec.shape, k)
    return Element(family, frame, k, spec.dofs(frame, k))


def _split_traces(face: Face, space: PolySpace, k: int, mode: str) -> tuple[Matrix, ...]:
    """The traces of ``mode`` on ``face`` against the catalog basis
    diag(I_n, H) of degree parameter k times G_s = diag(G(kind, k), I): the
    Bernstein traces of degree k on the leading block, beside the monomial
    traces past it times H (zero rows pad the lower chart degree)."""
    bernstein = face.traces(space.kind, k, mode, True)[1]
    if not space.tail.cols:
        return bernstein
    n = space.lead
    out = [t.take(range(t.rows), n).matmul(space.tail) for t in face.traces(space.kind, space.k, mode)[1]]
    return tuple(Matrix.vstack([b, Matrix.zeros(t.rows - b.rows, n)], n).hstack(t) for b, t in zip(bernstein, out))


def _bubble_verdict(element: Element, dofs: Sequence[DoFDescriptor], s_g: Matrix) -> tuple[bool, int] | None:
    """(S C == 0, dim C) for the paper's bubble C, or None for a family
    without one.  For RT, C is the trace kernel of the shape space, on which
    every face DoF vanishes.  Otherwise C is spanned by G C_B for the
    generators C_B of degree k (``_bubble_generators``), and S C == 0 is
    S_B C_B == 0 for S_B, the Bernstein rows of the shared ``dofs`` of the
    same degree: the leading block of ``s_g`` = S G_s.  For HdivS_minus, C
    also holds the enrichment W, killed by S_B C_B == 0 at degree k + 1."""
    frame, space, k = element.frame, element.space, element.k
    if element.family == "RT":
        return True, space.dim - spaces.trace_matrix(frame, space, "vector_normal").rank()
    gens = _bubble_generators(element, k)
    if gens is None:
        return None
    kills, dim = s_g.take(range(s_g.rows), 0, gens.rows).matmul(gens).is_zero(), gens.rank()
    if element.family == "HdivS_minus":
        # rank [G C_B, W] = rank C_B + dim W
        dim += spaces.bubble_enrichment_sym(frame, k).dim
        kills = kills and _kills_generators(frame, dofs, space.kind, k + 1, _bubble_generators(element, k + 1))
    return kills, dim


def _kills_generators(frame: SimplexFrame, dofs: Sequence[DoFDescriptor], kind: str, j: int, c_b: Matrix,
                      *blocks: Matrix) -> bool:
    """S_B C_B == 0 at degree j: the Bernstein rows S_B of degree j of
    ``dofs``, and every further block against the same Bernstein columns of
    G(kind, j), annihilate the bubble generators C_B of degree j
    (``spaces.bubble_generator_bernstein``)."""
    return all(b.matmul(c_b).is_zero() for b in (_dof_matrix(frame, dofs, kind, j, True), *blocks))


def _rows_times_g_s(frame: SimplexFrame, dofs: Sequence[DoFDescriptor], space: PolySpace, k: int) -> Matrix:
    """The rows of ``dofs`` (face, vertex or interior DoFs) against the
    catalog basis times G_s = diag(G(kind, k), I).

    The catalog basis of degree parameter k is diag(I_n, H), n the size of
    the frame (kind, d, k): the rows against basis G_s are the DoFs' own
    Bernstein rows of degree k beside the monomial rows times H.  No DoF row
    is multiplied by G; only a div or divdiv run's sparse stencil table is."""
    block = _dof_matrix(frame, dofs, space.kind, k, True)
    if not space.tail.cols:
        return block
    rows = _dof_matrix(frame, dofs, space.kind, space.k)
    return block.hstack(rows.take(range(rows.rows), space.lead).matmul(space.tail))


def check_unisolvence(element: Element) -> CheckResult:
    n_dofs = len(element.dofs)
    dim = element.space.dim
    ctx = {"family": element.family, "d": element.frame.d, "k": element.k, "dim": dim, "dofs": n_dofs}
    if n_dofs != dim:
        return CheckResult("unisolvence", False, expected=dim, got=n_dofs, context=ctx)
    shared, rank_s, ker, _ = element._split
    if rank_s == len(shared):
        # A = [S; I] with S of full row rank: A x = 0 iff x = G_s K y and I G_s K y = 0
        interior = [dof for dof in element.dofs if not dof.shared]
        if _rows_times_g_s(element.frame, interior, element.space, element.k).matmul(ker).rank() == ker.cols:
            return CheckResult("unisolvence", True, expected=dim, got=dim, context=ctx)
    red, pivots = element.dof_matrix.rref()
    r = len(pivots)
    if r == dim:
        return CheckResult("unisolvence", True, expected=dim, got=r, context=ctx)
    ker = rref_kernel(red, pivots, dim)
    space = element.space
    witness = poly.from_coeff_vector(element.frame.d, space.kind, space.k, space.times(ker).column(0))
    ctx["kernel_witness"] = poly.poly_to_json(witness)
    return CheckResult("unisolvence", False, expected=dim, got=r, context=ctx)


def nodal_basis(element: Element) -> list[Polynomial]:
    """Shape functions dual to the DoFs: dof_i(phi_j) = delta_ij exactly."""
    n = element.space.dim
    try:
        sol = element.dof_matrix.solve(Matrix.identity(n))
    except (SingularMatrixError, exact.DimensionMismatchError) as err:
        raise SingularMatrixError(f"element is not unisolvent: {err}") from None
    coeffs = element.space.times(sol)
    d, kind, k = element.frame.d, element.space.kind, element.space.k
    return [poly.from_coeff_vector(d, kind, k, coeffs.column(j)) for j in range(n)]


def _nonzero_trace_mode(faces, modes, space: PolySpace, k: int, coeffs: Matrix) -> str | None:
    """The first of ``modes`` in which a column of ``coeffs`` (coordinates
    against the catalog basis times G_s = diag(G(kind, k), I)) has a
    nonzero trace on one of ``faces``, or None.  This depends only on the
    span of the columns, not on their basis."""
    for mode in modes:
        for face in faces:
            if any(not t.matmul(coeffs).is_zero() for t in _split_traces(face, space, k, mode)):
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


def _bubble_generators(element: Element, k: int) -> Matrix | None:
    """C_B of degree k (``spaces.bubble_generator_bernstein``) of the div
    families whose bubble the paper generates, else None."""
    if element.family in ("BDM", "HdivS", "HdivS_split", "HdivS_minus"):
        return spaces.bubble_generator_bernstein(element.frame, element.space.kind, k)


def trace_block_rank(element: Element) -> CheckResult:
    """The shared DoF block alone must pin down the declared traces: every
    shape function annihilated by all shared DoFs has exactly zero trace,
    and ker S equals a known bubble C, which the shape space holds by
    construction: S C = 0 and dim C = dim ker S (``_bubble_verdict``)."""
    shared_rows, _, ker, verdict = element._split
    frame, space = element.frame, element.space
    ctx = {"family": element.family, "d": frame.d, "k": element.k, "shared_dofs": len(shared_rows),
           "kernel_dim": ker.cols}
    mode = _nonzero_trace_mode(frame.faces(1), FAMILIES[element.family].trace_modes, space, element.k, ker)
    if mode is not None:
        ctx["nonzero_trace_mode"] = mode
        return CheckResult("trace-block", False, expected="zero trace", got=mode, context=ctx)
    if verdict is None:
        return CheckResult("trace-block", True, expected=None, got=ker.cols, context=ctx)
    kills, dim = verdict
    ctx["bubble_dim"] = dim
    if dim != ker.cols or not kills:
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


def element_to_json(element: Element) -> dict:
    space = element.space
    # the shape basis in canonical form: of the catalog bases, only P_minus_sym's is not
    canonical = PolySpace(element.frame, space.kind, space.k, exact.image_basis(space.basis))
    return {
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
        "nodal_basis": [poly.poly_to_json(p) for p in nodal_basis(element)],
    }
