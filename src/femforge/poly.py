"""Multivariate polynomials with rational coefficients and shaped values.

A polynomial lives in Cartesian coordinates ``x = (x_1, ..., x_d)`` and takes
values of one of five shapes: scalar, d-vector, symmetric d x d matrix,
skew-symmetric d x d matrix, or full d x d matrix.  Symmetric and skew parts
are stored once (upper triangle) and mirrored on read; zero coefficients are
never stored, and a ``float`` coefficient or evaluation point is rejected.

Terms are keyed by ``(component, exponents)`` where ``component`` indexes the
stored components of the shape and ``exponents`` is a length-d multi-index.
``Polynomial.int_terms`` memoizes the terms cleared over one denominator, so
that pairings with integer rows (DoF rows, coefficient frames) are integer
dot products.

The differential and Koszul operators are integer stencil tables.  Each
first-order operator is a list of rules on the stored components (d/dx_j or
x_j times a weight in halves), and each second-order one the product of two
first-order tables.  ``operator_table(op, kind, d, k)`` is the matrix
between the two monomial frames, built once; the catalog's operator
matrices and the ``Polynomial`` functions (``grad``, ``div``, ...) are
products with it.

Affine pull-backs run in integers as well.  ``AffinePowers`` clears a map
``x = c + L s`` over one denominator D and memoizes each power ``x^e`` as
``(D^|e|, {s-exponents: int})``, one multiplication by an integer affine row
per step.  Monomial integrals over a simplex, face restrictions and the face
trace operators all read these tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .exact import Matrix, _as_fraction, _cleared, _row_of

_ZERO = Fraction(0)
_ONE = Fraction(1)

SHAPES = ("scalar", "vector", "sym", "skw", "matrix")


class ShapeMismatchError(TypeError):
    """Raised when an operation receives a polynomial of the wrong shape."""


# -- shape bookkeeping ---------------------------------------------------------


@lru_cache(maxsize=None)
def sym_pairs(d: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(d) for j in range(i, d))


@lru_cache(maxsize=None)
def skw_pairs(d: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(d) for j in range(i + 1, d))


def ncomp(kind: str, d: int) -> int:
    if kind == "scalar":
        return 1
    if kind == "vector":
        return d
    if kind == "sym":
        return d * (d + 1) // 2
    if kind == "skw":
        return d * (d - 1) // 2
    if kind == "matrix":
        return d * d
    raise ShapeMismatchError(f"unknown shape kind {kind!r}")


def frobenius_weight(kind: str, d: int, comp: int) -> int:
    """Multiplicity of a stored component in the full Frobenius pairing."""
    if kind == "sym":
        i, j = sym_pairs(d)[comp]
        return 1 if i == j else 2
    if kind == "skw":
        return 2
    return 1


@lru_cache(maxsize=None)
def _pair_index(kind: str, d: int) -> dict[tuple[int, int], int]:
    pairs = sym_pairs(d) if kind == "sym" else skw_pairs(d)
    return {p: c for c, p in enumerate(pairs)}


def entry_comp(kind: str, d: int, i: int, j: int) -> tuple[int, int]:
    """(stored component, sign) for matrix entry (i, j)."""
    if kind == "matrix":
        return i * d + j, 1
    if kind == "sym":
        a, b = (i, j) if i <= j else (j, i)
        return _pair_index("sym", d)[(a, b)], 1
    if kind == "skw":
        if i == j:
            return -1, 0
        a, b = (i, j) if i < j else (j, i)
        sign = 1 if i < j else -1
        return _pair_index("skw", d)[(a, b)], sign
    raise ShapeMismatchError(f"shape {kind!r} has no (i,j) entries")


class Polynomial:
    """A shaped polynomial in ``d`` variables.

    ``vdim`` is the dimension of the value space (defaults to ``d``); it only
    differs from ``d`` for fields restricted to a face chart, which keep their
    ambient value components while depending on chart variables.  ``terms``
    is never changed after construction, which ``int_terms`` relies on.
    """

    __slots__ = ("d", "kind", "terms", "vdim", "_ints")

    def __init__(self, d: int, kind: str, terms: dict | None = None, vdim: int | None = None):
        if kind not in SHAPES:
            raise ShapeMismatchError(f"unknown shape kind {kind!r}")
        self.d = d
        self.vdim = d if (vdim is None or kind == "scalar") else vdim
        self.kind = kind
        clean = {}
        if terms:
            for key, c in terms.items():
                if type(c) is not Fraction:
                    c = _as_fraction(c)
                if c:
                    clean[key] = c
        self.terms = clean
        self._ints = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, d: int, kind: str = "scalar", vdim: int | None = None) -> "Polynomial":
        return cls(d, kind, vdim=vdim)

    @classmethod
    def constant(cls, d: int, value) -> "Polynomial":
        return cls(d, "scalar", {(0, (0,) * d): _as_fraction(value)})

    @classmethod
    def coordinate(cls, d: int, i: int) -> "Polynomial":
        exps = [0] * d
        exps[i] = 1
        return cls(d, "scalar", {(0, tuple(exps)): _ONE})

    @classmethod
    def monomial(cls, d: int, kind: str, comp: int, exps: Sequence[int], coeff=1) -> "Polynomial":
        return cls(d, kind, {(comp, tuple(exps)): _as_fraction(coeff)})

    @classmethod
    def from_components(
        cls, d: int, kind: str, comps: Sequence["Polynomial"], vdim: int | None = None
    ) -> "Polynomial":
        vdim = d if vdim is None else vdim
        if len(comps) != ncomp(kind, vdim):
            raise ShapeMismatchError("component count mismatch")
        terms = {}
        for c, p in enumerate(comps):
            if p.kind != "scalar":
                raise ShapeMismatchError("components must be scalar")
            for (_, exps), v in p.terms.items():
                terms[(c, exps)] = v
        return cls(d, kind, terms, vdim=vdim)

    @classmethod
    def vector_from(cls, comps: Sequence["Polynomial"], vdim: int | None = None) -> "Polynomial":
        return cls.from_components(comps[0].d, "vector", comps, vdim=vdim or len(comps))

    @classmethod
    def constant_vector(cls, d: int, vec: Sequence, vdim: int | None = None) -> "Polynomial":
        z = (0,) * d
        return cls(d, "vector", {(i, z): _as_fraction(v) for i, v in enumerate(vec)}, vdim=vdim or len(vec))

    @classmethod
    def constant_sym(cls, d: int, mat: Sequence[Sequence]) -> "Polynomial":
        z = (0,) * d
        terms = {}
        for c, (i, j) in enumerate(sym_pairs(d)):
            terms[(c, z)] = _as_fraction(mat[i][j])
        return cls(d, "sym", terms)

    # -- basic protocol ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree (max over components); -1 for the zero polynomial."""
        return max((sum(e) for _, e in self.terms), default=-1)

    def int_terms(self) -> tuple[int, int, list]:
        """(den, degree, [(key, int)]) with every coefficient ``int / den``:
        the terms cleared over one denominator, memoized on the polynomial."""
        got = self._ints
        if got is None:
            den, ints = _cleared(self.terms.values())
            got = self._ints = (den, self.degree(), list(zip(self.terms, ints)))
        return got

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.d == other.d
            and self.vdim == other.vdim
            and self.kind == other.kind
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.d, self.vdim, self.kind, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial(d={self.d}, {self.kind}, {len(self.terms)} terms)"

    def _require(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise ShapeMismatchError("expected a Polynomial")
        if self.d != other.d or self.kind != other.kind or self.vdim != other.vdim:
            raise ShapeMismatchError(f"shape mismatch: {self.kind}/d={self.d} vs {other.kind}/d={other.d}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require(other)
        terms = dict(self.terms)
        for key, v in other.terms.items():
            terms[key] = terms.get(key, _ZERO) + v
        return Polynomial(self.d, self.kind, terms, vdim=self.vdim)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.d, self.kind, {k: -v for k, v in self.terms.items()}, vdim=self.vdim)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        if not c:
            return Polynomial(self.d, self.kind, vdim=self.vdim)
        return Polynomial(self.d, self.kind, {k: c * v for k, v in self.terms.items()}, vdim=self.vdim)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # -- component access --------------------------------------------------------

    def component(self, c: int) -> "Polynomial":
        return Polynomial(
            self.d, "scalar", {(0, exps): v for (cc, exps), v in self.terms.items() if cc == c}
        )

    def entry(self, i: int, j: int) -> "Polynomial":
        """Scalar (i, j) entry of a matrix-shaped polynomial, mirrors applied."""
        if self.kind not in ("sym", "skw", "matrix"):
            raise ShapeMismatchError("entry() needs a matrix shape")
        c, sign = entry_comp(self.kind, self.vdim, i, j)
        if sign == 0:
            return Polynomial(self.d, "scalar")
        p = self.component(c)
        return p if sign == 1 else -p

    def evaluate(self, point: Sequence):
        pt = [_as_fraction(x) for x in point]
        vals = [_ZERO] * ncomp(self.kind, self.vdim)
        for (c, exps), coeff in self.terms.items():
            term = coeff
            for x, e in zip(pt, exps):
                if e:
                    term *= x**e
            vals[c] += term
        if self.kind == "scalar":
            return vals[0]
        if self.kind == "vector":
            return tuple(vals)
        n = self.vdim
        full = [[_ZERO] * n for _ in range(n)]
        if self.kind == "matrix":
            for c, v in enumerate(vals):
                full[c // n][c % n] = v
        elif self.kind == "sym":
            for c, (i, j) in enumerate(sym_pairs(n)):
                full[i][j] = v = vals[c]
                full[j][i] = v
        else:
            for c, (i, j) in enumerate(skw_pairs(n)):
                full[i][j] = vals[c]
                full[j][i] = -vals[c]
        return tuple(tuple(row) for row in full)


def multiply(a: Polynomial, b: Polynomial) -> Polynomial:
    """Product where at least one factor is scalar-shaped."""
    if a.kind != "scalar" and b.kind != "scalar":
        raise ShapeMismatchError("multiply supports scalar x shaped only")
    if a.kind != "scalar":
        a, b = b, a
    if a.d != b.d:
        raise ShapeMismatchError("dimension mismatch")
    terms: dict = {}
    for (_, ea), va in a.terms.items():
        for (c, eb), vb in b.terms.items():
            key = (c, tuple(x + y for x, y in zip(ea, eb)))
            acc = terms.get(key)
            terms[key] = va * vb if acc is None else acc + va * vb
    return Polynomial(b.d, b.kind, terms, vdim=b.vdim)


def dot(a: Polynomial, b: Polynomial) -> Polynomial:
    """Pointwise pairing: product, dot product or Frobenius product."""
    if a.d != b.d or a.kind != b.kind or a.vdim != b.vdim:
        raise ShapeMismatchError(f"pairing needs equal shapes, got {a.kind} vs {b.kind}")
    d = a.d
    terms: dict = {}
    weights = [frobenius_weight(a.kind, a.vdim, c) for c in range(ncomp(a.kind, a.vdim))]
    for (c, ea), va in a.terms.items():
        w = weights[c]
        for (cb, eb), vb in b.terms.items():
            if cb != c:
                continue
            key = (0, tuple(x + y for x, y in zip(ea, eb)))
            acc = terms.get(key)
            v = va * vb * w
            terms[key] = v if acc is None else acc + v
    return Polynomial(d, "scalar", terms)


# -- calculus -------------------------------------------------------------------


def _partial_terms(terms: dict, var: int) -> dict:
    out: dict = {}
    for (c, exps), v in terms.items():
        e = exps[var]
        if e:
            new = list(exps)
            new[var] = e - 1
            key = (c, tuple(new))
            acc = out.get(key)
            w = v * e
            out[key] = w if acc is None else acc + w
    return out


def partial(p: Polynomial, var: int) -> Polynomial:
    """Componentwise partial derivative."""
    return Polynomial(p.d, p.kind, _partial_terms(p.terms, var), vdim=p.vdim)


def homogeneous_component(p: Polynomial, r: int) -> Polynomial:
    if r < 0:
        raise ValueError("degree selector must be non-negative")
    return Polynomial(p.d, p.kind, {k: v for k, v in p.terms.items() if sum(k[1]) == r}, vdim=p.vdim)


class AffinePowers:
    """The powers of an affine map ``x = c + L s`` (d x-variables, m
    s-variables), in integers.

    The map is cleared over one denominator ``den`` = D, so ``D x_t`` is an
    integer affine row in s.  ``power(e)`` is ``(D^|e|, {s-exponents: int})``
    with x^e the dict over D^|e|; it is memoized, and each power is one
    multiplication of a lower power by an integer row.
    """

    __slots__ = ("m", "den", "_rows", "_table")

    def __init__(self, const: Sequence, lin: Sequence[Sequence]):
        d = len(const)
        self.m = m = len(lin[0]) if lin else 0
        self.den, ints = _row_of(list(const) + [x for row in lin for x in row])
        # row t: the constant of D x_t and its (s-variable, coefficient) pairs
        self._rows = [(ints[t], [(j, v) for j, v in enumerate(ints[d + t * m:d + (t + 1) * m]) if v])
                      for t in range(d)]
        self._table = {(0,) * d: (1, {(0,) * self.m: 1})}

    def power(self, e: tuple[int, ...]) -> tuple[int, dict]:
        got = self._table.get(e)
        if got is None:
            t = next(i for i, v in enumerate(e) if v)
            den, prev = self.power(e[:t] + (e[t] - 1,) + e[t + 1:])
            const, lin = self._rows[t]
            acc = {se: const * v for se, v in prev.items()} if const else {}
            for se, v in prev.items():
                for j, w in lin:
                    key = se[:j] + (se[j] + 1,) + se[j + 1:]
                    acc[key] = acc.get(key, 0) + w * v
            got = self._table[e] = (den * self.den, {se: v for se, v in acc.items() if v})
        return got

    def substitute(self, p: Polynomial) -> Polynomial:
        """p(c + L s) in the m s-variables; the value components are untouched."""
        den, deg, items = p.int_terms()
        top = self.den ** max(deg, 0)
        acc: dict = {}
        for (c, e), v in items:
            de, table = self.power(e)
            f = v * (top // de)
            for se, w in table.items():
                key = (c, se)
                acc[key] = acc.get(key, 0) + f * w
        den *= top
        return Polynomial(self.m, p.kind, {key: Fraction(v, den) for key, v in acc.items() if v}, vdim=p.vdim)


def substitute_affine(p: Polynomial, const: Sequence, lin: Sequence[Sequence]) -> Polynomial:
    """Substitute x_t = const[t] + sum_m lin[t][m] s_m; result lives in len(s) vars.

    Shape is preserved; the value components are untouched by the substitution.
    """
    return AffinePowers(const, lin if p.d else []).substitute(p)


# -- monomial frames ---------------------------------------------------------------
#
# The frame for (kind, d, k) is the ordered list of (component, exponents) pairs
# with |exponents| <= k, sorted by (degree, exponents, component).  Degree-major
# ordering makes the degree <= k frame a prefix of every higher-degree frame.


def _compositions(dim: int, total: int):
    if dim == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(dim - 1, total - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def monomials(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    if k < 0:
        return ()
    if d == 0:
        return ((),)
    out = []
    for deg in range(k + 1):
        out.extend(sorted(_compositions(d, deg)))
    return tuple(out)


@lru_cache(maxsize=None)
def frame(kind: str, d: int, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    nc = ncomp(kind, d)
    return tuple((c, exps) for exps in monomials(d, k) for c in range(nc))


@lru_cache(maxsize=None)
def _frame_index(kind: str, d: int, k: int) -> dict:
    return {key: i for i, key in enumerate(frame(kind, d, k))}


def coeff_row(p: Polynomial, k: int) -> tuple[int, list[int]]:
    """(den, ints) with ``ints / den`` the coefficients of p over the frame
    (p.kind, p.d, k)."""
    if p.vdim != p.d:
        raise ShapeMismatchError("coefficient frames are for ambient-valued polynomials")
    idx = _frame_index(p.kind, p.d, k)
    den, _, items = p.int_terms()
    row = [0] * len(idx)
    for key, v in items:
        pos = idx.get(key)
        if pos is None:
            raise ValueError(f"polynomial degree exceeds frame degree {k}")
        row[pos] = v
    return den, row


def coeff_vector(p: Polynomial, k: int) -> list[Fraction]:
    den, row = coeff_row(p, k)
    return [Fraction(v, den) if v else _ZERO for v in row]


def from_coeff_vector(d: int, kind: str, k: int, vec: Sequence) -> Polynomial:
    return from_coeff_row(d, kind, k, _row_of(vec))


def from_coeff_row(d: int, kind: str, k: int, row: tuple[int, Sequence[int]]) -> Polynomial:
    """The polynomial with coefficients ``ints / den`` over the frame
    (kind, d, k), for ``row = (den, ints)``, with ``int_terms`` filled."""
    den, ints = row
    fr = frame(kind, d, k)
    if len(ints) != len(fr):
        raise ValueError("coefficient vector length mismatch")
    items = [(key, v) for key, v in zip(fr, ints) if v]
    p = Polynomial(d, kind, {key: Fraction(v, den) for key, v in items})
    # the frame is degree-major: the last term has the top degree
    p._ints = (den, sum(items[-1][0][1]) if items else -1, items)
    return p


def coeff_matrix(polys: Iterable[Polynomial], k: int) -> Matrix:
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial to infer the frame")
    return Matrix.from_int_rows([coeff_row(p, k) for p in polys]).transpose()


# -- operators as integer stencil tables ---------------------------------------------
#
# A first-order operator is a list of rules (source component, target component,
# variable j, weight in halves) together with one action: d/dx_j maps the
# monomial (c, e) to weight/2 * e_j (target, e - e_j), and x_j maps it to
# weight/2 (target, e + e_j).  A second-order operator is the product of two
# first-order tables: hess = def grad, divdiv = div div_rowwise and
# x x^T = (sym x) x, where sym x is v -> (v x^T + x v^T) / 2.

_MATRIX_KINDS = ("sym", "skw", "matrix")

# op -> (source kinds, target kind, degree change, (outer, inner) for a product)
OPERATORS: dict[str, tuple[tuple[str, ...], str, int, tuple[str, str] | None]] = {
    "grad": (("scalar",), "vector", -1, None),
    "div": (("vector",), "scalar", -1, None),
    "div_rowwise": (_MATRIX_KINDS, "vector", -1, None),
    "def": (("vector",), "sym", -1, None),
    "skw_grad": (("vector",), "skw", -1, None),
    "dot_x": (("vector",), "scalar", 1, None),
    "x": (("scalar",), "vector", 1, None),
    "mat_x": (_MATRIX_KINDS, "vector", 1, None),
    "sym_x": (("vector",), "sym", 1, None),
    "hess": (("scalar",), "sym", -2, ("def", "grad")),
    "divdiv": (("sym", "matrix"), "scalar", -2, ("div", "div_rowwise")),
    "xxT": (("scalar",), "sym", 2, ("sym_x", "x")),
}


def operator_target(op: str, k: int) -> tuple[str, int]:
    """(kind, degree) of the frame that ``op`` maps the degree-k frame into."""
    _, kind, shift, _ = OPERATORS[op]
    return kind, max(k + shift, 0)


def _rules(op: str, kind: str, d: int) -> list[tuple[int, int, int, int]]:
    """The (source component, target component, variable, weight in halves)
    rules of a first-order operator on ``kind`` fields in d variables."""
    if op in ("grad", "x"):
        return [(0, j, j, 2) for j in range(d)]
    if op in ("div", "dot_x"):
        return [(j, 0, j, 2) for j in range(d)]
    if op in ("div_rowwise", "mat_x"):
        # row i: sum_j d_j tau_ij, or sum_j tau_ij x_j
        return [(c, i, j, 2 * sign) for i in range(d) for j in range(d)
                for c, sign in [entry_comp(kind, d, i, j)] if sign]
    # entry (i, j) of def, sym x and skw_grad: (D_j v_i +- D_i v_j) / 2
    pairs, sign = (skw_pairs(d), -1) if op == "skw_grad" else (sym_pairs(d), 1)
    return [rule for c, (i, j) in enumerate(pairs) for rule in ((i, c, j, 1), (j, c, i, sign))]


@lru_cache(maxsize=None)
def operator_table(op: str, kind: str, d: int, k: int) -> Matrix:
    """The matrix of ``op`` from the frame (kind, d, k) to the frame of
    ``operator_target(op, k)`` in d variables: column j is the image of the
    j-th monomial of the source frame."""
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}")
    sources, tkind, shift, product = OPERATORS[op]
    if kind not in sources:
        raise ShapeMismatchError(f"{op} needs a {' or '.join(sources)} field, not {kind}")
    if product is not None:
        outer, inner = product
        mid_kind, mid_k = operator_target(inner, k)
        return operator_table(outer, mid_kind, d, mid_k).matmul(operator_table(inner, kind, d, k))
    index = _frame_index(tkind, d, operator_target(op, k)[1])
    by_source: dict[int, list] = {}
    for src, tgt, j, w in _rules(op, kind, d):
        by_source.setdefault(src, []).append((tgt, j, w))
    source = frame(kind, d, k)
    rows = [[0] * len(source) for _ in index]
    for col, (c, e) in enumerate(source):
        for tgt, j, w in by_source.get(c, ()):
            if shift > 0:
                rows[index[(tgt, e[:j] + (e[j] + 1,) + e[j + 1:])]][col] += w
            elif e[j]:
                rows[index[(tgt, e[:j] + (e[j] - 1,) + e[j + 1:])]][col] += w * e[j]
    return Matrix.from_int_rows([(2, row) for row in rows], len(source))


def _apply(op: str, p: Polynomial) -> Polynomial:
    """op(p): the operator's table times p's coefficients."""
    if p.vdim != p.d:
        raise ShapeMismatchError(f"{op} applies to ambient fields, not chart restrictions")
    den, deg, items = p.int_terms()
    k = max(deg, 0)
    table = operator_table(op, p.kind, p.d, k)
    index = _frame_index(p.kind, p.d, k)
    coeffs = [(index[key], v) for key, v in items]
    tkind, tk = operator_target(op, k)
    terms = {}
    for i, key in enumerate(frame(tkind, p.d, tk)):
        tden, ints = table.int_row(i)
        s = sum(ints[j] * v for j, v in coeffs)
        if s:
            terms[key] = Fraction(s, tden * den)
    return Polynomial(p.d, tkind, terms)


def grad(p: Polynomial) -> Polynomial:
    return _apply("grad", p)


def div(v: Polynomial) -> Polynomial:
    return _apply("div", v)


def div_rowwise(tau: Polynomial) -> Polynomial:
    """Row-wise divergence of a matrix field: (div tau)_i = sum_j d_j tau_ij."""
    return _apply("div_rowwise", tau)


def sym_grad(v: Polynomial) -> Polynomial:
    """Symmetric gradient (deformation): (grad v + grad v^T) / 2."""
    return _apply("def", v)


def skw_grad(v: Polynomial) -> Polynomial:
    """Skew part of the gradient: entries (d_j v_i - d_i v_j) / 2."""
    return _apply("skw_grad", v)


def hess(p: Polynomial) -> Polynomial:
    return _apply("hess", p)


def divdiv(tau: Polynomial) -> Polynomial:
    return _apply("divdiv", tau)


def koszul_x(q: Polynomial) -> Polynomial:
    """q x for a scalar q (vector valued)."""
    return _apply("x", q)


def koszul_dot_x(v: Polynomial) -> Polynomial:
    """v . x for a vector field v."""
    return _apply("dot_x", v)


def koszul_mat_x(tau: Polynomial) -> Polynomial:
    """tau x: row-wise dot with the position vector."""
    return _apply("mat_x", tau)


def koszul_xxT(q: Polynomial) -> Polynomial:
    """x x^T q for a scalar q (symmetric matrix valued)."""
    return _apply("xxT", q)


# -- serialization ------------------------------------------------------------------


def poly_to_json(p: Polynomial) -> dict:
    terms = [
        {"exponents": list(exps), "component": c, "num": str(v.numerator), "den": str(v.denominator)}
        for (c, exps), v in sorted(p.terms.items())
    ]
    data = {"shape": p.kind, "d": p.d, "terms": terms}
    if p.vdim != p.d:
        data["vdim"] = p.vdim
    return data


def poly_from_json(data: dict) -> Polynomial:
    terms = {}
    for t in data["terms"]:
        key = (int(t["component"]), tuple(int(e) for e in t["exponents"]))
        terms[key] = Fraction(int(t["num"]), int(t["den"]))
    return Polynomial(int(data["d"]), data["shape"], terms, vdim=data.get("vdim"))
