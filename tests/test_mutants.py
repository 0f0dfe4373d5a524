"""DoF mutants of every family: the certificates must reject them.

Each cell builds a catalog element and breaks it through
``Element(family, frame, k, dofs)``; the verdict and its witness are checked
by a route that shares no elimination with the certificate.  Moving a DoF
between the shared and the cell-local ones keeps the DoF set, so unisolvence
still passes, and the trace block must fail.
"""

import dataclasses
import random

import pytest

from femforge import poly
from femforge.elements import (FACE_NN, FAMILIES, Element, apply_dof, build_element, check_unisolvence,
                               trace_block_rank)
from femforge.simplex import random_frame, reference_simplex


def _cell_degree(family, d):
    """Each family's floor, raised to k=2 at d=2 and to k=1 for RT."""
    return max(FAMILIES[family].floor(d), 2 if d == 2 else 0, 1 if family == "RT" else 0)


_CELLS = [(family, d, where) for d in (2, 3) for family in sorted(FAMILIES) for where in ("reference", "random")]


def _frame(d, where):
    return reference_simplex(d) if where == "reference" else random_frame(d, random.Random(90 + d))


def _moved(e, i):
    """``e`` with DoF i moved between the shared and the cell-local DoFs."""
    dofs = list(e.dofs)
    dofs[i] = dataclasses.replace(dofs[i], shared=not dofs[i].shared)
    return Element(e.family, e.frame, e.k, tuple(dofs))


def _picks(e, shared):
    """The first, middle and last shared (or cell-local) DoF of ``e``."""
    idx = [i for i, dof in enumerate(e.dofs) if dof.shared == shared]
    assert idx
    return sorted({idx[0], idx[len(idx) // 2], idx[-1]})


def _verdicts(e, indices):
    """(unisolvence, trace block) passed, for each DoF of ``indices`` moved."""
    return [(check_unisolvence(m).passed, trace_block_rank(m).passed) for m in (_moved(e, i) for i in indices)]


_DIVDIV = ("DivDiv", "DivDivMinus", "DivDivPlus", "DivDivPlusMinus")
_NO_KERNEL = pytest.mark.xfail(strict=True, reason="ROADMAP item 6: no expected kernel")
# every cell with a cell-local DoF, and DivDivPlus one degree past its floor,
# where it has one; the divdiv families pass every promotion today
_PROMOTIONS = [
    pytest.param(family, d, k, where, marks=[_NO_KERNEL] if family in _DIVDIV else [])
    for family, d, where in _CELLS if (family, d) != ("BDM", 3)
    for k in [_cell_degree(family, d) + (family == "DivDivPlus")]
]


@pytest.mark.parametrize("family,d,where", _CELLS)
def test_a_repeated_dof_fails_unisolvence_with_a_witness_every_dof_kills(family, d, where):
    # the last DoF replaced by a copy of the first leaves a DoF matrix of
    # rank dim - 1, so the certificate falls back to the RREF of the whole
    # matrix; the kernel witness it reports is checked by applying each DoF
    # functional to it, one row product per DoF
    frame = _frame(d, where)
    e = build_element(frame, family, _cell_degree(family, d))
    broken = Element(e.family, e.frame, e.k, (*e.dofs[:-1], e.dofs[0]))
    res = check_unisolvence(broken)
    assert not res.passed and (res.expected, res.got) == (e.dim, e.dim - 1)
    witness = poly.poly_from_json(res.context["kernel_witness"])
    assert witness.kind == e.space.kind and not witness.is_zero()
    assert all(apply_dof(frame, dof, witness) == 0 for dof in broken.dofs)


@pytest.mark.parametrize("family,d,where", _CELLS)
def test_a_shared_dof_made_cell_local_fails_the_trace_block(family, d, where):
    e = build_element(_frame(d, where), family, _cell_degree(family, d))
    assert _verdicts(e, _picks(e, True)) == [(True, False)] * 3


@pytest.mark.parametrize("family,d,k,where", _PROMOTIONS)
def test_a_cell_local_dof_made_shared_fails_the_trace_block(family, d, k, where):
    e = build_element(_frame(d, where), family, k)
    assert _verdicts(e, _picks(e, False)) == [(True, False)] * 3


# (unisolvence, trace block) passed for each edge mixed normal-normal moment
# made cell-local, d=3 k=3 on the reference tetrahedron
_EDGE_NN = {
    "DivDiv": (True, True),  # super-smooth DoF, item 6 decides
    "DivDivMinus": (True, True),  # super-smooth DoF, item 6 decides
    "DivDivPlus": (True, False),
    "DivDivPlusMinus": (True, False),
}


@pytest.mark.parametrize("family", _DIVDIV)
def test_an_edge_mixed_nn_moment_made_cell_local(family):
    e = build_element(reference_simplex(3), family, 3)
    edge_nn = [i for i, dof in enumerate(e.dofs) if dof.kind == FACE_NN and dof.face.dim == 1 and dof.comp == (0, 1)]
    assert len(edge_nn) == 12
    assert _verdicts(e, edge_nn) == [_EDGE_NN[family]] * 12
