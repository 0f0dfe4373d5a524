"""DoF mutants of every family: the certificates must reject them.

Each cell builds a catalog element and breaks it through
``Element(family, frame, k, dofs)``; the verdict and its witness are checked
by a route that shares no elimination with the certificate.
"""

import random

import pytest

from femforge import poly
from femforge.elements import FAMILIES, Element, apply_dof, build_element, check_unisolvence
from femforge.simplex import random_frame, reference_simplex


def _cell_degree(family, d):
    """Each family's floor, raised to k=2 at d=2 and to k=1 for RT."""
    return max(FAMILIES[family].floor(d), 2 if d == 2 else 0, 1 if family == "RT" else 0)


_CELLS = [(family, d, where) for d in (2, 3) for family in sorted(FAMILIES) for where in ("reference", "random")]


@pytest.mark.parametrize("family,d,where", _CELLS)
def test_a_repeated_dof_fails_unisolvence_with_a_witness_every_dof_kills(family, d, where):
    # the last DoF replaced by a copy of the first leaves a DoF matrix of
    # rank dim - 1, so the certificate falls back to the RREF of the whole
    # matrix; the kernel witness it reports is checked by applying each DoF
    # functional to it, one row product per DoF
    frame = reference_simplex(d) if where == "reference" else random_frame(d, random.Random(90 + d))
    e = build_element(frame, family, _cell_degree(family, d))
    broken = Element(e.family, e.frame, e.k, (*e.dofs[:-1], e.dofs[0]))
    res = check_unisolvence(broken)
    assert not res.passed and (res.expected, res.got) == (e.dim, e.dim - 1)
    witness = poly.poly_from_json(res.context["kernel_witness"])
    assert witness.kind == e.space.kind and not witness.is_zero()
    assert all(apply_dof(frame, dof, witness) == 0 for dof in broken.dofs)
