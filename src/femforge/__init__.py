"""femforge: exact construction and verification of simplicial finite elements."""

from .conformity import build_patch, conformity_check, green_identity_check, green_residual
from .elements import (
    FAMILIES,
    Element,
    apply_dof,
    build_element,
    check_unisolvence,
    element_to_json,
    nodal_basis,
    trace_block_rank,
)
from .exact import Matrix
from .poly import Polynomial
from .simplex import SimplexFrame, build_frame, random_frame, reference_simplex
from .spaces import (
    PolySpace,
    bubble_space,
    bubble_sym_generators,
    bubble_vector_generators,
    build_standard,
    certify_decompositions,
    divdiv_splits,
    split_bubble,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "Element",
    "Matrix",
    "Polynomial",
    "PolySpace",
    "SimplexFrame",
    "apply_dof",
    "bubble_space",
    "bubble_sym_generators",
    "bubble_vector_generators",
    "build_element",
    "build_frame",
    "build_patch",
    "build_standard",
    "certify_decompositions",
    "check_unisolvence",
    "conformity_check",
    "divdiv_splits",
    "element_to_json",
    "green_identity_check",
    "green_residual",
    "nodal_basis",
    "random_frame",
    "reference_simplex",
    "split_bubble",
    "trace_block_rank",
]
