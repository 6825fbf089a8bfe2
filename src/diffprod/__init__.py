"""Exact arithmetic for difference-product sums and their closed forms."""

from .nodes import (
    DuplicateNode,
    EmptyNodeSet,
    NegativeExponent,
    NodeSet,
    diff_products,
    diff_products_via_derivative,
    euler_sums,
    expected_euler_sums,
    nodeset_new,
)
from .partfrac import (
    NodeSetTooSmall,
    PartialFractionDecomposition,
    decompose,
    decompositions,
    euler_sums_via_decomposition,
    reconstruct,
)
from .symmetric import (
    elementary_all,
    homogeneous_brute_force,
    homogeneous_via_elementary,
    homogeneous_via_power_sums,
    newton_power_from_elementary,
    power_sums,
)

__all__ = [
    "DuplicateNode",
    "EmptyNodeSet",
    "NegativeExponent",
    "NodeSet",
    "diff_products",
    "diff_products_via_derivative",
    "euler_sums",
    "expected_euler_sums",
    "nodeset_new",
    "NodeSetTooSmall",
    "PartialFractionDecomposition",
    "decompose",
    "decompositions",
    "euler_sums_via_decomposition",
    "reconstruct",
    "elementary_all",
    "homogeneous_brute_force",
    "homogeneous_via_elementary",
    "homogeneous_via_power_sums",
    "newton_power_from_elementary",
    "power_sums",
]

__version__ = "0.1.0"
