"""The public surface of the package: `diffprod.__all__` and nothing else."""

import diffprod

PUBLIC_API = [
    # nodes
    "DuplicateNode", "EmptyNodeSet", "NegativeExponent", "NodeSet",
    "diff_products", "diff_products_via_derivative", "euler_sums",
    "expected_euler_sums", "nodeset_new",
    # partfrac
    "NodeSetTooSmall", "PartialFractionDecomposition", "decompose",
    "decompositions", "euler_sums_via_decomposition", "reconstruct",
    # symmetric
    "elementary_all", "homogeneous_brute_force", "homogeneous_via_elementary",
    "homogeneous_via_power_sums", "newton_power_from_elementary", "power_sums",
]


def test_all_is_pinned():
    assert len(PUBLIC_API) == 21
    assert sorted(diffprod.__all__) == sorted(PUBLIC_API)
    assert len(set(diffprod.__all__)) == len(diffprod.__all__)


def test_each_name_resolves():
    namespace = {}
    exec("from diffprod import *", namespace)
    for name in PUBLIC_API:
        obj = getattr(diffprod, name)
        assert namespace[name] is obj
        module = getattr(diffprod, obj.__module__.rpartition(".")[2])
        assert getattr(module, name) is obj
