import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffprod import (
    NegativeExponent,
    NodeSetTooSmall,
    PartialFractionDecomposition,
    decompose,
    decompositions,
    diff_products,
    euler_sums,
    euler_sums_via_decomposition,
    homogeneous_brute_force,
    nodeset_new,
    reconstruct,
)
from diffprod import partfrac
from .strategies import multi_node_sets, node_sets

SIX = nodeset_new([3, 8, 12, 15, 17, 18])
FOUR = nodeset_new([2, 5, 7, 8])


class TestDecompose:
    def test_improper_two_poles(self):
        # x^2 = (x-1)(x-2) - (x-2) + 4(x-1)
        pfd = decompose(2, nodeset_new([1, 2]))
        assert pfd.polynomial_part == [F(1)]
        assert pfd.residues == [-1, 4]

    def test_proper_four_poles(self):
        pfd = decompose(0, FOUR)
        assert pfd.polynomial_part == []
        assert pfd.residues == [F(-1, 90), F(1, 18), F(-1, 10), F(1, 18)]

    def test_pole_at_zero(self):
        pfd = decompose(1, nodeset_new([0, 1]))
        assert pfd.polynomial_part == []
        assert pfd.residues == [0, 1]

    def test_zero_power_zero_pole_convention(self):
        # 0**0 = 1 so the pole at zero still gets a nonzero residue
        pfd = decompose(0, nodeset_new([0, 1]))
        assert pfd.residues == [-1, 1]

    def test_part_is_unity_at_n_equals_m(self):
        assert decompose(6, SIX).polynomial_part == [F(1)]

    def test_part_one_past_m(self):
        # x + sum of the nodes
        assert decompose(7, SIX).polynomial_part == [F(73), F(1)]

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponent):
            decompose(-1, FOUR)

    @given(node_sets, st.integers(min_value=0, max_value=13))
    def test_residues_match_diff_products(self, ns, n):
        pfd = decompose(n, ns)
        products = diff_products(ns)
        assert pfd.residues == [
            a**n / A for a, A in zip(ns.values, products)
        ]

    @given(node_sets, st.integers(min_value=0, max_value=13))
    def test_integral_part_ladder(self, ns, n):
        pfd = decompose(n, ns)
        if n < ns.m:
            assert pfd.polynomial_part == []
        else:
            k = n - ns.m
            expected = [homogeneous_brute_force(ns, k - d) for d in range(k + 1)]
            assert pfd.polynomial_part == expected


class TestDecompositions:
    @given(node_sets, st.integers(min_value=0, max_value=13))
    def test_each_matches_inline_decomposition(self, ns, nmax):
        products = diff_products(ns)
        pfds = decompositions(ns, nmax)
        assert [p.power for p in pfds] == list(range(nmax + 1))
        for n, pfd in enumerate(pfds):
            assert pfd.poles is ns
            assert pfd.residues == [a**n / A for a, A in zip(ns.values, products)]
            k = n - ns.m
            assert pfd.polynomial_part == [
                homogeneous_brute_force(ns, k - d) for d in range(k + 1)
            ]

    def test_negative_nmax(self):
        with pytest.raises(NegativeExponent):
            decompositions(FOUR, -1)


class TestReconstruct:
    def test_two_pole_example(self):
        assert reconstruct(decompose(2, nodeset_new([1, 2])))

    def test_four_pole_example(self):
        assert reconstruct(decompose(0, FOUR))

    def test_six_pole_example(self):
        assert reconstruct(decompose(5, SIX))

    @settings(deadline=None)
    @given(node_sets, st.integers(min_value=0, max_value=13))
    def test_always_reconstructs(self, ns, n):
        assert reconstruct(decompose(n, ns))

    @settings(deadline=None)
    @given(node_sets, st.integers(min_value=0, max_value=13))
    def test_all_at_once(self, ns, nmax):
        assert reconstruct(*decompositions(ns, nmax))

    def test_one_wrong_decomposition_among_many_is_false(self):
        pfds = decompositions(SIX, 9)
        for i, pfd in enumerate(pfds):
            wrong = PartialFractionDecomposition(
                pfd.power, SIX, pfd.polynomial_part,
                [pfd.residues[0] + F(1, 7), *pfd.residues[1:]])
            assert reconstruct(*pfds[:i], wrong, *pfds[i + 1:]) is False

    def test_different_poles_raise(self):
        with pytest.raises(ValueError):
            reconstruct(decompose(3, SIX), decompose(3, FOUR))

    def test_nonzero_remainder_is_false(self, monkeypatch):
        divide = partfrac.divide_linear
        monkeypatch.setattr(partfrac, "divide_linear",
                            lambda coeffs, b: (divide(coeffs, b)[0], 1))
        assert reconstruct(decompose(5, SIX)) is False

    def test_holds_without_asserts(self):
        # -O strips assert statements; the check must not depend on one.
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "diffprod", "decompose", "1 2 3", "--n", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "reconstruction check: ok" in proc.stdout.splitlines()


class TestEulerSumViaDecomposition:
    def test_first_example(self):
        assert euler_sums_via_decomposition(FOUR, 0)[0] == 0

    def test_six_nodes_power_five(self):
        assert euler_sums_via_decomposition(SIX, 5)[5] == 1

    def test_two_nodes(self):
        assert euler_sums_via_decomposition(nodeset_new([0, 1]), 0)[0] == 0

    def test_rejects_singletons(self):
        with pytest.raises(NodeSetTooSmall):
            euler_sums_via_decomposition(nodeset_new([5]), 0)

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponent):
            euler_sums_via_decomposition(FOUR, -3)

    @given(multi_node_sets, st.integers(min_value=0, max_value=13))
    def test_agrees_with_direct_sum(self, ns, n):
        assert euler_sums_via_decomposition(ns, n)[n] == euler_sums(ns, n)[n]

    @given(multi_node_sets, st.integers(min_value=0, max_value=13))
    def test_list_agrees_with_direct_sums(self, ns, nmax):
        assert euler_sums_via_decomposition(ns, nmax) == euler_sums(ns, nmax)
