import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffprod import (
    NegativeExponent,
    NodeSet,
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
from .strategies import multi_node_sets, node_sets, poly_from_roots, rationals

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
            expected = homogeneous_brute_force(ns, n - ns.m)[::-1]
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
            assert pfd.polynomial_part == (
                homogeneous_brute_force(ns, k)[::-1] if k >= 0 else [])

    def test_negative_nmax(self):
        with pytest.raises(NegativeExponent):
            decompositions(FOUR, -1)

    @given(node_sets, st.integers(min_value=0, max_value=13))
    def test_decompose_is_the_batch_entry(self, ns, n):
        # decompose raises each residue to the power n at once; the batch
        # steps it by one power at a time
        assert decompose(n, ns) == decompositions(ns, n)[n]


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

    @settings(deadline=None)
    @given(node_sets, st.integers(min_value=1, max_value=13), rationals.filter(bool),
           st.data())
    def test_reduced_residues_are_checked_at_every_power(self, ns, nmax, delta, data):
        # decompositions' residues are reduced Fractions, whose gcds can
        # change with n: such a pair is not the previous power's times
        # (t_j, u_j), and check (i) cross-multiplies it.  One residue
        # changed at any power above the first is caught.
        pfds = decompositions(ns, nmax)
        assert reconstruct(*pfds) is True
        n = data.draw(st.integers(1, nmax))
        residues = list(pfds[n].residues)
        residues[data.draw(st.integers(0, ns.m - 1))] += delta
        wrong = PartialFractionDecomposition(n, ns, pfds[n].polynomial_part, residues)
        assert reconstruct(*pfds[:n], wrong, *pfds[n + 1:]) is False

    def test_residue_check_never_reads_the_residue_powers(self, monkeypatch):
        # check (i) steps the residues by the poles' own t_j and u_j
        pfds = decompositions(SIX, 12)

        def unread(*args):
            raise AssertionError("reconstruct read the decomposition's _powers")

        monkeypatch.setattr(partfrac, "_powers", unread)
        assert reconstruct(*pfds) is True

    def test_one_wrong_decomposition_among_many_is_false(self):
        pfds = decompositions(SIX, 9)
        for i, pfd in enumerate(pfds):
            wrong = PartialFractionDecomposition(
                pfd.power, SIX, pfd.polynomial_part,
                [pfd.residues[0] + F(1, 7), *pfd.residues[1:]])
            assert reconstruct(*pfds[:i], wrong, *pfds[i + 1:]) is False

    @staticmethod
    def with_part(pfd, part):
        return PartialFractionDecomposition(pfd.power, pfd.poles, part, pfd.residues)

    def test_wrong_middle_coefficient_in_short_part_is_false(self):
        # Only the largest power's part is multiplied out; a shorter part
        # must still be its tail.
        pfds = decompositions(SIX, 12)
        part = pfds[9].polynomial_part  # [h_3, h_2, h_1, h_0]
        wrong = self.with_part(pfds[9], [part[0], part[1] + 1, *part[2:]])
        assert reconstruct(*pfds) is True
        assert reconstruct(*pfds[:9], wrong, *pfds[10:]) is False

    def test_short_part_longer_or_shorter_than_tail_is_false(self):
        pfds = decompositions(SIX, 12)
        part = pfds[9].polynomial_part
        for changed in ([*part, F(1)], part[:-1], [F(2)]):
            wrong = self.with_part(pfds[9], changed)
            assert reconstruct(*pfds[:9], wrong, *pfds[10:]) is False
        # zero leading coefficients leave the polynomial as it is
        padded = self.with_part(pfds[9], [*part, F(0)])
        assert reconstruct(*pfds[:9], padded, *pfds[10:]) is True

    def test_unordered_batch_with_gaps(self):
        pfds = decompositions(SIX, 11)
        assert reconstruct(*(pfds[n] for n in (7, 2, 11, 5, 0, 9))) is True

    def test_wrong_largest_part_with_matching_tails_is_false(self):
        pfds = decompositions(SIX, 10)
        part = pfds[10].polynomial_part  # [h_4, ..., h_0]
        wrong = self.with_part(pfds[10], [part[0] + 1, *part[1:]])
        assert wrong.polynomial_part[2:] == pfds[8].polynomial_part
        assert reconstruct(pfds[7], pfds[8], wrong) is False
        assert reconstruct(wrong, pfds[8], pfds[3]) is False

    def test_same_power_different_parts_is_false(self):
        pfd = decompose(9, SIX)
        part = pfd.polynomial_part
        wrong = self.with_part(pfd, [part[0], part[1] - 1, *part[2:]])
        assert reconstruct(pfd, wrong) is False
        assert reconstruct(wrong, pfd) is False

    def test_quotient_multiplied_out_once_per_call(self, monkeypatch):
        # x^N is divided by w once per batch, and its quotient is compared
        # with the largest part by one `_equal`; every other part is a tail
        calls = []
        true_equal = partfrac._equal
        monkeypatch.setattr(partfrac, "_equal", lambda *a: calls.append(a) or true_equal(*a))
        assert reconstruct(*decompositions(SIX, 20)) is True
        assert len(calls) == 1

    def test_padded_largest_part(self):
        # A zero leading coefficient leaves the largest part as it is, alone
        # or in a batch; one coefficient short, it is not the quotient.
        pfds = decompositions(SIX, 12)
        part = pfds[12].polynomial_part  # [h_6, ..., h_0]
        padded = self.with_part(pfds[12], [*part, F(0)])
        short = self.with_part(pfds[12], part[1:])
        assert reconstruct(padded) is True
        assert reconstruct(*pfds[:12], padded) is True
        assert reconstruct(short) is False

    def test_different_poles_raise(self):
        with pytest.raises(ValueError):
            reconstruct(decompose(3, SIX), decompose(3, FOUR))

    @staticmethod
    def corrupt_node_polynomial(monkeypatch, corrupt):
        """Make the poles' NodeSet.polynomial, which reconstruct reads,
        corrupt(L, b, W)."""
        true_polynomial = NodeSet.polynomial.func
        monkeypatch.setattr(NodeSet, "polynomial",
                            property(lambda ns: corrupt(*true_polynomial(ns))))

    def test_pole_not_a_root_is_false(self, monkeypatch):
        # b_0 = 3 becomes 4, which is not a root of W
        self.corrupt_node_polynomial(monkeypatch, lambda L, b, W: (L, [b[0] + 1, *b[1:]], W))
        assert reconstruct(decompose(5, SIX)) is False

    def test_missing_residue_is_false(self):
        # With a pole left unchecked the interpolation proves nothing: the
        # pole at 0 has residue 0, and dropping it leaves x^2 unproved.
        pfd = decompose(2, nodeset_new([-2, -1, 0]))
        assert pfd.residues[-1] == 0
        short = PartialFractionDecomposition(2, pfd.poles, [], pfd.residues[:-1])
        assert reconstruct(pfd) is True
        assert reconstruct(short) is False

    def test_non_monic_node_polynomial_is_false(self, monkeypatch):
        # 2W still vanishes at every pole; the decomposition over it, with
        # every coefficient halved, agrees with it but is not x^n's.
        self.corrupt_node_polynomial(monkeypatch, lambda L, b, W: (L, b, [2 * c for c in W]))
        pfd = decompose(8, SIX)
        halved = PartialFractionDecomposition(
            8, SIX, [c / 2 for c in pfd.polynomial_part], [r / 2 for r in pfd.residues])
        assert reconstruct(halved) is False

    @staticmethod
    def expand(pfd):
        """x^n == part * w + sum r_i w / (x - a_i), coefficient by
        coefficient over Fractions: the check before interpolation."""
        values = pfd.poles.values
        rhs = [F(0)] * (max(pfd.power, len(pfd.polynomial_part) - 1 + len(values)) + 1)
        for k, c in enumerate(pfd.polynomial_part):
            for j, wj in enumerate(poly_from_roots(values)):
                rhs[k + j] += c * wj
        for i, r in enumerate(pfd.residues):
            for j, cj in enumerate(poly_from_roots(values[:i] + values[i + 1:])):
                rhs[j] += r * cj
        lhs = [F(0)] * len(rhs)
        lhs[pfd.power] = F(1)
        return lhs == rhs

    @settings(deadline=None)
    @given(node_sets, st.integers(min_value=0, max_value=13),
           st.sampled_from(["none", "residue", "part", "leading", "extend"]),
           rationals.filter(bool), st.data())
    def test_agrees_with_coefficient_expansion(self, ns, n, change, delta, data):
        pfd = decompose(n, ns)
        residues, part = list(pfd.residues), list(pfd.polynomial_part)
        if change == "residue":
            residues[data.draw(st.integers(0, ns.m - 1))] += delta
        elif change == "part" and part:
            part[data.draw(st.integers(0, len(part) - 1))] += delta
        elif change == "leading" and part:
            part[-1] += delta
        elif change != "none":  # a new leading coefficient
            part.append(delta)
        altered = PartialFractionDecomposition(n, ns, part, residues)
        assert reconstruct(altered) is self.expand(altered)
        assert reconstruct(altered) is (change == "none")

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
