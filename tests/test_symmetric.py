from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import lcm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffprod import (
    elementary_all,
    homogeneous_brute_force,
    homogeneous_via_elementary,
    homogeneous_via_power_sums,
    newton_power_from_elementary,
    nodeset_new,
    power_sums,
)
from diffprod.symmetric import _equal, _unscale
from .strategies import (
    EDGE_SETS,
    node_sets,
    poly_from_roots,
    rationals,
    reference_elementary,
    reference_homogeneous_via_elementary,
    reference_homogeneous_via_power_sums,
    reference_newton,
    reference_power_sums,
)

ONE_TWO_THREE = nodeset_new([1, 2, 3])


class TestElementary:
    def test_sum_of_six_nodes(self):
        e = elementary_all(nodeset_new([3, 8, 12, 15, 17, 18]), 1)
        assert e == [1, 73]

    def test_four_nodes_full(self):
        # Subset-product enumeration: e2 = 10+14+16+35+40+56, e3 = 70+80+112+280
        assert elementary_all(nodeset_new([2, 5, 7, 8]), 4) == [
            1, 22, 171, 542, 560,
        ]

    def test_zero_beyond_m(self):
        assert elementary_all(ONE_TWO_THREE, 5) == [1, 6, 11, 6, 0, 0]

    @staticmethod
    def from_poly_coefficients(ns, kmax):
        """e_k = (-1)^k [z^(m-k)] prod(z - a_i), over Fractions; 0 beyond m."""
        coeffs = poly_from_roots(ns.values)
        return [(-1) ** k * coeffs[ns.m - k] if k <= ns.m else F(0)
                for k in range(kmax + 1)]

    @given(node_sets, st.integers(min_value=0, max_value=3))
    def test_matches_poly_from_roots(self, ns, extra):
        got = elementary_all(ns, ns.m + extra)
        assert all(type(e) is F for e in got)
        assert got == self.from_poly_coefficients(ns, ns.m + extra)

    @pytest.mark.parametrize("values", EDGE_SETS.values(), ids=EDGE_SETS)
    def test_edge_sets_match_poly_from_roots(self, values):
        ns = nodeset_new(values)
        for kmax in (0, ns.m, ns.m + 2):
            assert elementary_all(ns, kmax) == self.from_poly_coefficients(ns, kmax)


class TestPowerSums:
    def test_small_set(self):
        assert power_sums(ONE_TWO_THREE, 2) == [6, 14]

    def test_four_nodes(self):
        assert power_sums(nodeset_new([2, 5, 7, 8]), 1) == [22]

    def test_zero_node(self):
        assert power_sums(nodeset_new([0]), 3) == [0, 0, 0]


class TestHomogeneousRecurrences:
    def test_h2_via_elementary(self):
        h = homogeneous_via_elementary(ONE_TWO_THREE, 2)
        assert h[2] == 36 - 11 == 25

    def test_h0_is_one(self):
        assert homogeneous_via_elementary(nodeset_new([17]), 0) == [F(1)]
        assert homogeneous_via_power_sums(nodeset_new([17]), 0) == [F(1)]

    def test_h3_via_elementary(self):
        h = homogeneous_via_elementary(ONE_TWO_THREE, 3)
        assert h[3] == 216 - 132 + 6 == 90

    def test_h1_via_power_sums(self):
        assert homogeneous_via_power_sums(ONE_TWO_THREE, 1)[1] == 6

    def test_h2_via_power_sums(self):
        assert homogeneous_via_power_sums(ONE_TWO_THREE, 2)[2] == F(1, 2) * (6 * 6 + 14)

    @given(node_sets, st.integers(min_value=0, max_value=8))
    def test_triple_agreement(self, ns, kmax):
        h_e = homogeneous_via_elementary(ns, kmax)
        h_p = homogeneous_via_power_sums(ns, kmax)
        assert h_e == h_p
        assert h_e == homogeneous_brute_force(ns, kmax)

    @given(node_sets)
    def test_closed_form_expansions(self, ns):
        e = elementary_all(ns, 5)
        P, Q, R, S, T = e[1], e[2], e[3], e[4], e[5]
        h = homogeneous_via_elementary(ns, 5)
        assert h[2] == P**2 - Q
        assert h[3] == P**3 - 2 * P * Q + R
        assert h[4] == P**4 - 3 * P**2 * Q + 2 * P * R + Q**2 - S
        assert h[5] == (
            P**5 - 4 * P**3 * Q + 3 * P**2 * R + 3 * P * Q**2
            - 2 * P * S - 2 * Q * R + T
        )

    @given(node_sets)
    def test_generating_function_coefficients(self, ns):
        # Series inverse of prod(1 - a_i z) truncated at degree 4 must list
        # h_0..h_4.  Computed by direct power-series division.
        d = [F(1)]
        for a in ns.values:
            d = [
                (d[k] if k < len(d) else F(0))
                - a * (d[k - 1] if 0 <= k - 1 < len(d) else F(0))
                for k in range(len(d) + 1)
            ]
        series = []
        for k in range(5):
            c = F(1) if k == 0 else F(0)
            for j in range(1, k + 1):
                if j < len(d):
                    c -= d[j] * series[k - j]
            series.append(c)
        assert series == homogeneous_brute_force(ns, 4)


class TestBruteForce:
    def test_small_case(self):
        assert homogeneous_brute_force(ONE_TWO_THREE, 2) == [1, 6, 25]

    def test_single_node_powers(self):
        c = F(-7, 3)
        ns = nodeset_new([c])
        assert homogeneous_brute_force(ns, 4) == [c**k for k in range(5)]

    def test_k_zero(self):
        h = homogeneous_brute_force(nodeset_new([F(1, 2), F(-5, 3)]), 0)
        assert len(h) == 1 and type(h[0]) is F and h[0] == F(1)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            homogeneous_brute_force(ONE_TWO_THREE, -1)

    def test_deep_k_on_three_nodes(self):
        # C(447, 2) = 99681 multisets at k = 445, summed in 3*445 products.
        ns = nodeset_new(["1/2", "-3", "7/3"])
        assert homogeneous_brute_force(ns, 445) == homogeneous_via_elementary(ns, 445)

    @given(st.lists(rationals, min_size=1, max_size=6, unique=True), st.booleans(),
           st.integers(min_value=0, max_value=6))
    def test_matches_fraction_enumeration(self, values, with_zero, kmax):
        ns = nodeset_new(set(values) | {F(0)} if with_zero else values)
        expected = []
        for k in range(kmax + 1):
            total = F(0)
            for combo in combinations_with_replacement(ns.values, k):
                term = F(1)
                for a in combo:
                    term *= a
                total += term
            expected.append(total)
        h = homogeneous_brute_force(ns, kmax)
        assert all(type(v) is F for v in h) and h == expected

    @given(st.lists(rationals, min_size=1, max_size=6, unique=True),
           st.integers(min_value=0, max_value=8))
    def test_halves_match_plain_enumeration(self, values, kmax):
        # Every multiset of the scaled integers enumerated on its own, against
        # the oracle's node-by-node sums.
        ns = nodeset_new(values)
        L = lcm(*(a.denominator for a in ns.values))
        b = [a.numerator * (L // a.denominator) for a in ns.values]
        expected = [F(sum(prod(c) for c in combinations_with_replacement(b, k)), L**k)
                    for k in range(kmax + 1)]
        h = homogeneous_brute_force(ns, kmax)
        assert all(type(v) is F for v in h) and h == expected


class TestNewton:
    def test_p1_equals_e1(self):
        assert newton_power_from_elementary(ONE_TWO_THREE, 1) == [6]

    def test_p2(self):
        assert newton_power_from_elementary(ONE_TWO_THREE, 2)[1] == 36 - 22 == 14

    def test_p2_four_nodes(self):
        ns = nodeset_new([2, 5, 7, 8])
        assert elementary_all(ns, 2) == [1, 22, 171]
        assert newton_power_from_elementary(ns, 2)[1] == 22 * 22 - 2 * 171 == 142

    @given(node_sets, st.integers(min_value=1, max_value=8))
    def test_round_trip(self, ns, kmax):
        assert newton_power_from_elementary(ns, kmax) == power_sums(ns, kmax)


class TestFractionReference:
    """The integer recurrences give, value for value, what the same
    recurrences give over Fractions (tests/strategies.py)."""

    @staticmethod
    def check(ns, kmax):
        e = reference_elementary(ns.values)
        p = reference_power_sums(ns.values, max(kmax, 1))
        pairs = [
            (power_sums(ns, max(kmax, 1)), p),
            (homogeneous_via_elementary(ns, kmax),
             reference_homogeneous_via_elementary(e, kmax)),
            (homogeneous_via_power_sums(ns, kmax),
             reference_homogeneous_via_power_sums(p, kmax)),
            (newton_power_from_elementary(ns, max(kmax, 1)),
             reference_newton(e, max(kmax, 1))),
        ]
        for got, want in pairs:
            assert all(type(v) is F for v in got)
            assert [(v.numerator, v.denominator) for v in got] == [
                (v.numerator, v.denominator) for v in want]

    @given(node_sets, st.data())
    def test_generated_sets(self, ns, data):
        self.check(ns, data.draw(st.integers(min_value=0, max_value=ns.m + 4)))

    @pytest.mark.parametrize("values", EDGE_SETS.values(), ids=EDGE_SETS)
    def test_edge_sets(self, values):
        ns = nodeset_new(values)
        for kmax in range(ns.m + 5):
            self.check(ns, kmax)


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=1,
                max_size=6, unique=True), st.randoms())
def test_permutation_invariance(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    a, b = nodeset_new(values), nodeset_new(shuffled)
    assert elementary_all(a, 6) == elementary_all(b, 6)
    assert power_sums(a, 6) == power_sums(b, 6)
    assert homogeneous_brute_force(a, 3) == homogeneous_brute_force(b, 3)


@pytest.mark.parametrize("route", [elementary_all, homogeneous_via_elementary,
                                   homogeneous_via_power_sums, homogeneous_brute_force])
def test_negative_depth_raises(route):
    with pytest.raises(ValueError, match="kmax must be >= 0"):
        route(ONE_TWO_THREE, -1)


class TestScaledEqual:
    """`_equal` compares two scaled lists (L, X, first), the values
    X[k] / (first * L^k), with the verdict of comparing their Fractions."""

    X = [3, -5, 0, 7, 11]  # over L = 6, first = 1

    def test_same_values_on_another_scale(self):
        doubled = [x * 2**k for k, x in enumerate(self.X)]
        assert _equal((6, self.X, 1), (12, doubled, 1))
        assert _equal((12, doubled, 1), (6, self.X, 1))

    def test_same_values_with_another_first(self):
        # X[k] / (5 * 6^k) == Y[k] / (15 * 12^k) for Y[k] = 3 * 2^k * X[k]
        other = [3 * x * 2**k for k, x in enumerate(self.X)]
        assert _equal((6, self.X, 5), (12, other, 15))
        assert _unscale(6, self.X, 5) == _unscale(12, other, 15)

    @pytest.mark.parametrize("k", range(len(X)))
    def test_one_unit_off_in_any_entry_is_unequal(self, k):
        off = [x + (i == k) for i, x in enumerate(self.X)]
        doubled = [x * 2**i for i, x in enumerate(off)]
        assert not _equal((6, self.X, 1), (6, off, 1))
        assert not _equal((6, self.X, 1), (12, doubled, 1))
        assert not _equal((6, self.X, 5), (6, off, 5))

    def test_same_integers_on_two_scales_are_unequal(self):
        # a wrong scale leaves the integers as they were: never compare
        # them without their scales
        assert not _equal((6, self.X, 1), (12, self.X, 1))
        assert not _equal((6, self.X, 1), (6, self.X, 2))

    def test_different_lengths_are_unequal(self):
        assert not _equal((6, self.X, 1), (6, self.X[:-1], 1))
        assert not _equal((6, [], 1), (6, [0], 1))
        assert _equal((6, [], 1), (1, [], 3))

    def test_indivisible_power_sum_entry(self):
        # the power-sum route on 1 2 3 with P_2 = 15 keeps 2 H_2 = 51 as 51/2
        wrong = (1, [1, 6, F(51, 2)], 1)
        assert not _equal(wrong, (1, [1, 6, 25], 1))
        assert _equal(wrong, (2, [1, 12, 102], 1))
        assert not _equal(wrong, (2, [1, 12, 100], 1))

    @given(st.lists(rationals, max_size=6), st.integers(1, 12), st.integers(1, 12),
           st.integers(1, 12), st.integers(1, 12), st.data())
    def test_verdict_of_the_fractions(self, values, L1, f1, L2, f2, data):
        # both sides put over their scales; then one entry perhaps changed
        X1 = [v * f1 * L1**k for k, v in enumerate(values)]
        X2 = [v * f2 * L2**k for k, v in enumerate(values)]
        if X2 and data.draw(st.booleans()):
            X2[data.draw(st.integers(0, len(X2) - 1))] += data.draw(rationals)
        a, b = (L1, X1, f1), (L2, X2, f2)
        assert _equal(a, b) is (_unscale(*a) == _unscale(*b))
