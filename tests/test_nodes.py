import io
import json
from contextlib import redirect_stdout
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from math import gcd, lcm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffprod import (
    DuplicateNode,
    EmptyNodeSet,
    NegativeExponent,
    diff_products,
    diff_products_via_derivative,
    euler_sums,
    expected_euler_sums,
    homogeneous_brute_force,
    nodeset_new,
)
from diffprod import cli
from diffprod.exactpoly import evaluate
from diffprod.nodes import _lcm
from .strategies import EDGE_SETS, node_sets, rationals

SIX = nodeset_new([3, 8, 12, 15, 17, 18])
FOUR = nodeset_new([2, 5, 7, 8])


class TestNodeSetNew:
    def test_sorts(self):
        assert nodeset_new([8, 2, 7, 5]).values == (2, 5, 7, 8)

    def test_keeps_sorted_input(self):
        assert SIX.values == (3, 8, 12, 15, 17, 18)

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateNode) as exc:
            nodeset_new([1, 1, 2])
        assert exc.value.value == 1

    def test_rejects_empty(self):
        with pytest.raises(EmptyNodeSet):
            nodeset_new([])

    @given(st.lists(st.one_of(
        rationals,
        st.integers(-10**40, 10**40),
        st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
    ), min_size=1, max_size=12))
    def test_order_and_duplicate_match_sorted_fractions(self, values):
        # nodeset_new sorts by integer keys; sorted() compares the Fractions.
        # The first adjacent equal pair of the sorted list names the duplicate.
        expected = sorted(map(F, values))
        dup = next((a for a, b in zip(expected, expected[1:]) if a == b), None)
        if dup is None:
            assert nodeset_new(values).values == tuple(expected)
        else:
            with pytest.raises(DuplicateNode) as exc:
                nodeset_new(values)
            assert exc.value.value == dup and type(exc.value.value) is F

    def test_cache_leaves_equality_and_hash_alone(self):
        filled, fresh = nodeset_new([2, 5, 7, 8]), nodeset_new([8, 7, 5, 2])
        before = hash(filled)
        assert filled.products == (-90, 18, -10, 18)
        assert filled.polynomial == (1, (2, 5, 7, 8), (560, -542, 171, -22, 1))
        assert filled == fresh and hash(filled) == hash(fresh) == before
        assert {fresh: "x"}[filled] == "x"
        assert repr(filled) == repr(fresh)
        with pytest.raises(FrozenInstanceError):
            filled.values = ()


class TestScaled:
    """ns.polynomial = (L, b, W): the nodes b_i = a_i*L on integers and
    W(z) = prod(z - b_i)."""

    def test_mixed_denominators(self):
        ns = nodeset_new([F(1, 2), F(-2, 3), F(5, 6), 4])
        assert ns.polynomial[:2] == (6, (-4, 3, 5, 24))

    def test_integers_are_their_own_scale(self):
        assert FOUR.polynomial == (1, (2, 5, 7, 8), (560, -542, 171, -22, 1))

    @given(node_sets)
    def test_scaled_nodes_are_the_nodes(self, ns):
        L, b, W = ns.polynomial
        assert all(type(x) is int for x in (*b, *W))
        assert [F(bi, L) for bi in b] == list(ns.values)
        assert len(W) == ns.m + 1 and W[-1] == 1
        assert not any(evaluate(W, bi) for bi in b)


# Direct Fraction products: the reference the integer kernel must reproduce.
def inline_products(vals):
    return [prod((a - b for b in vals if b != a), start=F(1)) for a in vals]


BIG = 10**40
big_ints = st.integers(-BIG, BIG)
# Primes of 2 to 127 bits, so that denominators drawn from them without
# repetition are pairwise coprime and their lcm is their product.
PRIMES = [2, 3, 5, 7, 11, 13, 97, 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1]


def distinct_node_sets(values):
    return st.lists(values, min_size=1, max_size=8, unique=True).map(nodeset_new)


large_node_sets = st.one_of(
    # numerators and denominators up to 10**40
    distinct_node_sets(st.builds(F, big_ints, st.integers(1, BIG))),
    # pairwise-coprime denominators
    st.lists(st.tuples(big_ints, st.sampled_from(PRIMES)), min_size=1, max_size=8,
             unique_by=lambda pq: pq[1]).map(lambda pqs: nodeset_new({F(p, q) for p, q in pqs})),
    # integers only
    distinct_node_sets(big_ints),
)


class TestDiffProducts:
    def test_four_nodes(self):
        assert diff_products(FOUR) == [-90, 18, -10, 18]

    def test_six_nodes(self):
        assert diff_products(SIX) == [-113400, 12600, -3240, 1512, -1260, 2700]

    def test_singleton_empty_product(self):
        assert diff_products(nodeset_new([F(5)])) == [1]

    @given(node_sets)
    def test_matches_inline_fraction_products(self, ns):
        got = diff_products(ns)
        assert all(type(A) is F for A in got)
        assert got == inline_products(ns.values)

    @pytest.mark.parametrize("values", EDGE_SETS.values(), ids=EDGE_SETS)
    def test_edge_sets_match_inline_fraction_products(self, values):
        ns = nodeset_new(values)
        assert diff_products(ns) == inline_products(ns.values)
        assert diff_products(ns) == diff_products_via_derivative(ns)

    @given(large_node_sets)
    def test_large_entries_match_inline_and_derivative_route(self, ns):
        got = diff_products(ns)
        assert got == inline_products(ns.values)
        assert got == diff_products_via_derivative(ns)

    @given(node_sets)
    def test_sign_parity(self, ns):
        products = diff_products(ns)
        for i, A in enumerate(products):
            assert (-1) ** (ns.m - 1 - i) * A > 0

    @given(node_sets, rationals)
    def test_translation_invariance(self, ns, t):
        shifted = nodeset_new([v + t for v in ns.values])
        assert diff_products(shifted) == diff_products(ns)

    @given(node_sets, rationals.filter(lambda c: c != 0))
    def test_scaling_covariance(self, ns, c):
        scaled = nodeset_new([c * v for v in ns.values])
        expected = [c ** (ns.m - 1) * A for A in diff_products(ns)]
        got = diff_products(scaled)
        if c > 0:
            assert got == expected
        else:
            # Negative scaling reverses the sort order.
            assert got == expected[::-1]


class TestDerivativeRoute:
    def test_four_nodes(self):
        assert diff_products_via_derivative(FOUR) == [-90, 18, -10, 18]

    def test_two_nodes(self):
        assert diff_products_via_derivative(nodeset_new([0, 1])) == [-1, 1]

    def test_singleton(self):
        assert diff_products_via_derivative(nodeset_new([F(-7, 2)])) == [1]

    @given(node_sets)
    def test_agrees_with_direct_products(self, ns):
        assert diff_products_via_derivative(ns) == diff_products(ns)


class TestEulerSum:
    def test_first_example(self):
        assert euler_sums(FOUR, 0)[0] == 0

    def test_six_nodes_power_five(self):
        assert euler_sums(SIX, 5)[5] == 1

    def test_six_nodes_power_six(self):
        assert euler_sums(SIX, 6)[6] == 73

    def test_four_nodes_power_four(self):
        # (-16 + 3125 - 21609 + 20480) / 90 over the common denominator 90
        assert euler_sums(FOUR, 4)[4] == 22

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponent):
            euler_sums(FOUR, -1)

    @given(node_sets, st.integers(min_value=0, max_value=12))
    def test_matches_closed_form(self, ns, n):
        assert euler_sums(ns, n)[n] == expected_euler_sums(ns, n)[n]

    @given(rationals, st.integers(min_value=0, max_value=8))
    def test_singleton_degenerate(self, a, n):
        ns = nodeset_new([a])
        assert euler_sums(ns, n)[n] == a**n == expected_euler_sums(ns, n)[n]


class TestEulerSums:
    @given(node_sets, st.integers(min_value=0, max_value=10))
    def test_matches_inline_sum(self, ns, nmax):
        vals = ns.values
        products = inline_products(vals)
        assert euler_sums(ns, nmax) == [
            sum((a**n / A for a, A in zip(vals, products)), F(0))
            for n in range(nmax + 1)
        ]

    @given(node_sets, st.integers(min_value=0, max_value=10))
    def test_closed_forms_match_brute_force(self, ns, nmax):
        h = homogeneous_brute_force(ns, max(nmax - ns.m + 1, 0))
        assert expected_euler_sums(ns, nmax) == [
            F(0) if n <= ns.m - 2 else h[n - ns.m + 1] for n in range(nmax + 1)
        ]

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponent, match="got -1"):
            euler_sums(FOUR, -1)
        with pytest.raises(NegativeExponent, match="got -1"):
            expected_euler_sums(FOUR, -1)


class TestExpectedEulerSum:
    def test_zero_regime(self):
        assert expected_euler_sums(SIX, 3)[3] == 0

    def test_at_m(self):
        assert expected_euler_sums(SIX, 6)[6] == 73

    def test_h2_of_small_set(self):
        # h_2({1,2,3}) by monomial enumeration: 1+4+9+2+3+6 = 25
        assert expected_euler_sums(nodeset_new([1, 2, 3]), 4)[4] == 25

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponent):
            expected_euler_sums(SIX, -2)


class TestPairwiseLcm:
    @given(st.lists(big_ints, min_size=1, max_size=20))
    def test_matches_flat_lcm(self, xs):
        assert _lcm(xs) == lcm(*xs)

    @pytest.mark.parametrize("xs", [[-6], [-4, 6], [0, -3, 5]])
    def test_negative_and_short_lists(self, xs):
        assert _lcm(xs) == lcm(*xs)


class TestCommonDenominatorForm:
    """The paper's line over 3150: its terms are the reciprocals 1/|A_i|
    scaled by 36, the gcd of the magnitudes, with alternating signs."""

    def test_scaled_reciprocals(self):
        scaled = [
            sign * F(36, abs(A))
            for sign, A in zip([1, -1, 1, -1, 1, -1], diff_products(SIX))
        ]
        assert scaled == [
            F(1, 3150), F(-1, 350), F(1, 90), F(-1, 42), F(1, 35), F(-1, 75),
        ]


def weights_json(ns, n):
    """The JSON that `diffprod weights --n n --format json` prints for ns."""
    out = io.StringIO()
    argv = ["weights", "--n", str(n), "--format", "json", "--", " ".join(map(str, ns.values))]
    with redirect_stdout(out):
        assert cli.run(argv) == 0
    return json.loads(out.getvalue())


def reference_weights(ns, n):
    """The weights display over Fractions: term i is (-1)^i a_i^n / |A_i|,
    and the line puts the terms over the lcm of their denominators, divided
    at n = 0 on integer magnitudes by the magnitudes' gcd."""
    products = diff_products(ns)
    terms = [(-1) ** i * a**n / abs(A) for i, (a, A) in enumerate(zip(ns.values, products))]
    den = lcm(*(t.denominator for t in terms))
    integral = n == 0 and all(A.denominator == 1 for A in products)
    scale = gcd(*(A.numerator for A in products)) if integral else 1
    return {
        "verb": "weights", "nodes": [str(a) for a in ns.values], "m": ns.m, "n": n,
        "products": [str(A) for A in products],
        "rows": [{"node": str(a), "signed_denominator": str(A), "magnitude": str(abs(A)),
                  "sign": (-1) ** i, "numerator": str(a**n)}
                 for i, (a, A) in enumerate(zip(ns.values, products))],
        "scale": str(scale),
        "common_numerators": [str(t.numerator * (den // t.denominator)) for t in terms],
        "common_denominator": str(den // scale),
        "sum": str(sum(terms)),
    }


class TestAlternatingDisplay:
    """The paper's display of a sum, as the JSON of the CLI's `weights`."""

    def test_six_node_rendering(self):
        res = weights_json(SIX, 0)
        assert [r["sign"] for r in res["rows"]] == [1, -1, 1, -1, 1, -1]
        assert [r["magnitude"] for r in res["rows"]] == [
            "113400", "12600", "3240", "1512", "1260", "2700",
        ]
        assert [r["signed_denominator"] for r in res["rows"]] == [
            str(A) for A in diff_products(SIX)
        ]
        assert sum(map(int, res["common_numerators"])) == 0

    def test_two_nodes(self):
        res = weights_json(nodeset_new([0, 1]), 0)
        assert [r["magnitude"] for r in res["rows"]] == ["1", "1"]
        assert [r["node"] for r in res["rows"]] == ["0", "1"]

    def test_numerators_are_powers(self):
        res = weights_json(SIX, 5)
        assert [r["numerator"] for r in res["rows"]] == [
            str(v**5) for v in SIX.values
        ]

    @given(node_sets, st.integers(min_value=0, max_value=6))
    def test_display_consistency(self, ns, n):
        res = weights_json(ns, n)
        total = sum(
            r["sign"] * F(r["numerator"]) / F(r["magnitude"]) for r in res["rows"]
        )
        den = int(res["common_denominator"]) * int(res["scale"])
        assert F(sum(map(int, res["common_numerators"])), den) == total
        assert F(res["sum"]) == total
        assert abs(total) == abs(euler_sums(ns, n)[n])

    @given(node_sets, st.integers(min_value=0, max_value=6))
    def test_matches_fraction_reference(self, ns, n):
        assert cli._run_weights(ns, n) == reference_weights(ns, n)
