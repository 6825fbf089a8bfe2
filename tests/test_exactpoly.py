from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffprod import nodeset_new
from diffprod.exactpoly import derivative, evaluate, node_polynomial
from .strategies import EDGE_SETS, node_sets, poly_from_roots

# z^4 - 22 z^3 + 171 z^2 - 542 z + 560, ascending.
# Expected coefficients derived by expanding (z-2)(z-5)(z-7)(z-8) pairwise:
# (z^2 - 7z + 10)(z^2 - 15z + 56).
QUARTIC = [560, -542, 171, -22, 1]

ints = st.integers(min_value=-50, max_value=50)
polys = st.lists(ints, max_size=6)
integer_roots = st.lists(ints.map(F), max_size=5)
edge_sets = pytest.mark.parametrize(
    "ns", [nodeset_new(v) for v in EDGE_SETS.values()], ids=EDGE_SETS)


def _mul(p, q):
    """Integer polynomial product, kept here as a reference."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, c in enumerate(q):
            out[i + j] += a * c
    return out


def _add(p, q):
    """Coefficient-wise sum of two integer lists, the shorter padded with 0."""
    n = max(len(p), len(q))
    return [a + c for a, c in zip(p + [0] * (n - len(p)), q + [0] * (n - len(q)))]


class TestFromRoots:
    def test_empty_product_is_one(self):
        assert node_polynomial([]) == (1, [], [1])

    def test_four_integer_roots(self):
        values = nodeset_new([2, 5, 7, 8]).values
        assert node_polynomial(values) == (1, [2, 5, 7, 8], QUARTIC)

    def test_rational_roots_are_scaled(self):
        # L = 6, b = (-4, 3): (z + 4)(z - 3)
        assert node_polynomial([F(-2, 3), F(1, 2)]) == (6, [-4, 3], [-12, 1, 1])

    def test_repeated_root_at_origin(self):
        assert node_polynomial([F(0), F(0)]) == (1, [0, 0], [0, 0, 1])

    @given(node_sets)
    def test_roots_evaluate_to_zero(self, ns):
        L, b, W = node_polynomial(ns.values)
        for bi in b:
            assert evaluate(W, bi) == 0

    @staticmethod
    def check_scaled_poly_from_roots(ns):
        # W(z) = L^m w(z/L), so [z^k] W = L^(m-k) [x^k] w.
        L, b, W = node_polynomial(ns.values)
        assert all(type(c) is int for c in (L, *b, *W))
        assert [F(bi, L) for bi in b] == list(ns.values)
        w = poly_from_roots(ns.values)
        assert W == [L ** (ns.m - k) * c for k, c in enumerate(w)]

    @given(node_sets)
    def test_node_polynomial_is_scaled_poly_from_roots(self, ns):
        self.check_scaled_poly_from_roots(ns)

    @edge_sets
    def test_edge_sets_are_scaled_poly_from_roots(self, ns):
        self.check_scaled_poly_from_roots(ns)


class TestDerivative:
    def test_constant(self):
        assert derivative([1]) == []

    def test_quartic(self):
        assert derivative(QUARTIC) == [-542, 342, -66, 4]

    def test_square(self):
        assert derivative([0, 0, 1]) == [0, 2]

    @given(polys, polys)
    def test_linearity(self, p, q):
        assert derivative(_add(p, q)) == _add(derivative(p), derivative(q))

    @staticmethod
    def check_difference_products(ns):
        L, b, W = node_polynomial(ns.values)
        w1 = derivative(W)
        for i, bi in enumerate(b):
            assert evaluate(w1, bi) == prod(bi - bj for j, bj in enumerate(b) if j != i)

    @given(node_sets)
    def test_derivative_at_roots_is_difference_product(self, ns):
        self.check_difference_products(ns)

    @edge_sets
    def test_edge_sets_derivative_at_roots(self, ns):
        self.check_difference_products(ns)


class TestEval:
    def test_root_of_quartic(self):
        assert evaluate(QUARTIC, 2) == 0

    def test_derivative_at_two(self):
        assert evaluate([-542, 342, -66, 4], 2) == -90

    def test_zero_polynomial(self):
        assert evaluate([], 7) == 0

    @given(polys, ints)
    def test_matches_power_sum(self, p, x):
        assert evaluate(p, x) == sum(c * x**k for k, c in enumerate(p))


class TestDivideLinear:
    """W divided by each of its linear factors z - b_i."""

    @staticmethod
    def check_cofactors(ns):
        # W = (z - b_i) prod_{j != i}(z - b_j) with remainder W(b_i) = 0, and the
        # cofactor's value at b_i is W'(b_i): reconstruct relies on both.
        L, b, W = node_polynomial(ns.values)
        w1 = derivative(W)
        for i, bi in enumerate(b):
            q = poly_from_roots(b[:i] + b[i + 1:])
            assert _mul(q, [-bi, 1]) == W
            assert evaluate(W, bi) == 0
            assert evaluate(w1, bi) == evaluate(q, bi)

    @given(node_sets)
    def test_cofactors_of_node_polynomial(self, ns):
        self.check_cofactors(ns)

    @edge_sets
    def test_edge_sets_cofactors(self, ns):
        self.check_cofactors(ns)


class TestRingOps:
    def test_product_of_linears(self):
        assert node_polynomial([F(1), F(2)])[2] == [2, -3, 1]

    def test_difference_of_squares(self):
        assert node_polynomial([F(-1), F(1)])[2] == [-1, 0, 1]

    @given(integer_roots, integer_roots)
    def test_degree_of_product(self, u, v):
        W = node_polynomial(u + v)[2]
        assert W == _mul(node_polynomial(u)[2], node_polynomial(v)[2])
        assert len(W) == len(u) + len(v) + 1
