from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from diffprod import (
    poly_add,
    poly_derivative,
    poly_divide_linear,
    poly_eval,
    poly_from_roots,
    poly_mul,
)
from .strategies import rationals

# z^4 - 22 z^3 + 171 z^2 - 542 z + 560, ascending.
# Expected coefficients derived by expanding (z-2)(z-5)(z-7)(z-8) pairwise:
# (z^2 - 7z + 10)(z^2 - 15z + 56).
QUARTIC = [F(560), F(-542), F(171), F(-22), F(1)]

polys = st.lists(rationals, max_size=6)


def _norm(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


class TestFromRoots:
    def test_empty_product_is_one(self):
        assert poly_from_roots([]) == [F(1)]

    def test_four_integer_roots(self):
        assert poly_from_roots([2, 5, 7, 8]) == QUARTIC

    def test_repeated_root_at_origin(self):
        assert poly_from_roots([0, 0]) == [F(0), F(0), F(1)]

    @given(st.lists(rationals, max_size=8))
    def test_roots_evaluate_to_zero(self, roots):
        p = poly_from_roots(roots)
        for r in roots:
            assert poly_eval(p, r) == 0


class TestDerivative:
    def test_constant(self):
        assert poly_derivative([F(1)]) == []

    def test_quartic(self):
        assert poly_derivative(QUARTIC) == [F(-542), F(342), F(-66), F(4)]

    def test_square(self):
        assert poly_derivative([F(0), F(0), F(1)]) == [F(0), F(2)]

    @given(polys, polys)
    def test_linearity(self, p, q):
        p, q = _norm(p), _norm(q)
        assert poly_derivative(poly_add(p, q)) == poly_add(
            poly_derivative(p), poly_derivative(q)
        )


class TestEval:
    def test_root_of_quartic(self):
        assert poly_eval(QUARTIC, 2) == 0

    def test_derivative_at_two(self):
        assert poly_eval([F(-542), F(342), F(-66), F(4)], 2) == -90

    def test_zero_polynomial(self):
        assert poly_eval([], F(7, 3)) == 0


class TestDivideLinear:
    def test_factor_quadratic(self):
        q, r = poly_divide_linear([F(2), F(-3), F(1)], 1)
        assert q == [F(-2), F(1)]
        assert r == 0

    def test_quartic_by_root(self):
        q, r = poly_divide_linear(QUARTIC, 2)
        assert q == [F(-280), F(131), F(-20), F(1)]
        assert r == 0

    def test_nonzero_remainder(self):
        q, r = poly_divide_linear([F(0), F(0), F(1)], 1)
        assert q == [F(1), F(1)]
        assert r == 1

    @given(polys, rationals)
    def test_recomposition(self, p, a):
        p = _norm(p)
        q, r = poly_divide_linear(p, a)
        recomposed = poly_add(poly_mul(q, [-F(a), F(1)]), [r])
        assert recomposed == p
        assert r == poly_eval(p, a)


class TestRingOps:
    def test_product_of_linears(self):
        assert poly_mul([F(-1), F(1)], [F(-2), F(1)]) == [F(2), F(-3), F(1)]

    def test_difference_of_squares(self):
        assert poly_mul([F(1), F(1)], [F(-1), F(1)]) == [F(-1), F(0), F(1)]

    @given(polys)
    def test_additive_identity(self, p):
        p = _norm(p)
        assert poly_add(p, []) == p

    @given(polys, polys)
    def test_degree_of_product(self, p, q):
        p, q = _norm(p), _norm(q)
        if p and q:
            assert len(poly_mul(p, q)) == len(p) + len(q) - 1
        else:
            assert poly_mul(p, q) == []
