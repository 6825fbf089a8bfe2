"""Dense univariate polynomials with integer coefficients, and the one
lcm-and-rescale kernel of the makers.

A polynomial is a list of ints in ascending order of degree.  The node
polynomial w(x) = prod(x - a_i) of rational nodes is put on integers by L,
the lcm of their denominators: with b_i = a_i*L,
W(z) = prod(z - b_i) = L^m w(z/L).  Its derivative and its values (Horner)
are then integer operations.  All functions are pure and return fresh
lists.

Every maker that puts rationals over one denominator (the nodes' sort
keys and scaled values, the weights of the sums, the `weights` display)
does it by `_over_lcm`.  `node_polynomial` feeds only checks, so it scales
the nodes itself, with its own lcm: a wrong kernel then shows as a
disagreement between the makers and the e side.
"""

from __future__ import annotations

from math import lcm
from operator import add


def node_polynomial(values) -> tuple[int, list[int], list[int]]:
    """(L, b, W): L the lcm of the denominators, b_i = a_i*L, and the
    integer coefficients of W(z) = prod(z - b_i), ascending."""
    L = lcm(*(a.denominator for a in values))
    b = [a.numerator * (L // a.denominator) for a in values]
    W = [1]
    for bi in b:
        W = list(map(add, [0, *W], [-bi * c for c in W] + [0]))
    return L, b, W


def derivative(coeffs: list[int]) -> list[int]:
    """Coefficients of the derivative, ascending; [] for a constant."""
    return [k * c for k, c in enumerate(coeffs)][1:]


def evaluate(coeffs: list[int], x: int) -> int:
    """The value at x, by Horner's scheme; 0 for the empty list."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _over_lcm(pairs) -> tuple[int, list[int]]:
    """(D, [n_i * (D // d_i)]) for a list of integer pairs (n_i, d_i),
    each d_i nonzero of either sign: D > 0 is the lcm of the d_i, and
    each n_i / d_i is the integer over D."""
    D = _lcm([d for _, d in pairs])
    return D, [n * (D // d) for n, d in pairs]


def _lcm(xs: list) -> int:
    """lcm(*xs): flat for up to 8 operands, otherwise the lcm of its two
    halves' lcms, so that on long lists each lcm joins operands of about
    the same size."""
    n = len(xs)
    return lcm(*xs) if n <= 8 else lcm(_lcm(xs[:n // 2]), _lcm(xs[n // 2:]))
