"""Dense univariate polynomials with integer coefficients.

A polynomial is a list of ints in ascending order of degree.  The node
polynomial w(x) = prod(x - a_i) of rational nodes is put on integers by L,
the lcm of their denominators: with b_i = a_i*L,
W(z) = prod(z - b_i) = L^m w(z/L).  Its derivative and its values (Horner)
are then integer operations.  All functions are pure and return fresh
lists.
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
