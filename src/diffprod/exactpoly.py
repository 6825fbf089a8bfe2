"""Dense univariate polynomial arithmetic over exact rationals.

A polynomial is a list of `fractions.Fraction` coefficients in ascending
order of degree with no trailing zeros; the zero polynomial is the empty
list.  All operations are pure and return fresh lists, so values can be
shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Polynomial = list  # list[Fraction], ascending degree, normalized


def normalize(coeffs: Iterable) -> Polynomial:
    """Coerce coefficients to Fraction and strip trailing zeros."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(p: Polynomial, q: Polynomial) -> Polynomial:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return normalize(out)


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def poly_from_roots(roots: Sequence) -> Polynomial:
    """Monic polynomial with the given roots; empty input gives 1."""
    p = [Fraction(1)]
    for r in roots:
        p = poly_mul(p, [-Fraction(r), Fraction(1)])
    return p


def poly_derivative(p: Polynomial) -> Polynomial:
    return normalize(k * c for k, c in enumerate(p) if k > 0)


def poly_eval(p: Polynomial, x) -> Fraction:
    """Evaluate p at x by Horner's scheme."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_divide_linear(p: Polynomial, a) -> tuple[Polynomial, Fraction]:
    """Synthetic division of p by (z - a); returns (quotient, remainder).

    The remainder equals p(a), so p == (z - a) * quotient + remainder.
    """
    a = Fraction(a)
    quot = []
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * a + c
        quot.append(acc)
    if quot:
        rem = quot.pop()
    else:
        rem = Fraction(0)
    quot.reverse()
    return normalize(quot), rem
