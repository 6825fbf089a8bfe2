"""Partial fraction decomposition of x^n / prod(x - a_i) over distinct poles.

Residues come straight from the difference products; the polynomial part of
an improper fraction is built from the ladder of complete homogeneous
values rather than by long division, so its coefficients are
h_0 (leading) down to h_{n-m} (constant).  `reconstruct` clears
denominators and checks the identity coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .exactpoly import (
    poly_add,
    poly_divide_linear,
    poly_from_roots,
    poly_mul,
)
from .nodes import NegativeExponent, NodeSet, nodeset_new
from .symmetric import homogeneous_via_elementary


class NodeSetTooSmall(ValueError):
    """Raised when an operation needs at least two nodes."""


@dataclass(frozen=True)
class PartialFractionDecomposition:
    power: int
    poles: NodeSet
    polynomial_part: list
    residues: list


def decompose(n: int, poles: NodeSet) -> PartialFractionDecomposition:
    """Split x^n / prod(x - a_i) into a polynomial part plus simple fractions.

    residues[i] = a_i^n / prod_{j != i}(a_i - a_j), with 0**0 = 1.  The
    polynomial part is empty for n < m and has degree n - m otherwise.
    """
    if n < 0:
        raise NegativeExponent(n)
    m = poles.m
    residues = [a**n / A for a, A in zip(poles.values, poles.products)]
    if n < m:
        part = []
    else:
        h = homogeneous_via_elementary(poles.elementary, n - m)
        part = h[::-1]  # ascending: constant term h_{n-m}, leading h_0 = 1
    return PartialFractionDecomposition(n, poles, part, residues)


def reconstruct(pfd: PartialFractionDecomposition) -> bool:
    """Check x^n == part * prod(x - a_i) + sum residues[i] * prod_{j != i}(x - a_j).

    Pure polynomial arithmetic; a False return means the decomposition is
    internally inconsistent, or that some pole does not divide the node
    polynomial exactly.
    """
    w = poly_from_roots(pfd.poles.values)
    rhs = poly_mul(pfd.polynomial_part, w)
    for a, r in zip(pfd.poles.values, pfd.residues):
        cofactor, rem = poly_divide_linear(w, a)
        if rem != 0:
            return False
        rhs = poly_add(rhs, poly_mul([r], cofactor))
    lhs = [Fraction(0)] * pfd.power + [Fraction(1)]
    return rhs == lhs


def euler_sum_via_decomposition(ns: NodeSet, n: int) -> Fraction:
    """Re-derive sum a_i^n / A_i the way the partial-fraction argument does.

    Decompose x^n over the first m-1 poles, then evaluate at x = the
    largest node: each residue over (a_i - x) is exactly a_i^n / A_i for
    the full set, and the remaining term is the last node's own fraction.
    """
    if n < 0:
        raise NegativeExponent(n)
    if ns.m < 2:
        raise NodeSetTooSmall("need at least two nodes")
    x = ns.values[-1]
    rest = nodeset_new(ns.values[:-1])
    pfd = decompose(n, rest)
    total = x**n / prod((x - a for a in rest.values), start=Fraction(1))
    for a, r in zip(rest.values, pfd.residues):
        total += r / (a - x)
    return total
