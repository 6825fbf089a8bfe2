"""Partial fraction decomposition of x^n / prod(x - a_i) over distinct poles.

Residues come straight from the difference products; the polynomial part of
an improper fraction is built from the ladder of complete homogeneous
values rather than by long division, so its coefficients are
h_0 (leading) down to h_{n-m} (constant).  `decompositions` slices the
parts for every n up to nmax from one ladder.

`reconstruct` checks the identity coefficient by coefficient on integers
of its own, reading nothing the decomposition was built from: with L the
lcm of the pole denominators and b_i = a_i*L, it builds W(z) = prod(z - b_i)
and its cofactors W_i = W / (z - b_i) once per call (`exactpoly`),
substitutes x = z/L and clears each decomposition's denominators with one D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm, prod
from operator import add, mul

from .exactpoly import divide_linear, node_polynomial
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


def decompositions(poles: NodeSet, nmax: int) -> list[PartialFractionDecomposition]:
    """decompose(n, poles) for n = 0..nmax, from one h-ladder.

    residues[i] = a_i^n / prod_{j != i}(a_i - a_j), with 0**0 = 1, each
    multiplied by a_i from one n to the next.  The polynomial part is empty
    for n < m and is the reversed ladder slice h_0..h_{n-m} otherwise.
    """
    if nmax < 0:
        raise NegativeExponent(nmax)
    m = poles.m
    h = homogeneous_via_elementary(poles, nmax - m) if nmax >= m else []
    residues = [1 / A for A in poles.products]
    out = []
    for n in range(nmax + 1):
        # ascending: constant term h_{n-m}, leading h_0 = 1
        part = h[n - m::-1] if n >= m else []
        out.append(PartialFractionDecomposition(n, poles, part, residues))
        residues = list(map(mul, residues, poles.values))
    return out


def decompose(n: int, poles: NodeSet) -> PartialFractionDecomposition:
    """Split x^n / prod(x - a_i) into a polynomial part plus simple fractions.

    residues[i] = a_i^n / prod_{j != i}(a_i - a_j), with 0**0 = 1.  The
    polynomial part is empty for n < m and has degree n - m otherwise.
    """
    return decompositions(poles, n)[n]


def reconstruct(pfd: PartialFractionDecomposition, *more: PartialFractionDecomposition) -> bool:
    """Check x^n == part * prod(x - a_i) + sum residues[i] * prod_{j != i}(x - a_j)
    for each given decomposition; all must be over the same poles.

    With x = z/L and s the largest power of 1/L in the identity, it is
    multiplied by D L^s, D the lcm of the decomposition's denominators, and
    compared as integer polynomials in z:
        D L^(s-n) z^n == sum_k D c_k L^(s-m-k) z^k W(z) + sum_i D r_i L^(s-m+1) W_i(z).
    A False return means some decomposition is internally inconsistent, or
    that some pole does not divide the node polynomial exactly.
    """
    poles = pfd.poles
    if any(p.poles != poles for p in more):
        raise ValueError("decompositions over different poles")
    pfds = (pfd, *more)
    m = poles.m
    L, b, W = node_polynomial(poles.values)
    cofactors = []
    for bi in b:
        cofactor, rem = divide_linear(W, bi)
        if rem != 0:
            return False
        cofactors.append(cofactor)
    exponents = [max(p.power, len(p.polynomial_part) - 1 + m, m - 1) for p in pfds]
    Lpow = list(accumulate(repeat(L, max(exponents)), mul, initial=1))
    for p, s in zip(pfds, exponents):
        D = lcm(*(c.denominator for c in p.polynomial_part),
                *(r.denominator for r in p.residues))
        rhs = [0] * (s + 1)
        part = [c.numerator * (D // c.denominator) * Lpow[s - m - k]
                for k, c in enumerate(p.polynomial_part)]
        for j, wj in enumerate(W):
            rhs[j:j + len(part)] = map(add, rhs[j:j + len(part)], map(wj.__mul__, part))
        for r, cofactor in zip(p.residues, cofactors):
            ri = r.numerator * (D // r.denominator) * Lpow[s - m + 1]
            rhs[:m] = map(add, rhs[:m], map(ri.__mul__, cofactor))
        lhs = [0] * (s + 1)
        lhs[p.power] = D * Lpow[s - p.power]
        if rhs != lhs:
            return False
    return True


def euler_sums_via_decomposition(ns: NodeSet, nmax: int) -> list[Fraction]:
    """Re-derive [S_0, ..., S_nmax], S_n = sum a_i^n / A_i, the way the
    partial-fraction argument does.

    Decompose x^n over the first m-1 poles, then evaluate at x = the
    largest node: each residue over (a_i - x) is exactly a_i^n / A_i for
    the full set, and the remaining term is the last node's own fraction.
    The (m-1)-node set and its decompositions are built once for all n.
    """
    if nmax < 0:
        raise NegativeExponent(nmax)
    if ns.m < 2:
        raise NodeSetTooSmall("need at least two nodes")
    x = ns.values[-1]
    rest = nodeset_new(ns.values[:-1])
    last = 1 / prod((x - a for a in rest.values), start=Fraction(1))
    inverse = [1 / (a - x) for a in rest.values]
    sums = []
    for pfd in decompositions(rest, nmax):
        sums.append(sum(map(mul, pfd.residues, inverse), last))
        last *= x
    return sums

