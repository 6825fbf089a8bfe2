"""Partial fraction decomposition of x^n / prod(x - a_i) over distinct poles.

Residues come straight from the difference products, stepped as integer
numerators and denominators with one Fraction per residue; the polynomial
part of an improper fraction is built from the complete homogeneous values
of `homogeneous_brute_force` rather than by long division, so its
coefficients are h_0 (leading) down to h_{n-m} (constant).
`decompositions` slices the parts for every n up to nmax from one h list,
and `decompose` builds the one list it returns through the same helper.

`reconstruct` proves the identity by interpolation on integers of its own,
reading nothing the decomposition was built from: with L the lcm of the
pole denominators and b_i = a_i*L, it builds W(z) = prod(z - b_i) and
W'(b_i) once per call (`exactpoly`).  Each decomposition must then give
a_j^n at every pole, and its part must be the quotient of x^n by w: that
is proved once, for the largest n, and every other part is its tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import add, attrgetter, mul

from .exactpoly import derivative, evaluate, node_polynomial
from .nodes import NegativeExponent, NodeSet, _weighted_power_sums
from .symmetric import homogeneous_brute_force


class NodeSetTooSmall(ValueError):
    """Raised when an operation needs at least two nodes."""


@dataclass(frozen=True)
class PartialFractionDecomposition:
    power: int
    poles: NodeSet
    polynomial_part: list
    residues: list


def decompositions(poles: NodeSet, nmax: int) -> list[PartialFractionDecomposition]:
    """decompose(n, poles) for n = 0..nmax, from one h list.

    residues[i] = a_i^n / prod_{j != i}(a_i - a_j), with 0**0 = 1, their
    integer numerators and denominators multiplied by those of a_i from
    one n to the next.  The polynomial part is empty for n < m and is the
    reversed slice h_0..h_{n-m} otherwise.
    """
    if nmax < 0:
        raise NegativeExponent(nmax)
    return _decompositions(poles, range(nmax + 1))


def decompose(n: int, poles: NodeSet) -> PartialFractionDecomposition:
    """Split x^n / prod(x - a_i) into a polynomial part plus simple fractions.

    residues[i] = a_i^n / prod_{j != i}(a_i - a_j), with 0**0 = 1.  The
    polynomial part is empty for n < m and has degree n - m otherwise.
    """
    if n < 0:
        raise NegativeExponent(n)
    return _decompositions(poles, [n])[0]


def _decompositions(poles: NodeSet, powers) -> list[PartialFractionDecomposition]:
    """The decompositions of x^n for n in `powers` (ascending), from one
    h list.  Each residue a_i^n / A_i is kept as an integer pair, the
    numerator and denominator of 1/A_i times those of a_i^n, stepped by
    a_i^gap from one power to the next, and becomes one Fraction per n."""
    m = poles.m
    h = homogeneous_brute_force(poles, powers[-1] - m) if powers[-1] >= m else []
    tops = [a.numerator for a in poles.values]
    bottoms = [a.denominator for a in poles.values]
    nums = [A.denominator for A in poles.products]
    dens = [A.numerator for A in poles.products]
    out, last = [], 0
    for n in powers:
        gap, last = n - last, n
        if gap:
            nums = list(map(mul, nums, map(pow, tops, repeat(gap))))
            dens = list(map(mul, dens, map(pow, bottoms, repeat(gap))))
        # ascending: constant term h_{n-m}, leading h_0 = 1
        part = h[n - m::-1] if n >= m else []
        residues = list(map(Fraction, nums, dens))
        out.append(PartialFractionDecomposition(n, poles, part, residues))
    return out


def reconstruct(pfd: PartialFractionDecomposition, *more: PartialFractionDecomposition) -> bool:
    """Check x^n == part * prod(x - a_i) + sum residues[i] * prod_{j != i}(x - a_j)
    for each given decomposition; all must be over the same poles.

    The difference of the two sides is zero exactly when (i) it vanishes at
    every pole, r_j w'(a_j) = a_j^n, and (ii) it has degree < m, so that
    part * w agrees with x^n in every coefficient of degree >= m: a
    polynomial of degree < m with m roots is zero.  (ii) makes the part the
    quotient of x^n by w, [h_{n-m}, ..., h_0] ascending, which is the tail
    of the quotient for any larger N (division by reversal).  So (ii) is
    checked once, for a largest power N, and every part must equal that
    part's tail (zero for n < m); (i) is checked for each n.  With x = z/L,
    both run on integers of the call's own (L, b, W), and W'(b_j) =
    L^(m-1) w'(a_j) is computed once per call.  A False return means some
    decomposition is inconsistent or lacks a residue, or that W is not the
    monic degree-m polynomial vanishing at every b_j.
    """
    poles = pfd.poles
    if any(p.poles != poles for p in more):
        raise ValueError("decompositions over different poles")
    pfds = sorted((pfd, *more), key=attrgetter("power"))
    m = poles.m
    L, b, W = node_polynomial(poles.values)
    if len(W) != m + 1 or W[m] != 1 or any(evaluate(W, bj) for bj in b):
        return False
    top = pfds[-1]
    N = top.power
    Lpow = list(accumulate(repeat(L, max(N, m)), mul, initial=1))
    # (ii) D L^m [x^d](part * w) == D L^m [x^d] x^N for every d >= m, D the
    # lcm of the part's denominators and L^m w(x) = sum_l W_l L^l x^l;
    # high[t] is degree m + t
    part = [c.as_integer_ratio() for c in top.polynomial_part]
    D = lcm(*[q for _, q in part])
    C = [c * (D // q) for c, q in part]
    high = [0] * (max(N, len(C) - 1 + m) - m + 1)
    for l in range(max(0, m - len(C) + 1), m + 1):
        terms = C[m - l:]
        high[:len(terms)] = map(add, high[:len(terms)], map((W[l] * Lpow[l]).__mul__, terms))
    want = [0] * len(high)
    if N >= m:
        want[N - m] = D * Lpow[m]
    if high != want:
        return False
    quotient = top.polynomial_part[:max(N - m + 1, 0)]  # the rest is zero
    dW = derivative(W)
    slopes = [evaluate(dW, bj) for bj in b]
    bn, last = [1] * m, 0  # b_j^last, stepped across the ascending powers
    for p in pfds:
        n = p.power
        tail, part = quotient[N - n:], p.polynomial_part
        if len(p.residues) != m or part[:len(tail)] != tail or any(part[len(tail):]):
            return False
        if n > last:
            bn = list(map(mul, bn, map(pow, b, repeat(n - last))))
            last = n
        # (i) r_j W'(b_j) / L^(m-1) == b_j^n / L^n, cross-multiplied
        s = min(n, m - 1)
        left, right = Lpow[n - s], Lpow[m - 1 - s]
        for r, bjn, slope in zip(p.residues, bn, slopes):
            if r.numerator * slope * left != bjn * r.denominator * right:
                return False
    return True


def euler_sums_via_decomposition(ns: NodeSet, nmax: int) -> list[Fraction]:
    """Re-derive [S_0, ..., S_nmax], S_n = sum a_i^n / A_i, the way the
    partial-fraction argument does.

    Decompose x^n over the first m-1 poles, then evaluate at x = the
    largest node: each residue a_i^n / A'_i over (a_i - x) is exactly
    a_i^n / A_i for the full set, and the remaining term is the last
    node's own fraction x^n / prod(x - a_i).  So S_n is a power sum of the
    nodes with weights 1/(A'_i (a_i - x)) and 1/prod(x - a_i), A'_i the
    products of the (m-1)-node set, which is built once for all n.  Each
    weight is formed as an integer numerator and denominator from those of
    A'_i, a_i and x.  The powers are stepped by the same integer kernel as
    `euler_sums`, whose closed-form check fails if that kernel is wrong.
    """
    if nmax < 0:
        raise NegativeExponent(nmax)
    if ns.m < 2:
        raise NodeSetTooSmall("need at least two nodes")
    x = ns.values[-1]
    rest = NodeSet(ns.values[:-1])  # still ascending and distinct
    # With x = s/t and a_i = s_i/t_i, a_i - x = d_i / (t_i t) for the
    # integer d_i = s_i t - s t_i.
    s, t = x.numerator, x.denominator
    weights, top, bottom = [], 1, 1
    for A, a in zip(rest.products, rest.values):
        d = a.numerator * t - s * a.denominator
        weights.append((A.denominator * a.denominator * t, A.numerator * d))
        top *= a.denominator * t
        bottom *= -d
    return _weighted_power_sums([*weights, (top, bottom)], ns.values, nmax)
