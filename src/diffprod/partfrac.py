"""Partial fraction decomposition of x^n / prod(x - a_i) over distinct poles.

Residues come straight from the difference products; the polynomial part
of an improper fraction is built from the complete homogeneous values of
the brute-force oracle rather than by long division, so its coefficients
are h_0 (leading) down to h_{n-m} (constant).  Both come for every n up to
nmax from one h list.  `decompositions` and `decompose` step each residue
from 1/A_i by a_i^gap as a Fraction product, so each reducing gcd is taken
against a power of a_i's own numerator or denominator.
`_scaled_decompositions` steps the same residues as unreduced integer
pairs, for the CLI and `verify`, which only compare them.

`reconstruct` proves the identity by interpolation on integers, reading
nothing the decomposition was built from: with b_i = a_i*L, L the lcm of
the pole denominators, it reads W(z) = prod(z - b_i) off
`NodeSet.polynomial` and W'(b_i) once per call (`nodes._slopes`).  The
part of the largest power N must be the quotient of z^N by the monic W,
which is the e-recurrence of `symmetric`, and every other part must be
its tail.  Each residue r_j / q_j at a_j = t_j/u_j must satisfy
r_j u_j^n W'(b_j) = q_j t_j^n L^(m-1).  That is cross-multiplied at the
first power only; at a later power a pair that is the previous power's
proved pair times (t_j^gap, u_j^gap) is proved by induction, in linear
time, and any other pair is cross-multiplied.  t_j and u_j come from the
poles, never from the decomposition's `_powers`.  `verify` and the CLI's
`decompose` hand the integers of `_scaled_decompositions` to the same
checks (`_reconstructs`), so they build no Fraction for them; `verify`
also hands in the W'(b_i) of its w' route and the e-recurrence of its h
checks, so each is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import attrgetter, mul

from .exactpoly import evaluate
from .nodes import NegativeExponent, NodeSet, _product_pairs, _slopes, _weighted_power_sums
from .symmetric import _equal, _h_brute_force, _h_elementary, _head, _unscale


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

    residues[i] = a_i^n / prod_{j != i}(a_i - a_j), with 0**0 = 1, each
    multiplied by a_i from one n to the next.  The polynomial part is empty
    for n < m and is the reversed slice h_0..h_{n-m} otherwise.
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
    """The decompositions of x^n for n in `powers` (ascending): the parts
    sliced from one h list of the brute-force oracle, and each residue
    stepped from 1/A_i by a_i^gap as a Fraction product, so that every gcd
    is taken against a_i's own numerator and denominator."""
    m, N = poles.m, powers[-1]
    h = _unscale(*_h_brute_force(poles, N - m)) if N >= m else []
    residues, last, out = [1 / A for A in poles.products], 0, []
    for n in powers:
        gap, last = n - last, n
        if gap:
            residues = list(map(mul, residues, _powers(poles.values, gap)))
        # ascending: constant term h_{n-m}, leading h_0 = 1
        out.append(PartialFractionDecomposition(n, poles, h[n - m::-1] if n >= m else [],
                                                residues))
    return out


def _scaled_decompositions(poles: NodeSet, powers, h: tuple) -> tuple:
    """(part, residues) for x^n, n in `powers` (ascending).

    h is the brute-force oracle's scaled list (L, [H_0, ...], 1) to at
    least N - m for the largest power N; part is its first N - m + 1
    entries, the part of x^N leading coefficient first, and the part of
    each n is the first n - m + 1 of those.  residues holds (n, numerators,
    denominators) for each n: the residue a_i^n / A_i as the numerator and
    denominator of 1/A_i times those of a_i^n, stepped by a_i^gap from one
    power to the next, never reduced."""
    tops = [a.numerator for a in poles.values]
    bottoms = [a.denominator for a in poles.values]
    nums = [A.denominator for A in poles.products]
    dens = [A.numerator for A in poles.products]
    residues, last = [], 0
    for n in powers:
        gap, last = n - last, n
        if gap:
            nums = list(map(mul, nums, _powers(tops, gap)))
            dens = list(map(mul, dens, _powers(bottoms, gap)))
        residues.append((n, nums, dens))
    return _head(h, powers[-1] - poles.m + 1), residues


def _powers(xs, k: int):
    """The k-th powers of the integers xs; xs itself for k = 1, the step
    between consecutive powers."""
    return xs if k == 1 else map(pow, xs, repeat(k))


def reconstruct(pfd: PartialFractionDecomposition, *more: PartialFractionDecomposition) -> bool:
    """Check x^n == part * prod(x - a_i) + sum residues[i] * prod_{j != i}(x - a_j)
    for each given decomposition; all must be over the same poles.

    The difference of the two sides is zero exactly when (i) it vanishes at
    every pole, r_j w'(a_j) = a_j^n, and (ii) it has degree < m, that is,
    the part is the quotient of x^n by w: a polynomial of degree < m with m
    roots is zero.  The quotient of x^n is [h_{n-m}, ..., h_0] ascending,
    the tail of the quotient for any larger N (division by reversal).  So
    (ii) is checked once, by dividing x^N by w for a largest power N, and
    every part must equal that quotient's tail (zero for n < m); (i) is
    checked for each n, on the poles' own numerators and denominators,
    cross-multiplied at the first power and by induction after it where a
    residue is the previous one stepped.  Both run on integers
    (`_reconstructs`).  A False return means some decomposition
    is inconsistent or lacks a residue, or that W is not the monic
    degree-m polynomial vanishing at every b_j.
    """
    poles = pfd.poles
    if any(p.poles != poles for p in more):
        raise ValueError("decompositions over different poles")
    pfds = sorted((pfd, *more), key=attrgetter("power"))
    top = pfds[-1]
    N = top.power
    quotient = top.polynomial_part[:max(N - poles.m + 1, 0)]  # the rest is zero
    for p in pfds:
        tail, part = quotient[N - p.power:], p.polynomial_part
        if part[:len(tail)] != tail or any(part[len(tail):]):
            return False
    residues = [(p.power, [r.numerator for r in p.residues],
                 [r.denominator for r in p.residues]) for p in pfds]
    return _reconstructs(poles, (1, quotient[::-1], 1), residues, _slopes(poles),
                         _h_elementary(poles, max(N - poles.m, 0)))


def _reconstructs(poles: NodeSet, part: tuple, residues, slopes, quotient: tuple) -> bool:
    """Checks (i) and (ii) of `reconstruct` on integers.

    `part` is the scaled list (Q, X, f) of the largest power's part,
    leading coefficient first: X[k] / (f Q^k) is the coefficient of
    x^(len(X)-1-k).  `residues` holds (n, numerators, denominators) for
    each power n, ascending, the largest being N.  Both checks run on the
    integers of the poles' (L, b, W) = poles.polynomial, with
    W(z) = L^m w(z/L), once W is the monic degree-m polynomial vanishing
    at every b_j:
    - (ii) the quotient of z^N by W is sum_k H_k z^(N-m-k), H the
      e-recurrence `_h_elementary` to N - m, so the quotient of x^N by w
      is its scaled list (L, [H_0, ..., H_(N-m)], 1), compared with `part`.
      `quotient` is that e-recurrence's scaled list to at least N - m;
    - (i) is r_j u_j^n W'(b_j) == q_j t_j^n L^(m-1) for the residue
      r_j / q_j at a_j = t_j / u_j, with `slopes` the W'(b_j) =
      L^(m-1) w'(a_j) of `nodes._slopes`.  It is cross-multiplied at the
      first power.  At each later power a pair with r_j = r'_j t_j^gap and
      q_j = q'_j u_j^gap, (r'_j, q'_j) the pair proved at the previous
      power, is proved by that: r_j / q_j = (r'_j / q'_j) a_j^gap, as
      q'_j != 0 and u_j != 0.  Any other pair is cross-multiplied.  t_j and
      u_j come from the poles, never from the decomposition's `_powers`.
      A q_j of 0 fails it: the pair (0, 0) would make both sides 0.
    """
    m = poles.m
    L, b, W = poles.polynomial
    if len(W) != m + 1 or W[m] != 1 or any(evaluate(W, bj) for bj in b):
        return False
    N = residues[-1][0]
    if not _equal(part, _head(quotient, N - m + 1)):
        return False
    # (i) at every pole, for each n
    scale = L ** (m - 1)
    ts = [a.numerator for a in poles.values]
    us = [a.denominator for a in poles.values]
    proved, last = None, 0  # the pairs proved at the power `last`
    for n, nums, dens in residues:
        if len(nums) != m:
            return False
        gap, last = n - last, n
        for j, (r, q, t, u) in enumerate(zip(nums, dens, ts, us)):
            if proved and r == proved[0][j] * t**gap and q == proved[1][j] * u**gap:
                continue
            if not q or r * u**n * slopes[j] != q * t**n * scale:
                return False
        proved = nums, dens
    return True


def euler_sums_via_decomposition(ns: NodeSet, nmax: int) -> list[Fraction]:
    """Re-derive [S_0, ..., S_nmax], S_n = sum a_i^n / A_i, the way the
    partial-fraction argument does.

    Decompose x^n over the first m-1 poles, then evaluate at x = the
    largest node: each residue a_i^n / A'_i over (a_i - x) is exactly
    a_i^n / A_i for the full set, and the remaining term is the last
    node's own fraction x^n / prod(x - a_i).  So S_n is the power sum of
    the nodes weighted by the reciprocals of the route's products
    (`_route_products`), stepped by the same integer kernel as `euler_sums`.
    """
    if nmax < 0:
        raise NegativeExponent(nmax)
    if ns.m < 2:
        raise NodeSetTooSmall("need at least two nodes")
    weights = [(V, U) for U, V in _route_products(ns)]
    return _unscale(*_weighted_power_sums(weights, ns.values, nmax))


def _route_products(ns: NodeSet) -> list[tuple[int, int]]:
    """The route's m products as integer pairs (U_i, V_i), m >= 2:
    A'_i (a_i - x) for the first m-1 nodes, A'_i their products taken once
    as the pairs of `nodes._product_pairs`, and prod(x - a_i) for the
    largest node x.  Each U_i / V_i is A_i, formed from the integers of
    A'_i, a_i and x alone, so `verify` compares the pairs with ns.products:
    equal products give equal sums at every n."""
    *rest, x = ns.values  # rest still ascending and distinct
    # With x = s/t and a_i = s_i/t_i, a_i - x = d_i / (t_i t), d_i = s_i t - s t_i;
    # A'_i = U_i / V_i is reduced first, which keeps the weights' lcm small.
    s, t = x.numerator, x.denominator
    pairs, top, bottom = [], 1, 1
    for (U, V), a in zip(_product_pairs(rest), rest):
        g = gcd(U, V)
        d = a.numerator * t - s * a.denominator
        pairs.append((U // g * d, V // g * a.denominator * t))
        top *= -d
        bottom *= a.denominator * t
    return [*pairs, (top, bottom)]
