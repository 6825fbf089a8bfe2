"""Elementary symmetric values, power sums, and complete homogeneous values.

Conventions: e-lists and h-lists are 0-indexed with e[0] = h[0] = 1, so
e[k] is the sum of all k-fold products of distinct nodes and h[k] the sum
of all degree-k monomials with repetition.  Power-sum lists hold
[p_1, ..., p_kmax] (there is no useful p_0 here).

The e-list is read off the integer form ns.scaled of the node set.  Two
independent recurrences compute h, and a direct multiset enumeration
serves as an oracle against both.  The oracle enumerates on integers too,
but scales the nodes itself: with L the lcm of their denominators, it sums
the products of the integers a_i*L over every multiset, split into a low
and a high half of the nodes, and divides by L^k once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm, prod
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .nodes import NodeSet


def elementary_all(ns: "NodeSet", kmax: int) -> list[Fraction]:
    """e[0..kmax] read off the integer coefficients of prod(z + b_i).

    With (L, b) = ns.scaled, E[k] = e_k(b) = L^k e_k, built one root at a
    time as E[k] += b_i E[k-1]; e_k = 0 for k > m.
    """
    L, b = ns.scaled
    E = [1] + [0] * len(b)
    for i, bi in enumerate(b, start=1):
        for k in range(i, 0, -1):
            E[k] += bi * E[k - 1]
    return [Fraction(E[k], L**k) if k < len(E) else Fraction(0)
            for k in range(kmax + 1)]


def power_sums(ns: "NodeSet", kmax: int) -> list[Fraction]:
    """[p_1, ..., p_kmax] with p_k the sum of k-th powers of the nodes."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return [sum((a**k for a in ns.values), Fraction(0)) for k in range(1, kmax + 1)]


def homogeneous_via_elementary(e: Sequence, kmax: int) -> list[Fraction]:
    """h[0..kmax] from the alternating recurrence on elementary values.

    h_k = e_1 h_{k-1} - e_2 h_{k-2} + e_3 h_{k-3} - ...
    Entries of e beyond the end of the list are treated as zero.
    """
    h = [Fraction(1)]
    for k in range(1, kmax + 1):
        acc = Fraction(0)
        for j in range(1, min(k, len(e) - 1) + 1):
            acc += (-1) ** (j - 1) * e[j] * h[k - j]
        h.append(acc)
    return h


def homogeneous_via_power_sums(p: Sequence, kmax: int) -> list[Fraction]:
    """h[0..kmax] from power sums: h_k = (1/k) * sum_j p_j h_{k-j}.

    `p` holds [p_1, ..., p_kmax] as produced by power_sums.
    """
    h = [Fraction(1)]
    for k in range(1, kmax + 1):
        acc = sum((p[j - 1] * h[k - j] for j in range(1, k + 1)), Fraction(0))
        h.append(acc / k)
    return h


def homogeneous_brute_force(ns: "NodeSet", k: int) -> Fraction:
    """Sum of all degree-k monomials, enumerated multiset by multiset.

    Each node a_i becomes the integer b_i = a_i*L, L the lcm of the node
    denominators; the sum of the C(m+k-1, k) integer products over all
    multisets of the b_i is divided by L^k once, so the result is the same
    value with one normalisation.  The scaled nodes are split into two
    halves: a multiset of size k is one of size s from the low half and one
    of size k-s from the high half, and its product is the product of
    theirs.  So for each s the high-half products are listed once and every
    low-half product is multiplied by each of them: every monomial is still
    formed and summed on its own, while only one level of one half is held
    in memory.  Intended as an oracle for small m and k, and kept
    deliberately independent of both recurrences.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    scale = lcm(*(a.denominator for a in ns.values))
    scaled = [a.numerator * (scale // a.denominator) for a in ns.values]
    lo, hi = scaled[: len(scaled) // 2], scaled[len(scaled) // 2 :]
    total = 0
    for s in range(k + 1):
        right = list(map(prod, combinations_with_replacement(hi, k - s)))
        for p in map(prod, combinations_with_replacement(lo, s)):
            total += sum(map(p.__mul__, right))
    return Fraction(total, scale**k)


def newton_power_from_elementary(e: Sequence, kmax: int) -> list[Fraction]:
    """[p_1, ..., p_kmax] recovered from elementary values by Newton's identities."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    p: list[Fraction] = []
    for k in range(1, kmax + 1):
        acc = Fraction(0)
        for j in range(1, min(k - 1, len(e) - 1) + 1):
            acc += (-1) ** (j - 1) * e[j] * p[k - j - 1]
        ek = e[k] if k < len(e) else Fraction(0)
        acc += (-1) ** (k - 1) * k * ek
        p.append(acc)
    return p
