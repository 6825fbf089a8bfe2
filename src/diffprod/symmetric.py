"""Elementary symmetric values, power sums, and complete homogeneous values.

Conventions: e-lists and h-lists are 0-indexed with e[0] = h[0] = 1, so
e[k] is the sum of all k-fold products of distinct nodes and h[k] the sum
of all degree-k monomials with repetition.  Power-sum lists hold
[p_1, ..., p_kmax] (there is no useful p_0 here).

Every function takes the node set and runs on integers.  Each route is an
integer kernel that returns a scaled list (L, X, first), the values
X[k] / (first * L^k), and the public function is that kernel plus
`_unscale`, one Fraction per returned value; `_equal` compares two scaled
lists exactly without building any, and `_matches` entry by entry.  Each
route reads its own scale:
- the e-list, the e-recurrence for h and Newton's identities read the
  node polynomial cached as ns.polynomial = (L, b, W): its coefficients
  are the integers E_j = L^j e_j = (-1)^j W_(m-j), and the recurrences
  give H_k = L^k h_k and P_k = L^k p_k;
- power_sums and the power-sum recurrence read only ns.values: the one
  power kernel, `_power_ladder` (also behind nodes.euler_sums), scales them
  by their own lcm, never reading ns.polynomial;
- the brute-force oracle scales the nodes itself as well: with L the lcm
  of their denominators, it takes the integers a_i*L one at a time.  Every
  multiset of X + {x} splits by how many times it takes x, so
  h_k(X + {x}) = sum_j x^j h_(k-j)(X), which by Horner's rule in x is
  H_k += x H_(k-1) for k ascending; one call gives H_0..H_kmax in m*kmax
  products.  The closed forms and the partial fractions' parts take h from
  it; the e-recurrence only checks it, here and in `partfrac.reconstruct`.
The power kernel and the oracle put the nodes over their lcm by
`exactpoly._over_lcm`, the makers' one lcm-and-rescale kernel, while
ns.polynomial scales the nodes itself: a wrong kernel makes the makers
disagree with the e side.
So a wrong ns.polynomial makes the two h recurrences disagree, and Newton's
power sums disagree with the direct ones.  That needs the comparison to
read each list's scale: under a wrong L the e-route's integers are still
the true ones, only their scale is wrong.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .exactpoly import _over_lcm

if TYPE_CHECKING:
    from .nodes import NodeSet


def _check_depth(kmax: int) -> None:
    if kmax < 0:
        raise ValueError("kmax must be >= 0")


def elementary_all(ns: "NodeSet", kmax: int) -> list[Fraction]:
    """e[0..kmax]: e_k = E_k / L^k off ns.polynomial, and e_k = 0 for k > m."""
    _check_depth(kmax)
    return _unscale(*_elementary(ns, kmax))


def _elementary(ns: "NodeSet", kmax: int) -> tuple:
    """The scaled list (L, [E_0, ..., E_kmax], 1) of e[0..kmax]: with
    (L, b, W) = ns.polynomial, E_k = (-1)^k W_(m-k) for k <= m, else 0."""
    L, _, W = ns.polynomial
    E = [-c if k % 2 else c for k, c in enumerate(W[::-1][: kmax + 1])]
    return L, E + [0] * (kmax + 1 - len(E)), 1


def _scaled_elementary(ns: "NodeSet", kmax: int) -> tuple:
    """(L, [E_1, -E_2, E_3, ...]) for j up to min(kmax, m): the signs both
    recurrences on e apply, (-1)^(j-1) E_j = -W_(m-j) off ns.polynomial."""
    L, _, W = ns.polynomial
    return L, [-c for c in W[-2::-1][:kmax]]


def _power_ladder(terms: Sequence[int], values: Sequence, kmax: int) -> tuple:
    """(L, [sum t_i c_i^k for k = 0..kmax]): L the lcm of the denominators
    of `values` and c_i = a_i*L, each integer term multiplied by c_i from
    one power to the next.  Entry k over L^k is sum t_i a_i^k."""
    L, c = _over_lcm([(a.numerator, a.denominator) for a in values])
    sums = [sum(terms)]
    for _ in range(kmax):
        terms = list(map(mul, terms, c))
        sums.append(sum(terms))
    return L, sums


def _unscale(L: int, scaled: Sequence, first: int) -> list[Fraction]:
    """[scaled[i] / (first * L^i)], one Fraction per value."""
    Lpow = accumulate(repeat(L, len(scaled)), mul, initial=first)
    return list(map(Fraction, scaled, Lpow))


def _head(scaled: tuple, count: int) -> tuple:
    """The scaled list (L, X, first) cut to its first `count` values, none
    for count <= 0: a shorter ladder's list read off a deeper one."""
    L, X, first = scaled
    return L, X[:max(count, 0)], first


def _equal(a: tuple, b: tuple) -> bool:
    """Whether two scaled lists (L, X, first) hold the same values, each
    X[k] / (first * L^k), without building a Fraction.

    On one scale the entries are compared as they are, otherwise entry by
    entry (`_matches`).  Entries may be Fractions.
    """
    (L1, X1, f1), (L2, X2, f2) = a, b
    if len(X1) != len(X2):
        return False
    if L1 == L2 and f1 == f2:
        return X1 == X2
    return all(_matches(a, b))


def _matches(a: tuple, b: tuple):
    """Per entry of two scaled lists (L, X, first), over the shorter one,
    whether they hold the same value: X1[k] f2 L2^k == X2[k] f1 L1^k, with
    the common factors of the two firsts and of the two L taken out, so
    one product per side and no power of L per entry."""
    (L1, X1, f1), (L2, X2, f2) = a, b
    g, h = gcd(L1, L2), gcd(f1, f2)
    step1, step2 = L2 // g, L1 // g
    s1, s2 = f2 // h, f1 // h
    for x1, x2 in zip(X1, X2):
        yield x1 * s1 == x2 * s2
        s1 *= step1
        s2 *= step2


def _power_sums(ns: "NodeSet", kmax: int) -> tuple:
    """(L, [P_1, ..., P_kmax], L): the power sums off the power kernel."""
    L, (_, *P) = _power_ladder([1] * ns.m, ns.values, kmax)
    return L, P, L


def power_sums(ns: "NodeSet", kmax: int) -> list[Fraction]:
    """[p_1, ..., p_kmax] with p_k the sum of k-th powers of the nodes."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return _unscale(*_power_sums(ns, kmax))


def _h_elementary(ns: "NodeSet", kmax: int) -> tuple:
    """(L, [H_0, ..., H_kmax], 1) by the e-recurrence H_k =
    sum_j (-1)^(j-1) E_j H_{k-j} = -sum_j W_(m-j) H_(k-j), L and W from
    ns.polynomial: the quotient of z^(m+kmax) by W, leading term first."""
    L, signed = _scaled_elementary(ns, kmax)
    H = [1]
    for _ in range(kmax):
        H.append(sum(map(mul, signed, reversed(H))))
    return L, H, 1


def homogeneous_via_elementary(ns: "NodeSet", kmax: int) -> list[Fraction]:
    """h[0..kmax] from the alternating recurrence on elementary values.

    h_k = e_1 h_{k-1} - e_2 h_{k-2} + e_3 h_{k-3} - ..., with e_j = 0 for
    j > m, run on H_k = L^k h_k and E_j = L^j e_j:
    H_k = sum_j (-1)^(j-1) E_j H_{k-j}.
    """
    _check_depth(kmax)
    return _unscale(*_h_elementary(ns, kmax))


def homogeneous_via_power_sums(ns: "NodeSet", kmax: int) -> list[Fraction]:
    """h[0..kmax] from power sums: h_k = (1/k) * sum_j p_j h_{k-j}.

    Run on H_k = L^k h_k and P_j = L^j p_j, L the power sums' own lcm:
    k H_k = sum_j P_j H_{k-j}.  For true power sums k divides the sum; a
    sum that k does not divide is kept as a Fraction, so wrong power sums
    give a wrong h, never a rounded one.
    """
    _check_depth(kmax)
    return _unscale(*_power_routes(ns, kmax)[1])


def _power_routes(ns: "NodeSet", kmax: int) -> tuple:
    """The scaled lists of [p_1, ..., p_max(kmax,1)] and of h[0..kmax] by
    the power-sum recurrence, both off one power ladder."""
    p = L, P, _ = _power_sums(ns, max(kmax, 1))
    H = [1]
    for k in range(1, kmax + 1):
        total = sum(map(mul, P, reversed(H)))
        q, r = divmod(total, k)
        H.append(q if r == 0 else Fraction(total, k))
    return p, (L, H, 1)


def _complete_sums(xs: Sequence[int], kmax: int) -> list[int]:
    """[h_k(xs), k = 0..kmax] for integers xs: the sum of the products of the
    size-k multisets, the nodes added one at a time.

    A multiset of X + {x} is one of X with x taken j times, so
    h_k(X + {x}) = sum_j x^j h_(k-j)(X) = h_k(X) + x h_(k-1)(X + {x}):
    updating k ascending in place, H_(k-1) already counts x.
    """
    H = [1] + [0] * kmax
    for x in xs:
        for k in range(1, kmax + 1):
            H[k] += x * H[k - 1]
    return H


def _h_brute_force(ns: "NodeSet", kmax: int) -> tuple:
    """(L, [H_0, ..., H_kmax], 1), L the lcm of the node denominators and
    H_k the sum of the size-k multiset products of the a_i*L."""
    L, scaled = _over_lcm([(a.numerator, a.denominator) for a in ns.values])
    return L, _complete_sums(scaled, kmax), 1


def homogeneous_brute_force(ns: "NodeSet", kmax: int) -> list[Fraction]:
    """h[0..kmax], each the sum of all degree-k monomials in the nodes,
    summed node by node from the definition.

    Each node a_i becomes the integer b_i = a_i*L, L the lcm of the node
    denominators.  The sum over the multisets of the b_i is grouped by how
    often each node appears: it is the coefficient of z^k in
    prod 1/(1 - b_i z), multiplied out one node at a time
    (`_complete_sums`), m*kmax products in all.  Each sum is divided by L^k
    once, so each result is the same value with one normalisation.
    It is both the oracle of the recurrences and the source of the closed
    forms (`nodes.expected_euler_sums`) and of the decompositions'
    polynomial parts.  That stays independent because it reads only the
    node values, never ns.polynomial, the e-list or the power kernel: the
    closed forms are checked against sums stepped by `_power_ladder`, and
    the parts and these values against the e-recurrence on ns.polynomial.
    """
    _check_depth(kmax)
    return _unscale(*_h_brute_force(ns, kmax))


def _p_newton(ns: "NodeSet", kmax: int) -> tuple:
    """(L, [P_1, ..., P_kmax], L) by Newton's identities on the E_j."""
    L, signed = _scaled_elementary(ns, kmax)
    P: list[int] = []
    for k in range(1, kmax + 1):
        total = sum(map(mul, signed, reversed(P)))
        if k <= len(signed):
            total += k * signed[k - 1]
        P.append(total)
    return L, P, L


def newton_power_from_elementary(ns: "NodeSet", kmax: int) -> list[Fraction]:
    """[p_1, ..., p_kmax] recovered from elementary values by Newton's identities.

    p_k = sum_{j<k} (-1)^(j-1) e_j p_{k-j} + (-1)^(k-1) k e_k, run on
    P_k = L^k p_k and E_j = L^j e_j like the e-recurrence for h.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return _unscale(*_p_newton(ns, kmax))
