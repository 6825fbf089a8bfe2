"""Node sets, difference products, and the sums of a_i^n / A_i.

Every node carries a signed difference product A_i = prod_{j != i}(a_i - a_j).
With the nodes sorted ascending the products alternate in sign, the largest
node's product being positive.  The central fact implemented here: the sum
of a_i^n / A_i vanishes for every 0 <= n <= m-2 and equals the complete
homogeneous value h_{n-m+1} from n = m-1 onward.

A node set's polynomial prod(z - a_i) is multiplied out once, on integers
(`NodeSet.polynomial`), and every check on the e side reads it.  It
scales the nodes by its own lcm; the makers here (the sort keys and the
sums' common denominator) share `exactpoly._over_lcm` with the power
kernel and the brute-force oracle of `symmetric`.

The paper's display of a sum, alternating signs over unsigned products put
over one denominator, is the CLI's `weights` (`cli._run_weights`), computed
there on integers; this module holds only the values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Sequence

from .exactpoly import _over_lcm, derivative, evaluate, node_polynomial
from .symmetric import _h_brute_force, _power_ladder, _unscale


class EmptyNodeSet(ValueError):
    """Raised when a node set would contain no nodes."""


class DuplicateNode(ValueError):
    """Raised when two nodes coincide (difference products would vanish)."""

    def __init__(self, value):
        super().__init__(f"duplicate node {value}")
        self.value = value


class NegativeExponent(ValueError):
    """Raised when a power-sum exponent is negative."""

    def __init__(self, value):
        super().__init__(f"exponent must be nonnegative, got {value}")
        self.value = value


@dataclass(frozen=True)
class NodeSet:
    """Strictly ascending tuple of distinct rationals.

    The difference products and the node polynomial are computed on first
    use and kept on the instance, so each is built once per node set.  The
    products are built from the values themselves; the node polynomial
    feeds only checks (the derivative route, the e-list and `reconstruct`).
    The cached attributes are not fields: equality and hashing see only
    `values`.
    """

    values: tuple

    @property
    def m(self) -> int:
        return len(self.values)

    @cached_property
    def products(self) -> tuple:
        """The signed difference products A_i, as diff_products returns them:
        from each node's own numerator and denominator, not `polynomial`."""
        return tuple(diff_products(self))

    @cached_property
    def polynomial(self) -> tuple:
        """(L, b, W) of `exactpoly.node_polynomial`, as tuples.  W(z) =
        prod(z - b_i) holds the elementary values, E_k = L^k e_k =
        (-1)^k W_(m-k), and W'(b_i) = L^(m-1) A_i."""
        L, b, W = node_polynomial(self.values)
        return L, tuple(b), tuple(W)


def nodeset_new(values: Sequence) -> NodeSet:
    """Validate, canonicalize (sort ascending), and freeze a node list."""
    vals = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    if not vals:
        raise EmptyNodeSet("node set must contain at least one value")
    # Sorted by the integers a_i*L, L the lcm of the denominators: they
    # order the nodes as the Fractions do, compare faster, and are equal
    # exactly when the nodes are.
    _, keys = _over_lcm([(a.numerator, a.denominator) for a in vals])
    order = sorted(range(len(vals)), key=keys.__getitem__)
    for i, j in zip(order, order[1:]):
        if keys[i] == keys[j]:
            raise DuplicateNode(vals[i])
    return NodeSet(tuple(vals[i] for i in order))


def diff_products(ns: NodeSet) -> list[Fraction]:
    """Signed products A_i = prod_{j != i}(a_i - a_j); [1] for a singleton.

    From the nodes' own a_i = p_i/q_i, never from ns.polynomial: each is
    the pair of `_product_pairs` in lowest terms.
    """
    return [Fraction(U, V) for U, V in _product_pairs(ns.values)]


def _product_pairs(values: Sequence) -> list[tuple[int, int]]:
    """Each A_i = prod_{j != i}(a_i - a_j) of the ascending distinct
    rationals `values` as an unreduced integer pair (U_i, V_i), V_i > 0.

    Each factor is the cross-difference (p_i q_j - p_j q_i) / (q_i q_j) of
    a_i = p_i/q_i, so U_i = prod_{j != i}(p_i q_j - p_j q_i) and
    V_i = q_i^(m-1) * (Q // q_i), with Q = prod q_j.
    """
    pq = [(a.numerator, a.denominator) for a in values]
    Q = prod(q for _, q in pq)
    k = len(pq) - 1
    return [
        (prod(p * qj - pj * q for j, (pj, qj) in enumerate(pq) if j != i), q**k * (Q // q))
        for i, (p, q) in enumerate(pq)
    ]


def diff_products_via_derivative(ns: NodeSet) -> list[Fraction]:
    """Same products obtained as w'(a_i) for w = prod(z - a_j).

    On the integer node polynomial W(z) = L^m w(z/L) of ns.polynomial,
    W'(b_i) = L^(m-1) w'(a_i) (`_slopes`).
    """
    scale = ns.polynomial[0] ** (ns.m - 1)
    return [Fraction(slope, scale) for slope in _slopes(ns)]


def _slopes(ns: NodeSet) -> list[int]:
    """[W'(b_i)] by Horner on W of ns.polynomial = (L, b, W); each is
    L^(m-1) w'(a_i) = L^(m-1) A_i for the true W."""
    _, b, W = ns.polynomial
    w1 = derivative(W)
    return [evaluate(w1, bi) for bi in b]


def _check_exponent(n: int) -> None:
    if n < 0:
        raise NegativeExponent(n)


def euler_sums(ns: NodeSet, nmax: int) -> list[Fraction]:
    """[S_0, ..., S_nmax] with S_n = sum a_i^n / A_i (and 0**0 = 1): the
    power sums of the nodes weighted by 1/A_i, in O(m^2 + nmax*m) integer
    operations."""
    _check_exponent(nmax)
    return _unscale(*_euler_sums(ns, nmax))


def _euler_sums(ns: NodeSet, nmax: int) -> tuple:
    """The scaled list (L, X, D) of [S_0, ..., S_nmax]."""
    weights = [(A.denominator, A.numerator) for A in ns.products]
    return _weighted_power_sums(weights, ns.values, nmax)


def _weighted_power_sums(weights: Sequence, values: Sequence, nmax: int) -> tuple:
    """The scaled list (L, X, D) of [sum w_i a_i^n for n = 0..nmax]
    (0**0 = 1) over m >= 1 weights w_i and rationals a_i, each weight given
    as an integer pair (numerator, nonzero denominator of either sign).

    The weights go over one denominator D as integers N_i (`_over_lcm`);
    the power kernel of `symmetric` gives L, the values' own lcm, and
    X[n] = sum N_i (a_i*L)^n, which is the sum over D L^n."""
    D, terms = _over_lcm(weights)
    return (*_power_ladder(terms, values, nmax), D)


def expected_euler_sums(ns: NodeSet, nmax: int) -> list[Fraction]:
    """Closed forms of euler_sums: 0 for n <= m-2, then h_0, h_1, ... from n = m-1."""
    _check_exponent(nmax)
    zeros = [Fraction(0)] * min(nmax + 1, ns.m - 1)
    return zeros + _unscale(*_closed_forms(ns, nmax))


def _closed_forms(ns: NodeSet, nmax: int) -> tuple:
    """The scaled list of the closed forms from n = m-1 to nmax, h_0 to
    h_(nmax-m+1), off the brute-force oracle's ladder; empty for
    nmax < m-1."""
    if nmax < ns.m - 1:
        return 1, [], 1
    return _h_brute_force(ns, nmax - ns.m + 1)
