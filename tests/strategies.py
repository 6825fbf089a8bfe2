"""Shared hypothesis strategies and random-instance helpers."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from diffprod import nodeset_new

# Rational entries with numerators/denominators bounded by 20.
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)

node_sets = st.lists(rationals, min_size=1, max_size=8, unique=True).map(nodeset_new)
multi_node_sets = st.lists(
    rationals, min_size=2, max_size=8, unique=True
).map(nodeset_new)


def poly_from_roots(roots):
    """Reference node polynomial over Fractions: the monic prod(x - r),
    ascending; [1] for no roots.  Kept independent of the package."""
    p = [Fraction(1)]
    for r in roots:
        p = [lo - Fraction(r) * hi
             for lo, hi in zip([Fraction(0), *p], [*p, Fraction(0)])]
    return p


def random_node_sets(count, seed):
    """Deterministic batch of node sets, m in [2, 8], bounded rational entries."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        m = rng.randint(2, 8)
        vals = set()
        while len(vals) < m:
            vals.add(Fraction(rng.randint(-20, 20), rng.randint(1, 20)))
        sets.append(nodeset_new(sorted(vals)))
    return sets


# Explicit node lists for the integer-scaled kernels: m = 1, a node at 0,
# negative nodes only, and denominators of different primes.
EDGE_SETS = {
    "singleton": [Fraction(-7, 2)],
    "node at zero": [0, Fraction(1, 3), -2],
    "negative nodes": [-9, -4, Fraction(-1, 5)],
    "mixed denominators": [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), 4,
                           Fraction(-11, 7)],
}


# Test-only reference: the recurrences of the symmetric module written
# directly over Fractions, on plain lists.  The package runs them on scaled
# integers; these say what each returned value must be.

def reference_elementary(values):
    """e[0..m] over Fractions, from the coefficients of prod(x - a)."""
    coeffs = poly_from_roots(values)
    m = len(values)
    return [(-1) ** k * coeffs[m - k] for k in range(m + 1)]


def reference_power_sums(values, kmax):
    """[p_1, ..., p_kmax]."""
    return [sum((Fraction(a) ** k for a in values), Fraction(0))
            for k in range(1, kmax + 1)]


def reference_homogeneous_via_elementary(e, kmax):
    """h[0..kmax]: h_k = sum_j (-1)^(j-1) e_j h_{k-j}, e_j = 0 past the list."""
    h = [Fraction(1)]
    for k in range(1, kmax + 1):
        acc = Fraction(0)
        for j in range(1, min(k, len(e) - 1) + 1):
            acc += (-1) ** (j - 1) * e[j] * h[k - j]
        h.append(acc)
    return h


def reference_homogeneous_via_power_sums(p, kmax):
    """h[0..kmax]: h_k = (1/k) sum_j p_j h_{k-j}, p = [p_1, ..., p_kmax]."""
    h = [Fraction(1)]
    for k in range(1, kmax + 1):
        acc = sum((p[j - 1] * h[k - j] for j in range(1, k + 1)), Fraction(0))
        h.append(acc / k)
    return h


def reference_newton(e, kmax):
    """[p_1, ..., p_kmax] from e by Newton's identities."""
    p = []
    for k in range(1, kmax + 1):
        acc = Fraction(0)
        for j in range(1, min(k - 1, len(e) - 1) + 1):
            acc += (-1) ** (j - 1) * e[j] * p[k - j - 1]
        ek = e[k] if k < len(e) else Fraction(0)
        acc += (-1) ** (k - 1) * k * ek
        p.append(acc)
    return p
