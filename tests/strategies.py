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
