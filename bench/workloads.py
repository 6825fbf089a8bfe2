"""Seeded workloads: the node sets and CLI calls each benchmark pass makes.

A pass is a fixed list of CLI calls.  Its inputs depend only on the
workload name, the seed and the pass index, so the same seed always gives
the same calls, and every pass of a run uses node sets of its own: a
result cached from an earlier call never serves a later one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Query:
    """One CLI call: the argv handed to `cli.run` plus what checks need."""

    argv: tuple
    verb: str
    m: int
    fmt: str
    n: int  # --n for weights and decompose, nmax or kmax otherwise


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sets_per_pass: int
    m_values: tuple  # node counts, used in turn and shuffled within a pass
    numerators: int  # numerators drawn uniformly from [-numerators, numerators]
    denominators: int  # denominators drawn uniformly from [1, denominators]
    verbs: tuple  # verbs called on every set, in order


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table-wide",
            why="table at m=48 on rational nodes: 53 sums per set, so "
                "recomputing the difference products for every n dominates",
            sets_per_pass=4,
            m_values=(48,),
            numerators=1000,
            denominators=50,
            verbs=("table",),
        ),
        Workload(
            name="small-batch",
            why="every verb once per small set (m=2..8): CLI overhead and "
                "the brute-force oracle, with no reuse across queries",
            sets_per_pass=7,
            m_values=(2, 3, 4, 5, 6, 7, 8),
            numerators=20,
            denominators=20,
            verbs=("weights", "table", "decompose", "symmetric", "verify"),
        ),
    )
}

DEFAULT_SEED = 0


def node_set(rng: random.Random, m: int, numerators: int, denominators: int) -> list:
    """m distinct rationals p/q, |p| <= numerators, 1 <= q <= denominators."""
    values: list = []
    seen = set()
    while len(values) < m:
        v = Fraction(rng.randint(-numerators, numerators), rng.randint(1, denominators))
        if v not in seen:
            seen.add(v)
            values.append(v)
    return values


def pass_node_sets(w: Workload, seed: int, index: int) -> list:
    """The node sets of pass `index`.  Each pass holds every node count of
    the workload equally often, in a seeded order."""
    rng = random.Random(f"{w.name}:{seed}:{index}")
    ms = [w.m_values[i % len(w.m_values)] for i in range(w.sets_per_pass)]
    rng.shuffle(ms)
    return [node_set(rng, m, w.numerators, w.denominators) for m in ms]


def pass_queries(w: Workload, seed: int, index: int) -> list:
    """CLI calls of pass `index`, alternating --format json and text."""
    queries: list = []
    first = index * w.sets_per_pass * len(w.verbs)
    for values in pass_node_sets(w, seed, index):
        m = len(values)
        text = " ".join(map(str, values))  # "p" or "p/q"
        for verb in w.verbs:
            # --n for weights and decompose; CLI default nmax/kmax otherwise
            n = {"weights": 0, "decompose": m + 1}.get(verb, m + 4)
            extra = ("--n", str(n)) if verb == "decompose" else ()
            fmt = "json" if (first + len(queries)) % 2 == 0 else "text"
            queries.append(Query((verb, text, *extra, "--format", fmt), verb, m, fmt, n))
    return queries
