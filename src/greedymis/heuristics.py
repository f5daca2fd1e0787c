"""Candidate scoring for the greedy growth step.

Two scoring rules are supported for a candidate vertex v joining an
independent set S:

* heuristic ``a``: the number of common non-neighbors of S ∪ {v}
  (the size of the surviving candidate pool), and
* heuristic ``b``: the stability of the graph induced on those
  non-neighbors, where the stability of a graph H on o vertices is
  sum(o / (deg_H(v) + 1) for v in V(H)).

:func:`score` returns exact rationals (`fractions.Fraction`); the engine
compares the same values as integers over the shared denominator
lcm(1..n) from :func:`stability_weights`.  Either way ties are detected
exactly and comparisons never depend on floating-point rounding.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .graph import Graph, induced_subgraph, non_neighbors


class Heuristic(Enum):
    A = "a"
    B = "b"


@lru_cache(maxsize=None)
def stability_weights(n: int) -> tuple[int, tuple[int, ...]]:
    """Common-denominator table for stability sums over graphs of order <= n.

    Returns (L, w) with L = lcm(1..n) and w[d] = L // (d + 1).  A stability
    value sum(o/(d_v+1)) then equals o * sum(w[d_v]) / L exactly, which lets
    scores be compared as plain integers over the shared denominator L.
    """
    den = lcm(*range(1, n + 1)) if n > 0 else 1
    return den, tuple(den // (d + 1) for d in range(n))


def stability(h_graph: Graph) -> Fraction:
    """Exact stability of a graph: sum over vertices of o/(deg+1), o = order.

    Lies in [o, o*o]: o for complete graphs, o*o for edgeless ones.  The
    empty graph scores 0.
    """
    o = h_graph.n
    if o == 0:
        return Fraction(0)
    den, weights = stability_weights(o)
    num = sum(weights[h_graph.degree(v)] for v in range(o))
    return Fraction(o * num, den)


def score(g: Graph, s: tuple[int, ...], v: int, h: Heuristic) -> Fraction:
    """Score candidate ``v`` for joining independent set ``s`` in ``g``.

    With U' the common non-neighbors of s ∪ {v}: heuristic A scores |U'|,
    heuristic B scores the stability of the subgraph induced on U'.  Both
    score 0 when U' is empty.  ``v`` must itself be a non-neighbor of ``s``.
    It is the exact reference for the engine's inline integer keys.
    """
    if v not in non_neighbors(g, s):
        raise ValueError(f"vertex {v} is not a non-neighbor of {tuple(s)}")
    pool = non_neighbors(g, (*s, v))
    if h is Heuristic.A:
        return Fraction(len(pool))
    return stability(induced_subgraph(g, pool))
