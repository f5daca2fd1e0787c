"""Candidate scoring for the greedy growth step.

Two scoring rules are supported for a candidate vertex v joining an
independent set S:

* heuristic ``a``: the number of common non-neighbors of S ∪ {v}
  (the size of the surviving candidate pool), and
* heuristic ``b``: the stability of the graph induced on those
  non-neighbors, where the stability of a graph H on o vertices is
  sum(o / (deg_H(v) + 1) for v in V(H)).

:func:`score` returns exact rationals (`fractions.Fraction`) computed
straight from these definitions, so ties are detected exactly and
comparisons never depend on floating-point rounding.  It shares no code
with the engine's integer keys and serves as their reference.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .graph import Graph, induced_subgraph, non_neighbors


class Heuristic(Enum):
    A = "a"
    B = "b"


def stability(h_graph: Graph) -> Fraction:
    """Exact stability of a graph: sum over vertices of o/(deg+1), o = order.

    Lies in [o, o*o]: o for complete graphs, o*o for edgeless ones.  The
    empty graph scores 0.
    """
    o = h_graph.n
    return sum((Fraction(o, h_graph.degree(v) + 1) for v in range(o)), Fraction(0))


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
