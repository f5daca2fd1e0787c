"""Independent references for the greedy family and the exact oracle.

``lockstep_run`` is written from the paper alone and shares no code with
``greedymis.engine``: seeds are the independent k-subsets from
``itertools.combinations``, each set adopts the candidate with the
largest exact ``greedymis.score`` (ties to the lowest id), each round
keeps the first copy of a repeated child, and the counters follow the
README cost model.

``clique_alpha`` shares no code with ``greedymis.exact``: it finds the
independence number as the largest clique of the complement graph.

Both are slow and serve only as test oracles.  The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from greedymis import Graph, Heuristic, score


class LockstepRun(NamedTuple):
    size: int
    witness: tuple[int, ...]
    generation_sizes: list[int]
    heuristic_evals: int
    adjacency_checks: int


def _outside(g: Graph, s) -> list[int]:
    """Vertices outside ``s`` adjacent to none of it, in increasing order."""
    return [v for v in range(g.n)
            if v not in s and not any(g.adjacent(u, v) for u in s)]


def lockstep_run(g: Graph, h: Heuristic, k: int) -> LockstepRun | None:
    """The paper's lockstep rounds from every independent k-subset.

    None when ``g`` has no independent set of cardinality ``k``.
    """
    n = g.n
    gen = [s for s in combinations(range(n), k)
           if not any(g.adjacent(u, v) for u, v in combinations(s, 2))]
    if not gen:
        return None
    sizes = [len(gen)]
    evals = checks = 0
    while True:
        c = len(gen[0])
        children = []
        for s in gen:
            pool = _outside(g, s)
            checks += c * (n - c)
            best = None
            for v in pool:
                evals += 1
                checks += (c + 1) * (n - c - 1)
                if h is Heuristic.B:
                    o = len(_outside(g, (*s, v)))
                    checks += o * o + o
                key = score(g, s, v, h)
                if best is None or key > best[0]:
                    best = (key, v)
            if best is not None:
                child = tuple(sorted((*s, best[1])))
                if child not in children:
                    children.append(child)
        if not children:
            return LockstepRun(c, min(gen), sizes, evals, checks)
        gen = children
        sizes.append(len(gen))


def clique_alpha(g: Graph) -> int:
    """Independence number of ``g``: the largest clique of its complement.

    Bron & Kerbosch (1973) with the pivot of Tomita, Tanaka & Takahashi
    (2006): the vertex of P | X with the most non-neighbours in P.  Sets
    are Python sets of non-neighbours, and a branch is cut only when
    ``|R| + |P|`` cannot beat the best clique so far.
    """
    non = [{u for u in range(g.n) if u != v and not g.adjacent(u, v)}
           for v in range(g.n)]
    best = 0

    def expand(size: int, p: set[int], x: set[int]) -> None:
        nonlocal best
        if not p:
            best = max(best, size)
            return
        if size + len(p) <= best:
            return
        pivot = max(p | x, key=lambda u: len(p & non[u]))
        for v in sorted(p - non[pivot]):
            expand(size + 1, p & non[v], x & non[v])
            p.remove(v)
            x.add(v)

    expand(0, set(range(g.n)), set())
    return best
