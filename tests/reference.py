"""Independent references for the greedy family and the exact oracle.

``score`` is the exact-rational reference for the engine's integer keys.
With U' the common non-neighbors of S ∪ {v}, heuristic a scores |U'| and
heuristic b the ``stability`` of ``induced_subgraph(g, U')``, where the
stability of a graph H of order o is sum(o / (deg_H(v) + 1)).  Each term
is a ``fractions.Fraction``, so ties are exact and nothing is rounded.

``lockstep_run`` is written from the paper alone and shares no code with
``greedymis.engine``: seeds are the independent k-subsets from
``itertools.combinations``, each set adopts the candidate with the
largest exact ``score`` (ties to the lowest id), each round keeps the
first copy of a repeated child, and the counters follow the README cost
model.

``clique_alpha`` shares no code with ``greedymis.exact``: it finds the
independence number as the largest clique of the complement graph.

``alpha_digest`` hashes the alphas of the seeded n = 60 cells
ALPHA_CELLS, which ``tools/alpha_digest.py`` computes with
``clique_alpha`` and the tests with ``exact_mis``; both compare it with
REFERENCE_ALPHA_DIGEST.

BUDGET_CELL, BUDGET_NODES and NODE_BUDGET pin the oracle's search nodes on
one cell and a budget between them, for the timeout tests of the CLI and
the runners.

``SplitMix64`` is the stream as a class, with its own copy of the
finalizer: the tests draw their graph sizes and seeds from it, and
``floyd_gnm`` is ``random_gnm`` written plainly with it: Floyd's sampling
over pair ranks with ``SplitMix64.below``, a sorted unrank and
``Graph(n, edges)``.

``plane_width_graphs`` lists small stars, wheels and stars joined to a
path whose largest degrees sit on both sides of every change in the
number of bit planes that the oracle and heuristic a keep.

``lockstep_run`` and ``clique_alpha`` are slow and serve only as test
oracles.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from greedymis import Graph, GraphError, Heuristic, derive_seed, non_neighbors, random_gnm


def induced_subgraph(g: Graph, members: Iterable[int]) -> Graph:
    """Subgraph induced on ``members``, relabelled 0..len-1 in increasing id order."""
    s = sorted(set(members))
    if s and not (0 <= s[0] and s[-1] < g.n):
        bad = s[0] if s[0] < 0 else s[-1]
        raise GraphError(f"vertex {bad} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(s)}
    return Graph(len(s), [(index[u], index[v]) for u, v in combinations(s, 2) if g.adjacent(u, v)])


def stability(h_graph: Graph) -> Fraction:
    """Exact stability of a graph: sum over vertices of o/(deg+1), o = order.

    Lies in [o, o*o]: o for complete graphs, o*o for edgeless ones.  The
    empty graph scores 0.
    """
    o = h_graph.n
    return sum((Fraction(o, h_graph.adj[v].bit_count() + 1) for v in range(o)), Fraction(0))


def score(g: Graph, s: tuple[int, ...], v: int, h: Heuristic) -> Fraction:
    """Score candidate ``v`` for joining independent set ``s`` in ``g``.

    With U' the common non-neighbors of s ∪ {v}: heuristic A scores |U'|,
    heuristic B scores the stability of the subgraph induced on U'.  Both
    score 0 when U' is empty.  ``v`` must itself be a non-neighbor of ``s``.
    """
    if v not in non_neighbors(g, s):
        raise ValueError(f"vertex {v} is not a non-neighbor of {tuple(s)}")
    pool = non_neighbors(g, (*s, v))
    if h is Heuristic.A:
        return Fraction(len(pool))
    return stability(induced_subgraph(g, pool))


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


# (n, m, runs) at n = 60, sparse to dense, with m = 4n weighted most; the
# seeds are derive_seed(60, n, m, r)
ALPHA_CELLS = ((60, 60, 8), (60, 120, 8), (60, 240, 32), (60, 885, 16), (60, 1416, 8))

# alpha_digest(clique_alpha), printed by tools/alpha_digest.py; clique_alpha
# shares no code with exact_mis.  Re-record it only when ALPHA_CELLS changes.
REFERENCE_ALPHA_DIGEST = "29a7ed0b047e5a046cb4a3a6d11272226f5651522bce49edd2c5bd79704a1be0"


def alpha_digest(alpha_of: Callable[[Graph], int]) -> str:
    """SHA-256 of ``n,m,r:alpha`` lines over ALPHA_CELLS."""
    h = hashlib.sha256()
    for n, m, runs in ALPHA_CELLS:
        for r in range(runs):
            g = random_gnm(n, m, seed=derive_seed(60, n, m, r))
            h.update(f"{n},{m},{r}:{alpha_of(g)}\n".encode())
    return h.hexdigest()


# The oracle's search nodes on runs 0 and 1 of the seed-3 G(90, 360) cell,
# and a node budget between them that times out exactly the second run.
# The counts move with the oracle's pruning rules; re-pin all three then.
BUDGET_CELL = (90, 360, 3)  # n, m, seed
BUDGET_NODES = [264, 300]
NODE_BUDGET = 280


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream: state advances by the 64-bit golden ratio."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via top-bits rejection sampling."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        bits = (bound - 1).bit_length()
        if bits == 0:
            return 0
        while True:
            r = self.next_u64() >> (64 - bits)
            if r < bound:
                return r


def floyd_gnm(n: int, m: int, seed: int) -> Graph:
    """The m-edge graph that ``random_gnm(n, m, seed)`` must return."""
    npairs = n * (n - 1) // 2
    rng = SplitMix64(seed)
    chosen: set[int] = set()
    for j in range(npairs - m, npairs):
        t = rng.below(j + 1)
        chosen.add(j if t in chosen else t)
    pairs = list(combinations(range(n), 2))  # rank r is the r-th pair in lexicographic order
    return Graph(n, [pairs[r] for r in sorted(chosen)])


def is_independent(g, s):
    return all(not g.adjacent(u, v) for u, v in combinations(s, 2))


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, list(combinations(range(n), 2)))


def star(t):
    """K_{1,t}: the hub 0 has degree t."""
    return Graph(t + 1, [(0, i) for i in range(1, t + 1)])


def wheel(t):
    """The hub 0 joined to the t-cycle 1..t (t >= 3): the hub has degree t."""
    return Graph(t + 1, [(0, i) for i in range(1, t + 1)]
                 + [(i, i % t + 1) for i in range(1, t + 1)])


def star_and_path(t, length=4):
    """K_{1,t} whose last leaf starts a path of ``length`` more vertices."""
    n = t + 1 + length
    return Graph(n, [(0, i) for i in range(1, t + 1)] + [(i, i + 1) for i in range(t, n - 1)])


# largest degrees on both sides of every change in the plane count (past 3,
# 5, 9 and 17), and around 8 and 16
PLANE_DEGREES = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16, 17, 18)


def plane_width_graphs(pad=0):
    """``(name, graph)`` of each family at each degree of PLANE_DEGREES.

    ``pad`` isolated vertices are added to each graph, which makes it
    sparse without changing its largest degree.
    """
    for t in PLANE_DEGREES:
        family = [("star", star(t))]
        if t >= 3:
            family.append(("wheel", wheel(t)))
        if t >= 1:
            family.append(("star-path", star_and_path(t)))
        for name, g in family:
            yield f"{name}-{t}", Graph(g.n + pad, g.edges)
