"""Simple undirected graphs on vertices 0..n-1.

Graphs are immutable after construction and safe to share across workers.
Adjacency is stored as one bitmask per vertex, which gives O(1) membership
queries and lets the solvers run on whole neighborhoods with single integer
operations.

It also holds the package's one seeded random source, SplitMix64 (Steele,
Lea & Flood's 64-bit mix used by java.util.SplittableRandom):
``random_gnm`` draws its graphs from the stream and ``derive_seed`` gives
every run its seed.  The algorithm is fixed and fully specified, so a seed reproduces
the same graph on any platform and any Python version.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

VertexSet = tuple[int, ...]
"""Canonical vertex set: strictly increasing tuple of vertex ids."""


class GraphError(ValueError):
    """Invalid graph construction input (bad endpoint, self-loop, bad size)."""


MAX_VERTICES = 10**6
"""Largest vertex count of a Graph; ``Graph(n)`` allocates n masks."""


def _is_int(x: object) -> bool:
    """True for an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    if n > MAX_VERTICES:
        raise GraphError(f"{n} vertices exceed the limit {MAX_VERTICES}")


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_vertex_set(mask: int) -> VertexSet:
    return tuple(bits_of(mask))


def degree_planes(by_degree: list[int]) -> list[int]:
    """Bit-sliced degree counters of the disjoint masks ``by_degree[d]``.

    A vertex of degree d holds the count top - d over W bitmasks
    ("planes"): plane i is the mask of the vertices whose count has bit i
    set.  W is the fewest planes that hold every count for
    d < len(by_degree) with top = 2**(W-1) + 1, which makes the top plane
    exactly the vertices of degree at most 1.  Lowering the degree of
    every vertex of a mask s by one adds s to the counts, a carry chain
    from plane 0 that needs no complement::

        while s: c = planes[i]; planes[i] = c ^ s; s &= c; i += 1

    so a higher degree is a lower count.  Every user of the planes
    (``exact_mis``, ``exact._smallest_last`` and heuristic a's stepper in
    the engine) follows one rule: a removed vertex u lowers its remaining
    neighbors, ``adj[u] & left``, with one carry chain.
    """
    get = by_degree.__getitem__  # disjoint masks: their sum is their union
    return [sum(map(get, pick)) for pick in _plane_picks(len(by_degree))]


@lru_cache(maxsize=64)
def _plane_picks(size: int) -> tuple[tuple[int, ...], ...]:
    """For each plane of `degree_planes`, the degrees below ``size`` whose count sets it."""
    w = max(size - 3, 1).bit_length() + 1
    top = (1 << (w - 1)) + 1
    return tuple(tuple(d for d in range(size) if (top - d) >> i & 1) for i in range(w))


class Graph:
    """Simple undirected graph with bitmask adjacency.

    ``edges`` may contain duplicates and either orientation; they are
    normalized to (u, v) with u < v and deduplicated.  ``adj`` is the
    immutable tuple of neighborhood bitmasks, one per vertex; never rebind it.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        _check_vertex_count(n)
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def _trusted(cls, n: int, adj: list[int]) -> Graph:
        """The graph of symmetric, loop-free masks ``adj`` over 0..n-1, unchecked."""
        g = cls.__new__(cls)
        g.n = n
        g.adj = tuple(adj)
        return g

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, sorted; built from ``adj`` on each call."""
        return tuple(
            (u, v) for u, a in enumerate(self.adj) for v in bits_of(a >> (u + 1) << (u + 1))
        )

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def adjacency_mask(self, v: int) -> int:
        return self.adj[v]

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def non_neighbors(g: Graph, members: Iterable[int]) -> VertexSet:
    """Common non-neighborhood: vertices outside ``members`` adjacent to none of them.

    For an empty ``members`` this is all of V(g).
    """
    s = sorted(set(members))
    if s and not (0 <= s[0] and s[-1] < g.n):
        bad = s[0] if s[0] < 0 else s[-1]
        raise GraphError(f"vertex {bad} out of range for n={g.n}")
    blocked = 0
    for v in s:
        blocked |= (1 << v) | g.adj[v]
    return to_vertex_set(g.full_mask & ~blocked)


def random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random graph with exactly ``m`` distinct edges.

    The edge set is an m-subset drawn uniformly from all C(n,2) vertex pairs
    (Floyd's sampling algorithm over pair ranks), driven by the SplitMix64
    stream of ``seed``, so a seed pins the graph exactly.  The draws are
    ``below(j + 1)`` for j = C(n,2) - m .. C(n,2) - 1, each a uniform
    integer in [0, j] by top-bits rejection, inlined: a step adds the golden
    gamma to the state and mixes it as ``_mix64`` does, and the top
    ``j.bit_length()`` bits are redrawn until they are at most j.
    ``below(1)`` draws nothing.
    """
    _check_vertex_count(n)  # before sampling, whose work grows with n
    npairs = n * (n - 1) // 2
    if not 0 <= m <= npairs:
        raise GraphError(f"m={m} out of range for n={n} (max {npairs})")
    state = seed & 0xFFFFFFFFFFFFFFFF
    chosen: set[int] = set()
    start = npairs - m
    if start == 0 < m:  # below(1) is 0 without a draw
        chosen.add(0)
        start = 1
    for j in range(start, npairs):
        shift = 64 - j.bit_length()
        while True:
            state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
            z = (z ^ z >> 27) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
            t = (z ^ z >> 31) >> shift
            if t <= j:
                break
        chosen.add(j if t in chosen else t)
    # unrank in lexicographic order: rank r of row u is the pair (u, r + off)
    adj = [0] * n
    u, off, end, width = 0, 1, n - 1, n - 1
    for r in sorted(chosen):
        while r >= end:
            u += 1
            off += 1 - width
            width -= 1
            end += width
        v = r + off
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._trusted(n, adj)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *values: int) -> int:
    """Mix a base seed with integer coordinates into a fresh 64-bit seed.

    Each coordinate is absorbed in order through _mix64, so e.g.
    (n, m, run_index) cells of an experiment grid get independent,
    individually reproducible streams.
    """
    state = _mix64(base_seed ^ _GOLDEN)
    for v in values:
        state = _mix64((state + _GOLDEN + (v & _MASK64)) & _MASK64)
    return state
