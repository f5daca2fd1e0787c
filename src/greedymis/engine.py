"""The greedy algorithm family.

A run starts from every independent k-subset of the graph.  Each set
scores every vertex of its candidate pool with the configured heuristic
and adopts the best one (ties broken toward the lowest vertex id); a set
whose pool is empty is terminal.  The answer is the largest cardinality
reached.  Heuristic a scores a candidate v by |U'|, the pool vertices
outside v's closed neighborhood, and b by the integer stability key
below.  The winner's U' is the child's pool; seeds get theirs from the
seed filter.

Heuristic b, and heuristic a on graphs of edge density above 1/4, score
every candidate in one candidate loop that differs only in the key.  On
sparser graphs heuristic a skips the loop: |U'| = |pool| - 1 - (v's
degree in the pool), so its winner is the lowest pool vertex of least
pool degree.  Those degrees are kept bit-sliced along each chain as the
oracle keeps its own: planes that start as the graph's
(:func:`greedymis.graph.degree_planes`) and change only by removals,
each lowering its neighbours left in the pool with one carry chain.  A
fresh pool removes every vertex outside it, a child the winner's pool
neighbours, and the winner comes from one top-down scan of about
log2(max degree) planes.  Each removal costs a carry chain where the
loop costs one step per candidate, so the planes lose on dense graphs;
the rule comes from per-run timings on G(n, m), n = 30-120 (CPython
3.11, 2-core Xeon), where the planes won up to density 0.2-0.29 and lost
from 0.3.

Every set has exactly one child, one vertex larger, so the paper's
lockstep rounds with per-generation dedup visit exactly the sets met by
following each seed's chain until it reaches a set already visited.  The
engine runs in that chain form: each distinct set is expanded once and
the per-cardinality visit counts are the lockstep generation sizes.

An optional ``target``, a vertex set W, seeds the run from the
independent k-subsets of W before the lexicographic seeds and stops it at
the first visited set of cardinality >= len(W) (the result is then marked
incomplete).  Every chain is deterministic, so seed order changes neither
a full run's result (size, witness, counters, generation sizes) nor a
stopped run's size, only where it stops.  The oracle-paired experiments
pass a maximum independent set, whose subsets' chains usually reach
alpha at once.

Instrumentation counters charge a fixed machine-independent cost model,
not the engine's own work: each expanded c-set is charged c*(n-c)
adjacency checks for its common non-neighbors, though the engine inherits
them, and a heuristic-b scoring additionally charges |U'|**2 checks for
induced degrees plus |U'| for evaluating the stability terms.

Heuristic-b keys are integers: with L = lcm(1..n) and weights[d] =
L // (d + 1), a pool of order o whose vertices have induced degrees d_v
has stability sum(o / (d_v + 1)) = o * sum(weights[d_v]) / L exactly, so
the engine compares o * sum(weights[d_v]) and never rounds.
``score`` in ``tests/reference.py`` is the independent exact-rational
reference for the same values.

The sum comes one of two ways, to the same integer.  The direct recount
reads every vertex of U' and its degree inside U': |U'| steps per
candidate.  The delta starts from the pool instead: once per expanded set
it takes every pool vertex's induced degree dp[x] and W, the sum of
weights[dp[x]] over the pool.  For a candidate v with nv = N(v) ∩ pool,
the sum over U' is W minus the weights of v and of nv, with
weights[dp[x]] swapped for weights[dp[x] - |N(x) ∩ nv|] for each x of U'
next to nv (no vertex of U' is next to v).  That costs about |nv| steps
plus one per correction, so the delta wins on sparse pools and loses on
dense ones; :func:`_delta_widths` fixes once per run the pool widths at
which it is taken.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import chain, combinations
from math import comb, lcm, sqrt

from .graph import (
    Graph,
    VertexSet,
    _is_int,
    degree_planes,
    mask_of,
    non_neighbors,
    to_vertex_set,
)

MAX_SEEDS = 10**6  # largest C(n, k) a run may enumerate


class NoSeedSetsError(Exception):
    """No independent set of the requested initial cardinality exists."""


class SeedLimitError(Exception):
    """C(n, k) exceeds MAX_SEEDS, so seeding alone would not finish."""


class Heuristic(Enum):
    """Candidate key: a scores |U'|, b the stability of the graph induced on U'."""

    A = "a"
    B = "b"


@dataclass(frozen=True)
class EngineConfig:
    """One family member: heuristic plus initial cardinality, e.g. a1 or b2."""

    heuristic: Heuristic
    k: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.heuristic, Heuristic):
            raise ValueError(f"heuristic must be a Heuristic, got {self.heuristic!r}")
        if not _is_int(self.k) or self.k < 1:
            raise ValueError(f"initial cardinality must be an int >= 1, got {self.k!r}")

    @property
    def name(self) -> str:
        return f"{self.heuristic.value}{self.k}"


@dataclass(frozen=True)
class Generation:
    """Uniform-cardinality collection of independent sets (one growth level)."""

    sets: tuple[VertexSet, ...]
    cardinality: int


@dataclass
class RunStats:
    heuristic_evals: int = 0
    adjacency_checks: int = 0
    generation_sizes: list[int] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        """Expansion rounds that produced a generation: one per size after the first."""
        return max(len(self.generation_sizes) - 1, 0)


@dataclass(frozen=True)
class GreedyResult:
    witness: VertexSet
    stats: RunStats
    complete: bool = True  # False after a ``target`` stop: stats are partial

    @property
    def size(self) -> int:
        """Largest cardinality reached: the witness is a set of that size."""
        return len(self.witness)


def _seeds(g: Graph, k: int, w: VertexSet = ()) -> Iterator[tuple[int, int]]:
    """Independent k-subsets of ``w``, then of V(g) lexicographically, streamed.

    Each comes as ``(mask, pool)``, the pool being the set's common
    non-neighbors.  A subset of ``w`` comes again in the lexicographic
    pass; callers skip sets already visited.
    """
    if k < 1:
        raise ValueError(f"initial cardinality must be >= 1, got {k}")
    if comb(g.n, k) > MAX_SEEDS:
        raise SeedLimitError(
            f"C({g.n},{k}) = {comb(g.n, k)} candidate seed sets exceed the limit {MAX_SEEDS}"
        )
    if any(not 0 <= v < g.n for v in w) or any(u >= v for u, v in zip(w, w[1:])):
        raise ValueError(
            f"target must be strictly increasing vertex ids below {g.n}, got {w!r}"
        )
    adj = g.adj
    full = g.full_mask
    found = False
    for combo in chain(combinations(w, k), combinations(range(g.n), k)):
        blocked = smask = 0
        for v in combo:
            if blocked >> v & 1:
                break
            blocked |= adj[v]
            smask |= 1 << v
        else:
            found = True
            yield smask, full & ~(blocked | smask)
    if not found:
        raise NoSeedSetsError(f"no independent set of cardinality {k} exists")


def initial_generation(g: Graph, k: int) -> Generation:
    """All independent k-subsets of V(g) in lexicographic order."""
    return Generation(tuple(to_vertex_set(s) for s, _ in _seeds(g, k)), k)


@lru_cache(maxsize=4)
def _b_weights(n: int) -> tuple[int, ...]:
    """Heuristic b's integer weights lcm(1..n) // (d + 1) for d < n, kept for
    the last few orders: every b run at one order builds the same table."""
    scale = lcm(*range(1, n + 1))
    return tuple(scale // (d + 1) for d in range(n))


@lru_cache(maxsize=4)
def _delta_widths(n: int, degree_sum: int) -> tuple[bool, ...]:
    """``takes_delta[w]`` for w = 0..n: whether heuristic b takes its keys by
    delta in a pool of width w.

    At edge density p = degree_sum / (n * (n - 1)), a candidate in a pool
    of width w has about e = w * p pool neighbours.  The delta costs about
    e steps plus its corrections, against w - e for the direct recount.
    Per-call timings on G(n, m), n = 20-80 (CPython 3.11, 2-core Xeon), put
    the delta ahead when w >= 8 and w * p <= 1.1 * sqrt(w) - 1.  Cached,
    since the runs of an experiment cell share n and, on G(n, m), the
    degree sum.
    """
    p = degree_sum / (n * (n - 1)) if n > 1 else 0.0
    return tuple(w >= 8 and w * p <= 1.1 * sqrt(w) - 1 for w in range(n + 1))


def _stepper(g: Graph, h: Heuristic, stats: RunStats) -> Callable[..., tuple[int, int]]:
    """Build ``child(smask, pool, c)``: the c-set ``smask`` grown by its best candidate.

    Returns the child (0 when ``pool`` is empty) and its pool, the winner's
    U'.  Every call charges the set's pool and scoring cost to ``stats``.
    """
    n = g.n
    adj = g.adj
    outside = [~a ^ (1 << v) for v, a in enumerate(adj)]  # all but N[v]
    degree_sum = sum(map(int.bit_count, adj))
    use_b = h is Heuristic.B
    if not use_b and 4 * degree_sum <= n * (n - 1):  # density <= 1/4
        return _a_stepper(n, adj, outside, stats)
    takes_delta = (False,) * (n + 1)  # a's dense loop keys no pool by delta
    if use_b:
        weights = _b_weights(n)
        takes_delta = _delta_widths(n, degree_sum)
        dp = [0] * n  # induced degree in the pool, per pool vertex
        wp = [0] * n  # weights[dp[x]]

    def child(smask: int, pool: int, c: int) -> tuple[int, int]:
        width = pool.bit_count()
        stats.heuristic_evals += width
        checks = c * (n - c) + width * (c + 1) * (n - c - 1)
        delta = takes_delta[width]
        if delta:
            wsum = 0
            mm = pool
            while mm:
                low = mm & -mm
                mm ^= low
                x = low.bit_length() - 1
                d = (adj[x] & pool).bit_count()
                dp[x] = d
                wp[x] = w = weights[d]
                wsum += w
        best_key = -1
        best_bit = best_pool = 0
        mm = pool
        while mm:
            low = mm & -mm
            mm ^= low
            u2 = pool & outside[low.bit_length() - 1]  # U'
            if use_b:
                o = u2.bit_count()
                checks += o * o + o
                if delta:
                    gone = pool ^ u2  # v and its pool neighbours
                    total = wsum
                    near = 0
                    m2 = gone
                    while m2:
                        l2 = m2 & -m2
                        m2 ^= l2
                        y = l2.bit_length() - 1
                        total -= wp[y]
                        near |= adj[y]
                    near &= u2  # the U' vertices whose degree drops
                    while near:
                        l2 = near & -near
                        near ^= l2
                        x = l2.bit_length() - 1
                        total += weights[dp[x] - (adj[x] & gone).bit_count()] - wp[x]
                else:
                    total = 0
                    m2 = u2
                    while m2:
                        l2 = m2 & -m2
                        m2 ^= l2
                        total += weights[(adj[l2.bit_length() - 1] & u2).bit_count()]
                key = o * total
            else:
                key = u2.bit_count()
            if key > best_key:
                best_key = key
                best_bit = low
                best_pool = u2
        stats.adjacency_checks += checks
        return (smask | best_bit if best_bit else 0), best_pool

    return child


def _a_stepper(
    n: int, adj: list[int], outside: list[int], stats: RunStats
) -> Callable[..., tuple[int, int]]:
    """Heuristic a's ``child`` from pool-degree planes (module docstring).

    The winner is the lowest pool vertex of least pool degree, that is of
    most count.  As in ``exact_mis``, ``gone`` holds the removed vertices
    whose pool neighbours the planes have yet to lower: the winner's pool
    neighbours when the call gets the pool the last call returned, else
    every vertex outside the pool (N[S] for a seed S) over a copy of the
    graph's planes.  Bits outside the pool are stale; every read masks them.
    """
    full = (1 << n) - 1
    root = degree_planes(adj)
    planes: list[int] = []
    gone = 0
    last = -1  # the pool that ``planes`` and ``gone`` describe; no pool is negative

    def child(smask: int, pool: int, c: int) -> tuple[int, int]:
        nonlocal planes, gone, last
        width = pool.bit_count()
        stats.heuristic_evals += width
        stats.adjacency_checks += c * (n - c) + width * (c + 1) * (n - c - 1)
        if not pool:
            return 0, 0
        if pool != last:
            planes = root[:]
            gone = full ^ pool
        while gone:
            # each removed vertex lowers its neighbours left in the pool
            y = gone.bit_length() - 1
            gone ^= 1 << y
            s = adj[y] & pool
            i = 0
            while s:
                cur = planes[i]
                planes[i] = cur ^ s
                s &= cur
                i += 1
        cand = pool
        for p in reversed(planes):
            most = cand & p
            if most:
                cand = most
        low = cand & -cand
        v = low.bit_length() - 1
        u2 = pool & outside[v]  # U'
        gone = pool & adj[v]  # lowered by the next call if it gets U'
        last = u2
        return smask | low, u2

    return child


def expand_generation(
    g: Graph, gen: Generation, h: Heuristic, stats: RunStats
) -> Generation:
    """Grow every set of ``gen`` by its best-scoring candidate.

    Sets whose candidate pool is empty contribute nothing; the result is
    deduplicated, keeping first occurrences in parent order.  Scoring and
    pool computations are charged to ``stats``.
    """
    child = _stepper(g, h, stats)
    children = dict.fromkeys(
        child(mask_of(s), mask_of(non_neighbors(g, s)), gen.cardinality)[0] for s in gen.sets
    )
    children.pop(0, None)
    return Generation(tuple(to_vertex_set(c) for c in children), gen.cardinality + 1)


def run_greedy(
    g: Graph, cfg: EngineConfig, *, target: VertexSet | None = None
) -> GreedyResult:
    """Run the greedy family member (cfg.heuristic, cfg.k).

    Without ``target`` the run goes to completion and returns the largest
    cardinality reached, the lexicographically smallest set of that
    cardinality as witness, and the instrumentation of the lockstep
    rounds.  ``target``, a vertex set W of ``g`` (strictly increasing ids,
    else ValueError), seeds the run from the independent k-subsets of W
    before the lexicographic seeds and stops it at the first set of
    cardinality >= len(W), which becomes the witness of a
    ``complete=False`` result with partial counters; a run that never gets
    there is the full run.  Its size is min(full size, max(len(W), k)).
    Deterministic for a fixed graph, config and target.

    ``MAX_SEEDS`` bounds the seeding, not the run: on the edgeless
    ``Graph(n)``, a1 grows n seeds through (n-1)n(n+1)/3 candidate
    evaluations, 21,333,200 at n = 400, which took 0.24 s for a1 and 21 s
    for b1 (2-core Xeon, Python 3.11.7).
    """
    stats = RunStats()
    sizes = stats.generation_sizes
    k = cfg.k
    seeds = _seeds(g, k, target or ())
    first = next(seeds)  # the seeding guards raise before the tables are built
    child = _stepper(g, cfg.heuristic, stats)
    stop = g.n + 1 if target is None else len(target)  # no set exceeds n
    visited: set[int] = set()
    best = (0, ())  # (-c, set) of the best terminal set; any real one sorts first
    for smask, pool in chain((first,), seeds):
        c = k
        while smask not in visited:
            visited.add(smask)
            if c - k == len(sizes):
                sizes.append(0)
            sizes[c - k] += 1
            if c >= stop:
                return GreedyResult(to_vertex_set(smask), stats, complete=False)
            grown, pool = child(smask, pool, c)
            if not grown:
                best = min(best, (-c, to_vertex_set(smask)))
                break
            smask = grown
            c += 1
    return GreedyResult(best[1], stats)
