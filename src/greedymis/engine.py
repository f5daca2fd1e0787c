"""The greedy algorithm family.

A run starts from every independent k-subset of the graph and grows all
sets in lockstep rounds: each set scores every vertex of its candidate
pool with the configured heuristic, adopts the best one (ties broken
toward the lowest vertex id), and sets that cannot grow drop out.  The
run ends when no set can grow; the answer is the cardinality reached.

Instrumentation counters charge a fixed machine-independent cost model:
computing the common non-neighbors of a c-set costs c*(n-c) adjacency
checks, and a heuristic-b scoring additionally charges |U'|**2 checks for
induced degrees plus |U'| for evaluating the stability terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .graph import Graph, VertexSet, mask_of, to_vertex_set
from .heuristics import Heuristic, stability_weights


class NoSeedSetsError(Exception):
    """No independent set of the requested initial cardinality exists."""

    def __init__(self, k: int) -> None:
        super().__init__(f"no independent set of cardinality {k} exists")
        self.k = k


@dataclass(frozen=True)
class EngineConfig:
    """One family member: heuristic plus initial cardinality, e.g. a1 or b2."""

    heuristic: Heuristic
    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"initial cardinality must be >= 1, got {self.k}")

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
    rounds: int = 0
    heuristic_evals: int = 0
    adjacency_checks: int = 0
    generation_sizes: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class GreedyResult:
    size: int
    witness: VertexSet
    stats: RunStats


def initial_generation(g: Graph, k: int) -> Generation:
    """All independent k-subsets of V(g) in lexicographic order."""
    if k < 1:
        raise ValueError(f"initial cardinality must be >= 1, got {k}")
    adj = g.adj
    sets = []
    for combo in combinations(range(g.n), k):
        blocked = 0
        for v in combo:
            if blocked >> v & 1:
                break
            blocked |= adj[v]
        else:
            sets.append(combo)
    if not sets:
        raise NoSeedSetsError(k)
    return Generation(tuple(sets), k)


def _expand_masks(
    g: Graph, masks: list[int], cardinality: int, h: Heuristic, stats: RunStats
) -> list[int]:
    """One growth round over set bitmasks; returns deduplicated children.

    Children appear in parent order with first occurrence kept, so the
    round is deterministic for a fixed input order.
    """
    n = g.n
    adj = g.adj
    nadj = [~a for a in adj]
    full = g.full_mask
    c = cardinality
    pool_cost = c * (n - c)
    score_cost = (c + 1) * (n - c - 1)
    use_b = h is Heuristic.B
    weights = stability_weights(n)[1] if use_b else ()
    w0 = weights[0] if use_b else 0
    evals = 0
    checks = 0
    seen: set[int] = set()
    children: list[int] = []
    for smask in masks:
        blocked = smask
        mm = smask
        while mm:
            low = mm & -mm
            mm ^= low
            blocked |= adj[low.bit_length() - 1]
        checks += pool_cost
        pool = full & ~blocked
        if not pool:
            continue
        width = pool.bit_count()
        evals += width
        checks += width * score_cost
        best_key = -1
        best_bit = 0
        mm = pool
        if use_b:
            while mm:
                low = mm & -mm
                mm ^= low
                u2 = (pool & nadj[low.bit_length() - 1]) ^ low
                o = u2.bit_count()
                checks += o * o + o
                # keys are capped by the edgeless value o*o*w0; skipping
                # candidates that cannot beat the incumbent never changes
                # the selection (counters above are charged regardless)
                if o * o * w0 <= best_key:
                    continue
                total = 0
                m2 = u2
                while m2:
                    l2 = m2 & -m2
                    m2 ^= l2
                    total += weights[(adj[l2.bit_length() - 1] & u2).bit_count()]
                key = o * total
                if key > best_key:
                    best_key = key
                    best_bit = low
        else:
            while mm:
                low = mm & -mm
                mm ^= low
                key = (pool & nadj[low.bit_length() - 1]).bit_count() - 1
                if key > best_key:
                    best_key = key
                    best_bit = low
        child = smask | best_bit
        if child not in seen:
            seen.add(child)
            children.append(child)
    stats.heuristic_evals += evals
    stats.adjacency_checks += checks
    return children


def expand_generation(
    g: Graph, gen: Generation, h: Heuristic, stats: RunStats
) -> Generation:
    """Grow every set of ``gen`` by its best-scoring candidate.

    Sets whose candidate pool is empty contribute nothing; the result is
    deduplicated.  Scoring and pool computations are charged to ``stats``.
    """
    masks = [mask_of(s) for s in gen.sets]
    children = _expand_masks(g, masks, gen.cardinality, h, stats)
    return Generation(
        tuple(to_vertex_set(c) for c in children), gen.cardinality + 1
    )


def run_greedy(g: Graph, cfg: EngineConfig) -> GreedyResult:
    """Run the greedy family member (cfg.heuristic, cfg.k) to completion.

    Returns the cardinality of the last nonempty generation, its
    lexicographically smallest member as witness, and the accumulated
    instrumentation.  Deterministic for a fixed graph and config.
    """
    gen = initial_generation(g, cfg.k)
    stats = RunStats()
    stats.generation_sizes.append(len(gen.sets))
    masks = [mask_of(s) for s in gen.sets]
    cardinality = cfg.k
    while True:
        children = _expand_masks(g, masks, cardinality, cfg.heuristic, stats)
        if not children:
            break
        masks = children
        cardinality += 1
        stats.rounds += 1
        stats.generation_sizes.append(len(children))
    witness = min(to_vertex_set(m) for m in masks)
    return GreedyResult(cardinality, witness, stats)
