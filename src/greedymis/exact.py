"""Exact maximum-independent-set solvers.

`exact_mis` is a branch-and-bound control: branch on a maximum-degree
vertex, search the child that excludes it first and the child that
includes it (and deletes its closed neighborhood) after.
A state is pruned when it cannot beat the best set so far: |current| plus
the number of cliques in a greedy clique cover of the remaining vertices
bounds every set below it (an independent set meets each clique at most
once).  The cover has at most |remaining| cliques, so it also makes every
cut of the weaker |current| + |remaining| bound.  It cuts only subtrees
without a strictly larger set, so the witness does not depend on it.
Vertices with at most one remaining neighbor are taken greedily, lowest
first, which is always safe for unweighted independence.  A search state
is the bitmask pair (avail, chosen), and sizes are read from the sets.

Each state also keeps the degree of every vertex within avail as
bit-sliced counters, W bitmasks ("planes") laid out by
:func:`greedymis.graph.degree_planes`, in the spirit of the bitboard
clique solvers (San Segundo, Rodriguez-Losada & Jimenez, 2011).  The top
plane is exactly the set of degree at most 1, so the vertices waiting to
be taken are ``avail & planes[-1]``, and lowering the degree of every
vertex of a mask by one is one carry chain of whole-set operations.
Every removal is recorded, not applied: a state keeps ``gone``, the
removed vertices whose neighbors in avail the planes have yet to lower,
and each step first lowers ``adj[u] & avail`` for each u in gone, one
carry chain per u.  A take of t removes t and its neighbor u, if any, and
sets gone to u (t's only neighbor is gone with it); the exclude child of
a branch on v sets it to v; the include child waits on the stack with
N(v) as gone and a copy of its parent's planes.  Any number of removals enter as ``avail ^= r; gone |= r``.  The
branch vertex is the lowest of maximum degree, that is of least count,
found by one top-down scan of the planes.  A removed vertex's bits are
stale and every read masks them off.

Searching the exclude child first makes the first descent a greedy set:
it keeps deleting a vertex of largest degree until the takes of degree
<= 1 finish the set, where an include-first descent adds a vertex of
largest degree at each branch, the worst greedy choice.  The cover
prunes only against the best set so far, so a good one early is worth
much of the tree.

The search starts with one vertex, bit 0, as its best set, which every
graph with a vertex has.  The root's cover then prunes a complete graph
at once, one node, where the exclude-first descent would branch down to
its last edge (n - 1 nodes).

A graph of at least RELABEL_MIN_N = 50 vertices is searched relabelled
in smallest-last order (Matula & Beck, 1983): repeatedly remove a vertex
of least remaining degree, the lowest id on ties; vertex order[i], the
i-th removed, becomes bit i.  The search runs unchanged on the permuted
masks and the witness is mapped back.  Every "lowest vertex first" of
the search (the take, the cover's growth, the branch tie) then starts
from the sparse end of the graph, which cuts the total nodes.  The
order and the permuted masks cost O(n + m) per call, which below n = 50
outweighs the nodes saved; there the search is the plain one, node for
node.

The cover grows one clique past the |best| - |chosen| cliques that
prune.  Each clique is grown greedily from the lowest vertex left, so
where that extra clique empties what is left, its growth proves the rest
one clique, and the cover misses the bound by exactly one: a larger set
takes one vertex of each clique, none adjacent.  As in MaxCLQ (Li & Quan, 2010),
each vertex of a smallest clique of that same cover is tried by unit
propagation (:func:`_refuted`); if all conflict, the state is pruned and
counted in bound_prunes (BENCH_31.json).

The nodes and per-call times behind these rules are in BENCH_22.json
(``oracle_per_call``: exclude first against include first;
``relabel_per_call``: relabelled against plain, per n) and in
BENCH_21.json (the relabel's nodes and its threshold).

States wait on an explicit stack, so the depth is not limited by Python's
recursion limit.  A stacked state holds its masks avail, chosen and gone
and W planes, W = O(log(max degree)).  An optional budget caps the search
nodes (the root and one per branch), so a limited search stops at the
same point on every machine.  `brute_force_mis` scans every subset and exists to
validate the control on small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, VertexSet, _is_int, bits_of, degree_planes, mask_of, to_vertex_set

BRUTE_FORCE_LIMIT = 24
RELABEL_MIN_N = 50  # smallest n searched in smallest-last order; see the module docstring


@dataclass(frozen=True)
class OracleResult:
    witness: VertexSet  # a maximum independent set
    # search counters of exact_mis; results compare by witness alone
    nodes: int = field(default=0, compare=False)
    bound_prunes: int = field(default=0, compare=False)  # cuts by the clique cover

    @property
    def alpha(self) -> int:
        return len(self.witness)


class OracleTimeout(Exception):
    """The exact oracle exceeded its search-node budget."""


def exact_mis(g: Graph, max_nodes: int | None = None) -> OracleResult:
    """Independence number of ``g`` with a maximum witness set.

    With ``max_nodes`` set, entering search node ``max_nodes + 1`` raises
    OracleTimeout.  The node count depends on the graph, not the machine;
    the result carries it as ``nodes``, next to ``bound_prunes``, the
    number of states the clique cover pruned, by its count or by
    propagation on a cover that misses by one clique.
    """
    if max_nodes is not None and (not _is_int(max_nodes) or max_nodes < 1):
        raise ValueError(f"max_nodes must be >= 1 and an int, got {max_nodes!r}")
    adj = g.adj
    order = None
    if g.n >= RELABEL_MIN_N:
        # search the graph with vertex order[i] as bit i
        order = _smallest_last(adj)
        bit = [0] * g.n
        for i, v in enumerate(order):
            bit[v] = 1 << i
        relabelled = []
        for v in order:
            a = adj[v]
            row = 0
            while a:
                low = a & -a
                a ^= low
                row |= bit[low.bit_length() - 1]
            relabelled.append(row)
        adj = relabelled
    planes = _degree_planes(adj)
    best_mask = g.full_mask & 1  # one vertex: a set to beat from the root on
    bound_prunes = 0
    nodes = 1  # search nodes entered so far, the root included
    # states still to search: avail, chosen, planes, and the vertices whose
    # neighbors in avail the planes have yet to lower
    stack = [(g.full_mask, 0, planes, 0)]
    while stack:
        avail, chosen, planes, gone = stack.pop()
        while avail:
            while gone:
                # each removed vertex lowers its neighbors left in avail
                u = gone.bit_length() - 1
                gone ^= 1 << u
                s = adj[u] & avail
                i = 0
                while s:
                    c = planes[i]
                    planes[i] = c ^ s
                    s &= c
                    i += 1
            pending = avail & planes[-1]
            if pending:
                # take the lowest vertex of degree <= 1 and drop its
                # neighbor if any, whose removal the next step applies
                take = pending & -pending
                nu = adj[take.bit_length() - 1] & avail
                avail ^= take | nu
                chosen |= take
                gone = nu
                continue
            # cover avail by cliques grown from its lowest vertex, one past
            # the |best| - |chosen| that would prune; rests[i] is what the
            # i-th clique is grown from
            spare = best_mask.bit_count() - chosen.bit_count()
            rest = avail
            rests = []
            while rest and spare >= 0:
                rests.append(rest)
                spare -= 1
                low = rest & -rest
                rest ^= low
                cand = adj[low.bit_length() - 1] & rest
                while cand:
                    low = cand & -cand
                    rest ^= low
                    cand &= adj[low.bit_length() - 1]
            if not rest and (spare >= 0 or _refuted(adj, rests)):
                # the cover fits the bound, or misses it by its last clique
                # and no larger set meets every clique once
                bound_prunes += 1
                break
            if nodes == max_nodes:
                raise OracleTimeout(f"oracle timed out after {max_nodes} search nodes")
            nodes += 1
            # keep the vertices of least count, plane by plane from the top
            cand = avail
            for p in reversed(planes):
                least = cand & ~p
                if least:
                    cand = least
            low = cand & -cand
            avail ^= low
            nv = adj[low.bit_length() - 1] & avail
            # include child, searched later: a copy of the parent's planes,
            # with N(v) removed
            stack.append((avail ^ nv, chosen | low, planes[:], nv))
            # exclude child, searched now, with v removed
            gone = low
        else:  # avail ran out: a maximal set, not a pruned state
            if chosen.bit_count() > best_mask.bit_count():
                best_mask = chosen
    if order is not None:
        best_mask = mask_of(order[i] for i in bits_of(best_mask))
    return OracleResult(to_vertex_set(best_mask), nodes, bound_prunes)


def _refuted(adj: list[int], rests: list[int]) -> bool:
    """True when no independent set meets each clique of the cover once.

    Clique i is ``rests[i] ^ rests[i + 1]`` and the last is ``rests[-1]``;
    the search grew each from the lowest vertex of its ``rests`` entry.
    A forced vertex deletes its neighbors from the other cliques, a clique
    cut down to one vertex is forced, and an emptied clique or two adjacent
    forced vertices is a conflict.
    """
    cliques = [rests[-1]]
    cliques += [a ^ b for a, b in zip(rests, rests[1:])]
    small = min(cliques, key=int.bit_count)
    cliques.remove(small)
    while small:
        v = small & -small
        small ^= v
        keep_mask = ~adj[v.bit_length() - 1]
        left = cliques
        while True:
            units = 0
            keep = []
            for c in left:
                c &= keep_mask
                if not c:
                    break
                if c & (c - 1):
                    keep.append(c)
                else:
                    units |= c
            else:
                if not units:
                    return False  # v's literal propagates without a conflict
                drop = 0
                u = units
                while u:
                    low = u & -u
                    u ^= low
                    drop |= adj[low.bit_length() - 1]
                if not drop & units:
                    keep_mask = ~drop
                    left = keep
                    continue
            break  # a conflict: no larger set takes v
    return True


def _degree_planes(adj: list[int]) -> list[int]:
    """The bit-sliced degree counters of every vertex of ``adj``."""
    deg = list(map(int.bit_count, adj))
    by_degree = [0] * (max(deg, default=0) + 1)
    for v, d in enumerate(deg):
        by_degree[d] |= 1 << v
    return degree_planes(by_degree)


def _smallest_last(adj: list[int]) -> list[int]:
    """Vertices in the order of repeatedly removing one of least remaining degree.

    Ties go to the lowest id.  The remaining degrees are kept as the
    search keeps them: the next vertex is the lowest of greatest count,
    found by one top-down scan of the planes, and a removal lowers its
    remaining neighbors with one carry chain.
    """
    planes = _degree_planes(adj)
    left = (1 << len(adj)) - 1
    order = []
    while left:
        cand = left
        for p in reversed(planes):
            most = cand & p
            if most:
                cand = most
        low = cand & -cand
        left ^= low
        v = low.bit_length() - 1
        order.append(v)
        s = adj[v] & left
        i = 0
        while s:
            c = planes[i]
            planes[i] = c ^ s
            s &= c
            i += 1
    return order


def brute_force_mis(g: Graph) -> OracleResult:
    """Exhaustive subset scan; refuses n > BRUTE_FORCE_LIMIT."""
    n = g.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_LIMIT}, got {n}")
    adj = g.adj
    independent = bytearray(1 << n)
    independent[0] = 1
    best_size = 0
    best_mask = 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        if independent[rest] and not adj[low.bit_length() - 1] & rest:
            independent[mask] = 1
            size = mask.bit_count()
            if size > best_size:
                best_size = size
                best_mask = mask
    return OracleResult(to_vertex_set(best_mask))
