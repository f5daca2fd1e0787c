"""Exact maximum-independent-set solvers.

`exact_mis` is a branch-and-bound control: branch on a maximum-degree
vertex (include it and delete its closed neighborhood, then exclude it).
A state is pruned when it cannot beat the best set so far: |current| plus
the number of cliques in a greedy clique cover of the remaining vertices
bounds every set below it (an independent set meets each clique at most
once).  The cover has at most |remaining| cliques, so it also makes every
cut of the weaker |current| + |remaining| bound.  It cuts only subtrees
without a strictly larger set, so the witness does not depend on it.
Vertices with at most one remaining neighbor are taken greedily, lowest
first, which is always safe for unweighted independence.  A search state
is the bitmask pair (avail, chosen), and sizes are read from the sets.

Each state also keeps the degree of every vertex within avail, in a list
indexed by vertex (a removed vertex reads 0), and the mask ``pending`` of
the vertices of degree at most 1, so takes and the branch choice never
scan avail for degrees.  A take of t removes t and its neighbor w, if
any, and lowers the degree of each neighbor of w; a vertex that falls to
1 or 0 joins ``pending``.  The branch vertex is the lowest of maximum
degree.  The exclude child takes over its parent's degrees with the
branch vertex cleared and its neighbors lowered by one; only the include
child counts its degrees afresh, in one scan of its avail.

States wait on an explicit stack, so the depth is not limited by Python's
recursion limit.  A stacked state holds one n-entry degree list, 8 bytes
per vertex and level.  An optional budget caps the search nodes (entries
into a search state), so a limited search stops at the same point on
every machine.  `brute_force_mis` scans every subset and exists to
validate the control on small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, VertexSet, mask_of, to_vertex_set

BRUTE_FORCE_LIMIT = 24


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
    number of states the clique cover pruned.
    """
    if max_nodes is not None and max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    adj = g.adj
    zeros = [0] * g.n
    deg = list(map(int.bit_count, adj))
    best_mask = 0
    bound_prunes = 0
    nodes = 1  # search nodes entered so far, the root included
    # states still to search: (avail, chosen, deg, pending)
    stack = [(g.full_mask, 0, deg, mask_of(v for v, d in enumerate(deg) if d <= 1))]
    while stack:
        avail, chosen, deg, pending = stack.pop()
        while avail:
            if pending:
                # take the lowest vertex of degree <= 1, drop its neighbor w
                # if any, and lower the degrees of w's neighbors
                take = pending & -pending
                t = take.bit_length() - 1
                w = adj[t] & avail
                avail ^= take | w
                chosen |= take
                pending &= avail
                deg[t] = 0
                if w:
                    u = w.bit_length() - 1
                    deg[u] = 0
                    nb = adj[u] & avail
                    while nb:
                        x = nb.bit_length() - 1
                        b = 1 << x
                        nb ^= b
                        d = deg[x] - 1
                        deg[x] = d
                        if d <= 1:
                            pending |= b
                continue
            # cover avail by cliques grown from its lowest vertex; stop once
            # the cover needs more cliques than |best| - |chosen|, as it then
            # cannot prune
            spare = best_mask.bit_count() - chosen.bit_count()
            rest = avail
            while rest and spare > 0:
                spare -= 1
                low = rest & -rest
                rest ^= low
                cand = adj[low.bit_length() - 1] & rest
                while cand:
                    low = cand & -cand
                    rest ^= low
                    cand &= adj[low.bit_length() - 1]
            if not rest:
                bound_prunes += 1
                break
            if nodes == max_nodes:
                raise OracleTimeout(f"oracle timed out after {max_nodes} search nodes")
            nodes += 1
            # every degree in avail is >= 2 here and a removed vertex's is
            # 0, so v is the lowest vertex of maximum degree in avail
            v = deg.index(max(deg))
            low = 1 << v
            avail ^= low
            nv = adj[v] & avail
            # exclude child: the parent's degrees, v cleared, N(v) lowered
            deg[v] = 0
            nb = nv
            while nb:
                x = nb.bit_length() - 1
                b = 1 << x
                nb ^= b
                d = deg[x] - 1
                deg[x] = d
                if d <= 1:
                    pending |= b
            stack.append((avail, chosen, deg, pending))
            # include child: one fresh scan of its avail
            avail ^= nv
            chosen |= low
            deg = zeros[:]
            pending = 0
            nb = avail
            while nb:
                x = nb.bit_length() - 1
                b = 1 << x
                nb ^= b
                d = (adj[x] & avail).bit_count()
                deg[x] = d
                if d <= 1:
                    pending |= b
        else:  # avail ran out: a maximal set, not a pruned state
            if chosen.bit_count() > best_mask.bit_count():
                best_mask = chosen
    return OracleResult(to_vertex_set(best_mask), nodes, bound_prunes)


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
