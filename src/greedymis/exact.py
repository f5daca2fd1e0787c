"""Exact maximum-independent-set solvers.

`exact_mis` is a branch-and-bound control: branch on a maximum-degree
vertex (include it and delete its closed neighborhood, then exclude it).
A state is pruned when it cannot beat the best set so far: |current| plus
the number of cliques in a greedy clique cover of the remaining vertices
bounds every set below it (an independent set meets each clique at most
once).  The cover has at most |remaining| cliques, so it also makes every
cut of the weaker |current| + |remaining| bound.  It cuts only subtrees
without a strictly larger set, so the witness does not depend on it.
Vertices with at most one remaining neighbor are taken greedily, which is
always safe for unweighted independence.  A search state is the bitmask
pair (avail, chosen), and sizes are read from the sets.  States wait on
an explicit stack, so the depth is not limited by Python's recursion
limit.  An optional budget caps the search nodes (entries into a search
state), so a limited search stops at the same point on every machine.
`brute_force_mis` scans every subset and exists to validate the control
on small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, VertexSet, to_vertex_set

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
    closed = [a | (1 << v) for v, a in enumerate(adj)]
    best_mask = 0
    bound_prunes = 0
    nodes = 1  # search nodes entered so far, the root included
    stack = [(g.full_mask, 0)]  # states still to search: (avail, chosen)
    while stack:
        avail, chosen = stack.pop()
        while avail:
            # one scan: take any degree<=1 vertex, else remember the max-degree one
            take = 0
            branch_v = -1
            branch_deg = -1
            mm = avail
            while mm:
                low = mm & -mm
                mm ^= low
                v = low.bit_length() - 1
                d = (adj[v] & avail).bit_count()
                if d <= 1:
                    take = low
                    break
                if d > branch_deg:
                    branch_deg = d
                    branch_v = v
            if take:
                chosen |= take
                avail &= ~closed[take.bit_length() - 1]
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
            low = 1 << branch_v
            stack.append((avail ^ low, chosen))
            avail, chosen = avail & ~closed[branch_v], chosen | low
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
