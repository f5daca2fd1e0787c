"""Exact maximum-independent-set solvers.

`exact_mis` is a branch-and-bound control: branch on a maximum-degree
vertex (exclude it, or include it and delete its closed neighborhood),
prune on the trivial |remaining| + |current| bound.  Vertices with at
most one remaining neighbor are taken greedily, which is always safe for
unweighted independence.  An optional budget caps the search nodes (calls
of the recursion), so a limited search stops at the same point on every
machine.  `brute_force_mis` scans every subset and exists to validate the
control on small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, VertexSet, to_vertex_set

BRUTE_FORCE_LIMIT = 24


@dataclass(frozen=True)
class OracleResult:
    witness: VertexSet  # a maximum independent set

    @property
    def alpha(self) -> int:
        return len(self.witness)


class OracleTimeout(Exception):
    """The exact oracle exceeded its search-node budget."""


def exact_mis(g: Graph, max_nodes: int | None = None) -> OracleResult:
    """Independence number of ``g`` with a maximum witness set.

    With ``max_nodes`` set, entering search node ``max_nodes + 1`` raises
    OracleTimeout.  The node count depends on the graph, not the machine.
    """
    if max_nodes is not None and max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    adj = g.adj
    closed = [a | (1 << v) for v, a in enumerate(adj)]
    best_size = 0
    best_mask = 0
    budget = -1 if max_nodes is None else max_nodes  # counts down; -1 never hits 0

    def visit(avail: int, size: int, chosen: int) -> None:
        nonlocal best_size, best_mask, budget
        if budget == 0:
            raise OracleTimeout(f"oracle timed out after {max_nodes} search nodes")
        budget -= 1
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
                size += 1
                chosen |= take
                avail &= ~closed[take.bit_length() - 1]
                continue
            if size + avail.bit_count() <= best_size:
                return
            low = 1 << branch_v
            visit(avail & ~closed[branch_v], size + 1, chosen | low)
            avail ^= low
        if size > best_size:
            best_size = size
            best_mask = chosen

    visit(g.full_mask, 0, 0)
    return OracleResult(to_vertex_set(best_mask))


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
