"""Exact solvers: branch-and-bound control vs exhaustive validation oracle."""

import hashlib
import itertools
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedymis import (
    Graph,
    OracleResult,
    OracleTimeout,
    brute_force_mis,
    derive_seed,
    exact_mis,
    random_gnm,
)
from greedymis import exact
from greedymis.exact import RELABEL_MIN_N, _smallest_last
from reference import (
    REFERENCE_ALPHA_DIGEST,
    SplitMix64,
    alpha_digest,
    clique_alpha,
    complete,
    is_independent,
    plane_width_graphs,
)

PETERSEN = Graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def disjoint_triangles(k):
    return Graph(3 * k, [e for t in range(0, 3 * k, 3)
                         for e in ((t, t + 1), (t + 1, t + 2), (t, t + 2))])


def prism(o):
    """The prism on o..o+5: triangles {o, o+2, o+4} and {o+1, o+3, o+5},
    matched by (o, o+1), (o+2, o+3) and (o+4, o+5)."""
    return [(o, o + 1), (o + 2, o + 3), (o + 4, o + 5), (o, o + 2), (o, o + 4),
            (o + 2, o + 4), (o + 1, o + 3), (o + 1, o + 5), (o + 3, o + 5)]


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@st.composite
def dense_graphs(draw, max_n=16):
    """Graphs of at most ``max_n`` vertices missing at most a quarter of
    their vertex pairs, complete ones included."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    missing = set(draw(st.lists(st.sampled_from(pairs), unique=True,
                                max_size=len(pairs) // 4))) if pairs else set()
    return Graph(n, [p for p in pairs if p not in missing])


@st.composite
def padded(draw, max_n=12):
    """``(g, slot, big)``: a small graph ``g`` whose vertex v is ``slot[v]``
    of ``big``, which has at least RELABEL_MIN_N vertices; the vertices
    ``slot[g.n:]`` of ``big`` are isolated."""
    g = draw(graphs(max_n))
    slot = draw(st.permutations(range(draw(st.integers(RELABEL_MIN_N, RELABEL_MIN_N + 14)))))
    return g, slot, Graph(len(slot), [(slot[u], slot[v]) for u, v in g.edges])


class TestExactMis:
    def test_edgeless(self):
        res = exact_mis(Graph(9))
        assert res.alpha == 9 and res.witness == tuple(range(9))

    def test_complete(self):
        assert exact_mis(complete(7)).alpha == 1
        # the search starts with vertex 0 as its best set, so the root's
        # cover, one clique, prunes K_n at once: one node, one prune
        for n in (3, 7, 25):
            res = exact_mis(complete(n))
            assert (res.witness, res.nodes, res.bound_prunes) == ((0,), 1, 1)

    def test_cycle(self):
        assert exact_mis(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])).alpha == 2

    def test_petersen(self):
        res = exact_mis(PETERSEN)
        assert res.alpha == 4
        assert is_independent(PETERSEN, res.witness)

    def test_empty_graph(self):
        assert exact_mis(Graph(0)).alpha == 0
        assert exact_mis(Graph(0), max_nodes=1).witness == ()


class TestSearchOrder:
    def test_petersen_is_searched_exclude_first(self):
        # Every vertex has degree 3.  Node 2 branches on 0 and stacks {0}
        # for later; node 3 branches on 2, now the lowest of degree 3, and
        # stacks {2}.  Excluding 2 leaves 1 with one neighbour, 6: take 1,
        # drop 6, which leaves the 6-cycle 3-4-9-7-5-8.  Node 4 branches on
        # 3 and stacks {1, 3}; excluding 3 leaves the path 4-9-7-5-8, taken
        # as 4, 7 and 8, so the first leaf is {1, 4, 7, 8}.  The stacked
        # {1, 3} and {2} end in leaves of size 4 by takes alone, {1, 3, 5, 9}
        # and {2, 4, 5, 6}, no larger.  The stacked {0} leaves the 6-cycle
        # 2-3-8-6-9-7, which the cover {2, 3}, {6, 8}, {7, 9} prunes: 1 + 3
        # cannot beat 4.  Searched include first, the same graph took 5
        # nodes, pruned nothing and returned {0, 2, 8, 9}.
        res = exact_mis(PETERSEN)
        assert (res.witness, res.nodes, res.bound_prunes) == ((1, 4, 7, 8), 4, 1)


class TestNodeBudget:
    def test_complete_graph_boundary(self):
        # K5: the search starts with {0} as its best set.  The root has no
        # vertex of degree <= 1 to take, and its cover grows one clique from
        # 0 that holds all five vertices: 0 + 1 cannot beat 1, so the root
        # is pruned before it branches.  The root is the only node, and the
        # smallest budget, 1, finishes the search
        res = exact_mis(complete(5))
        assert (res.witness, res.nodes, res.bound_prunes) == ((0,), 1, 1)
        assert exact_mis(complete(5), max_nodes=1).alpha == 1
        with pytest.raises(ValueError, match="max_nodes must be >= 1"):
            exact_mis(complete(5), max_nodes=0)
        # the Petersen graph takes 4 nodes (TestSearchOrder's trace): a
        # budget of 4 finishes it, and 3 stops it on entering node 4
        assert exact_mis(PETERSEN, max_nodes=4).alpha == 4
        with pytest.raises(OracleTimeout, match="after 3 search nodes"):
            exact_mis(PETERSEN, max_nodes=3)

    def test_edgeless_needs_one_node(self):
        assert exact_mis(Graph(9), max_nodes=1).alpha == 9

    def test_finished_search_is_unchanged(self):
        rng = SplitMix64(77)
        for _ in range(40):
            n = 10 + rng.below(21)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), seed=rng.next_u64())
            full = exact_mis(g)
            # full.nodes is exactly the smallest budget that finishes
            for budget in (1, 10, 100, max(full.nodes - 1, 1), full.nodes, 10**6):
                try:
                    res = exact_mis(g, max_nodes=budget)
                except OracleTimeout:
                    assert budget < full.nodes
                    continue
                assert res == full
                assert (res.nodes, res.bound_prunes) == (full.nodes, full.bound_prunes)
                assert res.nodes <= budget

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_rejects_budget_below_one(self, bad):
        with pytest.raises(ValueError):
            exact_mis(Graph(3), max_nodes=bad)


class TestSearchCounters:
    def test_counters_do_not_take_part_in_equality(self):
        assert OracleResult((0, 2), nodes=5, bound_prunes=1) == OracleResult((0, 2))
        assert brute_force_mis(Graph(3)) == exact_mis(Graph(3))
        assert (brute_force_mis(Graph(3)).nodes, exact_mis(Graph(3)).nodes) == (0, 1)


class TestCliqueCover:
    def test_disjoint_triangles_solve_within_a_small_budget(self):
        # the size bound alone sees 3 vertices per triangle and branches
        # through a tree of more than 10**6 nodes; one clique per triangle
        # prunes every include branch once the first descent has a set
        res = exact_mis(disjoint_triangles(20), max_nodes=100)
        assert res.alpha == 20
        assert (res.nodes, res.bound_prunes) == (21, 19)

    def test_search_deeper_than_the_recursion_limit(self):
        # 1001 branches in a row: deeper than Python's default
        # recursion limit, which a recursive search could not reach
        g = disjoint_triangles(1001)
        res = exact_mis(g, max_nodes=2000)
        assert res.alpha == 1001
        assert sorted(v // 3 for v in res.witness) == list(range(1001))
        assert (res.nodes, res.bound_prunes) == (1002, 1000)

    def test_deep_stack_memory(self):
        # the first descent branches once per triangle, at nodes 2..1002, so
        # the budget stops it before its last branch with 1000 include
        # states stacked.  Each holds two planes of 3003 bits besides its
        # masks; one 3003-entry degree list per state took 23.9 MiB.  (The
        # whole solve is far slower traced.)
        g = disjoint_triangles(1001)
        tracemalloc.start()
        try:
            with pytest.raises(OracleTimeout, match="after 1001 search nodes"):
                exact_mis(g, max_nodes=1001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


class TestPropagation:
    def test_two_prisms_are_refuted_where_the_cover_branches(self):
        # Prisms on 0..5 and 6..11.  The first descent reaches the leaf
        # {1, 2, 7, 8} at node 5.  The include child of node 3's branch on 3
        # takes 4, and that of node 2's branch on 0 takes 3, and each leaves
        # the second prism with 2 chosen: two spare cliques.  The cover
        # {6, 7}, {8, 9} leaves {10, 11}, one more clique, so a set of 5 must
        # take one vertex of each.  Taking 10 drops 6 and 8 and forces 7 and
        # 9, which are adjacent; taking 11 forces 6 and 8, also adjacent:
        # both states are pruned.  Without the cut each branches on 6 (nodes
        # 6 and 7), whose exclude child the cover prunes
        g = Graph(12, prism(0) + prism(6))
        res = exact_mis(g)
        assert (res.witness, res.nodes, res.bound_prunes) == ((1, 2, 7, 8), 5, 2)
        with patch.object(exact, "_refuted", lambda *args: False):
            plain = exact_mis(g)
        assert (plain.witness, plain.nodes, plain.bound_prunes) == (res.witness, 7, 2)

    def test_refuted_reads_a_clique_cover_of_what_was_left(self):
        # _refuted takes clique i as rests[i] ^ rests[i + 1] and the last as
        # rests[-1]: each must be a clique grown from the lowest vertex of
        # its rests entry, and together they must partition rests[0]
        calls = []

        def checked(adj, rests):
            cliques = [a ^ b for a, b in zip(rests, rests[1:])] + [rests[-1]]
            union = 0
            for r, c in zip(rests, cliques):
                assert c & r & -r
                assert not c & union
                union |= c
                while c:
                    low = c & -c
                    c ^= low
                    assert adj[low.bit_length() - 1] & c == c
            assert union == rests[0]
            calls.append(len(rests))
            return refuted(adj, rests)

        refuted = exact._refuted
        with patch.object(exact, "_refuted", checked):
            for n in (20, 30, 40, 50, 60, 70, 80):
                for m in (4 * n, min(10 * n, n * (n - 1) // 2)):
                    for r in range(2):
                        g = random_gnm(n, m, seed=derive_seed(32, n, m, r))
                        assert is_independent(g, exact_mis(g).witness)
        assert len(calls) >= 500 and max(calls) >= 10, (len(calls), max(calls))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(8, 44), st.integers(5, 12), st.integers(0, 2**64 - 1))
    def test_cut_moves_no_witness(self, n, per_vertex, seed):
        # against the search without the cut, on dense graphs where it fires
        g = random_gnm(n, min(per_vertex * n, n * (n - 1) // 2), seed=seed)
        res = exact_mis(g)
        with patch.object(exact, "_refuted", lambda *args: False):
            plain = exact_mis(g)
        assert res.witness == plain.witness and res.nodes <= plain.nodes
        assert res.alpha == (brute_force_mis(g).alpha if n <= 20 else clique_alpha(g))


class TestPlaneWidths:
    @pytest.mark.parametrize("name, g", list(plane_width_graphs()))
    def test_exact_matches_both_references(self, name, g):
        res = exact_mis(g)
        assert res.alpha == clique_alpha(g), name
        assert is_independent(g, res.witness)
        if g.n <= 16:
            assert res.alpha == brute_force_mis(g).alpha, name


class TestSmallestLast:
    @settings(max_examples=150, deadline=None)
    @given(graphs(24))
    def test_removes_the_lowest_vertex_of_least_remaining_degree(self, g):
        order = _smallest_last(g.adj)
        assert sorted(order) == list(range(g.n))
        left = set(range(g.n))
        for v in order:
            deg = {u: sum(g.adjacent(u, w) for w in left) for u in left}
            least = min(deg.values())
            assert v == min(u for u in left if deg[u] == least)
            left.remove(v)


class TestRelabel:
    """Graphs of n >= RELABEL_MIN_N are searched relabelled, witness mapped back."""

    @settings(max_examples=60, deadline=None)
    @given(padded())
    def test_padded_alpha_is_brute_force_plus_padding(self, case):
        g, slot, big = case
        res = exact_mis(big)
        assert res.alpha == brute_force_mis(g).alpha + big.n - g.n
        assert is_independent(big, res.witness)
        # a maximum set holds every isolated vertex
        assert set(slot[g.n:]) <= set(res.witness)

    @pytest.mark.parametrize("name, g", list(plane_width_graphs(pad=RELABEL_MIN_N)))
    def test_padded_plane_width_graphs(self, name, g):
        small = Graph(g.n - RELABEL_MIN_N, g.edges)
        res = exact_mis(g)
        assert res.alpha == clique_alpha(small) + RELABEL_MIN_N, name
        assert is_independent(g, res.witness)
        assert set(range(small.n, g.n)) <= set(res.witness)

    def test_union_of_brute_forceable_graphs(self):
        # four G(13, m), part k's vertex u at id 31 * (13k + u) mod 52, so the
        # parts interleave: alpha adds over the components
        rng = SplitMix64(50)
        for _ in range(6):
            parts = [random_gnm(13, rng.below(79), seed=rng.next_u64()) for _ in range(4)]
            edges = [(31 * (13 * k + u) % 52, 31 * (13 * k + v) % 52)
                     for k, p in enumerate(parts) for u, v in p.edges]
            g = Graph(52, edges)
            res = exact_mis(g)
            assert res.alpha == sum(brute_force_mis(p).alpha for p in parts)
            assert is_independent(g, res.witness)


class TestBruteForce:
    def test_edgeless(self):
        assert brute_force_mis(Graph(3)).alpha == 3
        assert brute_force_mis(Graph(0)).witness == ()

    def test_path_six(self):
        assert brute_force_mis(Graph(6, [(i, i + 1) for i in range(5)])).alpha == 3

    def test_cycle(self):
        assert brute_force_mis(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])).alpha == 2

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            brute_force_mis(Graph(25))


class TestAgreement:
    @settings(max_examples=80, deadline=None)
    @given(dense_graphs())
    def test_exact_matches_brute_force_on_dense_graphs(self, g):
        # the first descent runs longest without a set to prune against here
        res = exact_mis(g)
        assert res.alpha == brute_force_mis(g).alpha
        assert is_independent(g, res.witness)

    def test_exact_matches_brute_force_on_seeded_sweep(self):
        rng = SplitMix64(404)
        for _ in range(300):
            n = 4 + rng.below(13)
            m = rng.below(n * (n - 1) // 2 + 1)
            g = random_gnm(n, m, seed=rng.next_u64())
            a, b = exact_mis(g), brute_force_mis(g)
            assert a.alpha == b.alpha, g
            for res in (a, b):
                assert len(res.witness) == res.alpha
                assert is_independent(g, res.witness)

    def test_exact_matches_brute_force_where_the_cover_prunes(self):
        pruned = 0
        for n in (18, 19, 20):
            for m in (2 * n, 4 * n, 8 * n):
                for r in range(2):
                    g = random_gnm(n, m, seed=derive_seed(18, n, m, r))
                    res = exact_mis(g)
                    assert res.alpha == brute_force_mis(g).alpha, g
                    assert is_independent(g, res.witness)
                    pruned += res.bound_prunes > 0
        assert pruned >= 9

    def test_complement_clique_duality(self):
        # alpha(G) equals the largest clique of the complement, re-derived
        # here by direct subset scan
        def max_clique_size(g):
            best = 0
            for r in range(g.n, 0, -1):
                for combo in itertools.combinations(range(g.n), r):
                    if all(g.adjacent(u, v) for u, v in itertools.combinations(combo, 2)):
                        return r
            return best

        rng = SplitMix64(11)
        for _ in range(25):
            n = 4 + rng.below(9)  # up to n=12
            m = rng.below(n * (n - 1) // 2 + 1)
            g = random_gnm(n, m, seed=rng.next_u64())
            complement = Graph(
                n,
                [p for p in itertools.combinations(range(n), 2) if not g.adjacent(*p)],
            )
            assert exact_mis(g).alpha == max_clique_size(complement)

    def test_exact_matches_the_recorded_reference_at_n60(self):
        # 72 graphs at n = 60, where clique_alpha takes about 0.5 s a graph;
        # tools/alpha_digest.py recorded the digest from clique_alpha
        assert alpha_digest(lambda g: exact_mis(g).alpha) == REFERENCE_ALPHA_DIGEST

    def test_exact_matches_the_clique_reference_above_brute_force(self):
        # 45 graphs, n = 25..45 at m = n, 4n and C(n,2)/2, against a search
        # that shares no code with exact_mis; alpha only, not the witness
        for n in (25, 30, 35, 40, 45):
            for m in (n, 4 * n, n * (n - 1) // 4):
                for r in range(3):
                    g = random_gnm(n, m, seed=derive_seed(25, n, m, r))
                    assert exact_mis(g).alpha == clique_alpha(g), (n, m, r)


# SHA-256 of exact_mis witnesses over seeded G(n, m) cells, n beyond the
# brute-force range, so a bound or reordering that moves a single witness
# fails here rather than only against a rerun of itself.  Each digest was
# recorded from an earlier search and re-recorded only where the search
# order changed: the n >= 50 cells for the smallest-last relabel, then
# every cell when the exclude child began to be searched first.  Each time,
# every moved witness was checked against the previous search to be
# independent and of the old size, and the second time also against
# tests/reference.py::clique_alpha.
GOLDEN_WITNESSES = {
    (20, 80, 50): "663927f2424a9f85e47bc743c7821375a61ad7b8d6a429dca55dd532d7bc03d7",
    (30, 120, 40): "100fc512ef0d6afb468453e922121c3ab446663c1ce9bc13fdc46ebbf277b993",
    (40, 160, 30): "5588caef24d8500642058becdb6a0c95bc1926a98d3d3975f60be68f312b9b92",
    (60, 240, 12): "953cd8ae95bdff043a7021afb963e0f1b71661a4d1431d91648f652800f88194",
    (80, 320, 6): "1d4e6548e7072acca74a4b3eb0dfaf06b87cd6d8b9b296f88a310d57ffb725b1",
    (30, 217, 20): "491913332e52476e61d632504121b832e69d76692109aa0e8388e4352f205f0f",
    (40, 390, 12): "a78929a88e483675b8a3dc313b46f20092193e7e4104c4ab1f2fad0dcf06a456",
    (50, 600, 10): "1e50bb5ad838b4693665fdac179dd609236492dc6e2c8d9e42b104bf69c4f37f",
    (40, 40, 20): "905a68d044acee7eeef070fcaa00bc3932610a1a15fb3b08f8e8dc3bd08afb22",
    (60, 90, 12): "99aa40323018887eb53b8270889e011c83714d4abc8d63e6b46ca53a0eecdc78",
    (60, 120, 12): "5309fb7a5f3a7613258c04b7487af52d91bd7e0f38c4ecf20a92948c222cddc4",
}


@pytest.mark.parametrize("n, m, runs", sorted(GOLDEN_WITNESSES))
def test_golden_witnesses(n, m, runs):
    h = hashlib.sha256()
    for r in range(runs):
        g = random_gnm(n, m, seed=derive_seed(10, n, m, r))
        h.update(f"{r}:{','.join(map(str, exact_mis(g).witness))}\n".encode())
    assert h.hexdigest() == GOLDEN_WITNESSES[n, m, runs]


# SHA-256 of (r, witness, nodes, bound_prunes) per graph over seeded G(n, m)
# cells: edgeless, sparse, m = 4n up to n = 80, dense and complete.  The
# digests were recorded from the search that rescanned avail at every node,
# before the degrees were kept across takes and branches, so a change to
# the take order, the branch vertex, the cover or the DFS order fails here
# even where every witness stays the same.  The digests were re-recorded
# with the search order, as for GOLDEN_WITNESSES, and the two complete
# cells again when the search began with one vertex as its best set.  The
# seven cells whose counts moved were re-recorded when one-clique misses of
# the cover began to be refuted by propagation; every witness was checked
# against the previous search to be the same, and only the counts moved.
GOLDEN_COUNTERS = {
    (12, 0, 3): "c1da16a6a834d09ffe764688ab320ecf5b39431e91c384e0d39c3bac719e1eab",
    (12, 66, 3): "efd99292687961c252a459e09c91e77d66b3200a16e69b7e86ad0848945986df",
    (20, 80, 50): "739c705a4c7730e97fbdcfa01cc03aa9b56c1e4ab4af00de9ea5066b64702f65",
    (25, 300, 20): "fc38e2449e77f54de85879e334132ceec57838ef09405fa4f5f5c9eafda2f152",
    (30, 120, 40): "d653a1bc5d370d9ce1818215a21595cc5c026f498f580fd7a90d43868ec52365",
    (30, 217, 20): "bcc6b1ed71db5383b9e1c639c1d51616d018912b7d473d83d67f173fa1db71da",
    (40, 160, 30): "dc28f6e2bc77942b34b7b67dcd1b06e098fc82ef5ed585aeb734b7638f56934a",
    (60, 90, 12): "18432b0e63d3f012d9871728a02064b5fa062d07943675400552618223902503",
    (60, 240, 12): "5dff3fdc17768f52e417ca2976c61b7a027978b82911acc218869a0e1fae4f61",
    (80, 320, 6): "bac68fb0eff0a330a2ccdbb3749f202cbc4966f7b7d771bd8d8dd7343ca8bc97",
}


@pytest.mark.parametrize("n, m, runs", sorted(GOLDEN_COUNTERS))
def test_golden_counters(n, m, runs):
    h = hashlib.sha256()
    for r in range(runs):
        res = exact_mis(random_gnm(n, m, seed=derive_seed(15, n, m, r)))
        witness = ",".join(map(str, res.witness))
        h.update(f"{r}:{witness}:{res.nodes}:{res.bound_prunes}\n".encode())
    assert h.hexdigest() == GOLDEN_COUNTERS[n, m, runs]
