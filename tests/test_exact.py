"""Exact solvers: branch-and-bound control vs exhaustive validation oracle."""

import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedymis import (
    Graph,
    OracleResult,
    OracleTimeout,
    brute_force_mis,
    exact_mis,
    random_gnm,
)
from greedymis.exact import RELABEL_MIN_N, _smallest_last
from greedymis.rng import SplitMix64, derive_seed
from reference import alpha_digest, clique_alpha, plane_width_graphs

PETERSEN = Graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def disjoint_triangles(k):
    return Graph(3 * k, [e for t in range(0, 3 * k, 3)
                         for e in ((t, t + 1), (t + 1, t + 2), (t, t + 2))])


def is_independent(g, s):
    return all(not g.adjacent(u, v) for u, v in itertools.combinations(s, 2))


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


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

    def test_cycle(self):
        assert exact_mis(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])).alpha == 2

    def test_petersen(self):
        res = exact_mis(PETERSEN)
        assert res.alpha == 4
        assert is_independent(PETERSEN, res.witness)

    def test_empty_graph(self):
        assert exact_mis(Graph(0)).alpha == 0
        assert exact_mis(Graph(0), max_nodes=1).witness == ()


class TestNodeBudget:
    def test_complete_graph_boundary(self):
        # K5: the root includes 0 (one child), then the clique cover of the
        # other four vertices prunes its exclude branch
        res = exact_mis(complete(5))
        assert (res.nodes, res.bound_prunes) == (2, 1)
        assert exact_mis(complete(5), max_nodes=2).alpha == 1
        with pytest.raises(OracleTimeout, match="after 1 search nodes"):
            exact_mis(complete(5), max_nodes=1)

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

    @pytest.mark.parametrize("bad", [0, -1])
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
        # prunes every exclude branch
        res = exact_mis(disjoint_triangles(20), max_nodes=100)
        assert res.alpha == 20
        assert (res.nodes, res.bound_prunes) == (21, 19)

    def test_search_deeper_than_the_recursion_limit(self):
        # 1001 include branches in a row: deeper than Python's default
        # recursion limit, which a recursive search could not reach
        g = disjoint_triangles(1001)
        res = exact_mis(g, max_nodes=2000)
        assert res.alpha == 1001
        assert sorted(v // 3 for v in res.witness) == list(range(1001))
        assert (res.nodes, res.bound_prunes) == (1002, 1000)

    def test_deep_stack_memory(self):
        # node 1001 is the last include branch of the first descent, so the
        # budget stops the search with 1000 states stacked.  Each holds two
        # planes of 3003 bits besides its masks; one 3003-entry degree list
        # per state took 23.9 MiB.  (The whole solve is far slower traced.)
        g = disjoint_triangles(1001)
        tracemalloc.start()
        try:
            with pytest.raises(OracleTimeout, match="after 1001 search nodes"):
                exact_mis(g, max_nodes=1001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


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


# SHA-256 of the alphas of reference.ALPHA_CELLS, printed by
# tools/alpha_digest.py from tests/reference.py::clique_alpha, which shares
# no code with exact_mis.  Re-record it only when ALPHA_CELLS changes.
REFERENCE_ALPHA_DIGEST = "29a7ed0b047e5a046cb4a3a6d11272226f5651522bce49edd2c5bd79704a1be0"


# SHA-256 of exact_mis witnesses over seeded G(n, m) cells, n beyond the
# brute-force range.  The n <= 40 digests were recorded from the search
# before the clique-cover bound went in, so a bound or reordering that moves
# a single witness fails here rather than only against a rerun of itself.
# The n >= 50 digests were re-recorded when those graphs began to be
# searched in smallest-last order; every moved witness was checked to be
# independent and of the old size.
GOLDEN_WITNESSES = {
    (20, 80, 50): "40f19d7be462242623302048020b38f6afccd4766c64bd5360431c29557681c3",
    (30, 120, 40): "5cfbd3cbce3c75e93efcd1accba138934e694167000fdf1ddaa721d627616013",
    (40, 160, 30): "b2d28ab3f80b58efdf00ef356259a14555cdb52fd9367b89605d05a374059294",
    (60, 240, 12): "51709913183bdc429659f3a59694e7c098312e0df3107938b5fb4decf0f908e9",
    (80, 320, 6): "a1653903b77f2abe613db1ee4d01a456e20d7dd03b31cf9f625db23a2d39062b",
    (30, 217, 20): "15ca2f17fba4d5293345d198a9ededb5ee73d53f3d44c03864a0bd3fe3e2fa36",
    (40, 390, 12): "e9f52b34bcf34635e79d053ba459070b5a391298f95c382d2b76b9e511659eb1",
    (50, 600, 10): "81d87ca3dab1635d7f9a8f811fd9c997b99d9fa7d8aa67ab0686953b51c691d5",
    (40, 40, 20): "efa4bcb521ed35c4375e725446b56eabc36185130582136280bc32b2c324f1d3",
    (60, 90, 12): "2b6f4ad1c2f9dfb3744c619cf311e103787333a52ceabdecc42a0c75ae2a26d2",
    (60, 120, 12): "56767116100b341c9d7283f915144a47b05b58e0ef45422e231730a09824ef36",
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
# even where every witness stays the same.  The n >= 50 digests were
# re-recorded with the smallest-last relabel, as for GOLDEN_WITNESSES.
GOLDEN_COUNTERS = {
    (12, 0, 3): "c1da16a6a834d09ffe764688ab320ecf5b39431e91c384e0d39c3bac719e1eab",
    (12, 66, 3): "fcc28b60e145e4cd8e858136fffb4c138e198a8cedc7d63cca51dcf23f7864cc",
    (20, 80, 50): "09a2ceccb01bbd4dada61f481fff39cb89b12806dc7a6851cbb45bb516db6135",
    (25, 300, 20): "3ceb6528ba3b34f258affad657db878180ed90844a5f7682f42d2a1b4e0bf66e",
    (30, 120, 40): "754f25768d7a6c36b269bda00dec3f3d64d64cb0948c4df32c70316992df0a6b",
    (30, 217, 20): "d8fd8dd99cdc391adca6c0362e6e71643af72dd0743c229832643e93ee5cb222",
    (40, 160, 30): "b3e8db29ad38a266ae07c456ac46da02dbd845313becf631caf906781c5ff11e",
    (60, 90, 12): "98f832fbcdae5db007d5e13fc0de683cb39fca1c361b164999276706d491158c",
    (60, 240, 12): "4f1a5aa943d205d7e4b0ac9c08cb955f42c0d28eb745c839b758de36a7f0cfee",
    (80, 320, 6): "89abcea270e8659e521dfa144ed6db11d4b11a48013f61dff6e53f3ee8c5e5db",
}


@pytest.mark.parametrize("n, m, runs", sorted(GOLDEN_COUNTERS))
def test_golden_counters(n, m, runs):
    h = hashlib.sha256()
    for r in range(runs):
        res = exact_mis(random_gnm(n, m, seed=derive_seed(15, n, m, r)))
        witness = ",".join(map(str, res.witness))
        h.update(f"{r}:{witness}:{res.nodes}:{res.bound_prunes}\n".encode())
    assert h.hexdigest() == GOLDEN_COUNTERS[n, m, runs]
