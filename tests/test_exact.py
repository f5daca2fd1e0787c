"""Exact solvers: branch-and-bound control vs exhaustive validation oracle."""

import itertools

import pytest

from greedymis import Graph, OracleTimeout, brute_force_mis, exact_mis, random_gnm
from greedymis.rng import SplitMix64

PETERSEN = Graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def is_independent(g, s):
    return all(not g.adjacent(u, v) for u, v in itertools.combinations(s, 2))


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
        # K5: the root branches on 0, 1, 2 in turn, one child each: 4 nodes
        assert exact_mis(complete(5), max_nodes=4).alpha == 1
        with pytest.raises(OracleTimeout, match="after 3 search nodes"):
            exact_mis(complete(5), max_nodes=3)

    def test_edgeless_needs_one_node(self):
        assert exact_mis(Graph(9), max_nodes=1).alpha == 9

    def test_finished_search_is_unchanged(self):
        rng = SplitMix64(77)
        for _ in range(40):
            n = 10 + rng.below(21)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), seed=rng.next_u64())
            full = exact_mis(g)
            for budget in (1, 10, 100, 10**6):
                try:
                    assert exact_mis(g, max_nodes=budget) == full
                except OracleTimeout:
                    assert budget < 10**6

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_budget_below_one(self, bad):
        with pytest.raises(ValueError):
            exact_mis(Graph(3), max_nodes=bad)


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
