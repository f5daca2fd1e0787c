"""Stability scoring and candidate evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedymis import Graph, Heuristic, non_neighbors, random_gnm
from reference import SplitMix64, complete, induced_subgraph, path, score, stability


class TestStability:
    def test_edgeless_scores_order_squared(self):
        assert stability(Graph(3)) == 9

    def test_complete_scores_order(self):
        assert stability(complete(3)) == 3

    def test_path_three(self):
        # degrees 1, 2, 1 -> 3*(1/2 + 1/3 + 1/2) = 4
        assert stability(path(3)) == 4

    def test_empty_graph(self):
        assert stability(Graph(0)) == 0

    def test_exact_fraction(self):
        # 4 vertices, one edge: 4*(1/2 + 1/2 + 1 + 1) = 12
        assert stability(Graph(4, [(0, 1)])) == Fraction(12)
        # C4: all degrees 2 -> 4 * 4/3
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert stability(c4) == Fraction(16, 3)

    def test_constructed_tie_compares_equal(self):
        # path on 3 vertices and edgeless pair both score exactly 4
        assert stability(path(3)) == stability(Graph(2))

    @pytest.mark.parametrize("seed", range(20))
    def test_bounds(self, seed):
        rng = SplitMix64(seed)
        n = 1 + rng.below(10)
        m = rng.below(n * (n - 1) // 2 + 1) if n > 1 else 0
        g = random_gnm(n, m, seed=seed)
        value = stability(g)
        assert n <= value <= n * n
        assert (value == n * n) == (m == 0)
        assert (value == n) == (m == n * (n - 1) // 2)


class TestScore:
    def test_pool_count_on_edgeless(self):
        assert score(Graph(4), (0,), 1, Heuristic.A) == 2

    def test_path_examples(self):
        p6 = path(6)
        assert score(p6, (0,), 2, Heuristic.B) == 2
        assert score(p6, (0,), 3, Heuristic.B) == 1
        assert score(p6, (0,), 2, Heuristic.A) == 2

    def test_dead_end_candidate_scores_zero(self):
        # C4 with s = {0}: picking 2 leaves nothing
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert score(c4, (0,), 2, Heuristic.A) == 0
        assert score(c4, (0,), 2, Heuristic.B) == 0

    def test_rejects_non_candidate(self):
        with pytest.raises(ValueError):
            score(path(4), (0,), 1, Heuristic.A)  # 1 is adjacent to 0
        with pytest.raises(ValueError):
            score(path(4), (0,), 0, Heuristic.A)  # 0 is in s

    @settings(max_examples=50)
    @given(st.integers(0, 2**32), st.integers(4, 12), st.data())
    def test_score_a_matches_pool_cardinality(self, seed, n, data):
        m = data.draw(st.integers(0, n * (n - 1) // 2))
        g = random_gnm(n, m, seed=seed)
        pool = non_neighbors(g, [])
        v = data.draw(st.sampled_from(list(pool)))
        expected = len(non_neighbors(g, [v]))
        assert score(g, (), v, Heuristic.A) == expected

    @settings(max_examples=50)
    @given(st.integers(0, 2**32), st.data())
    def test_score_a_monotone_under_edge_removal(self, seed, data):
        g = random_gnm(10, 25, seed=seed)
        dropped = data.draw(st.sampled_from(list(g.edges)))
        sparser = Graph(g.n, [e for e in g.edges if e != dropped])
        s: tuple[int, ...] = ()
        for v in non_neighbors(g, s):
            assert score(sparser, s, v, Heuristic.A) >= score(g, s, v, Heuristic.A)

    def test_score_b_equals_stability_of_induced_pool(self):
        g = random_gnm(12, 30, seed=5)
        s = (min(non_neighbors(g, ())),)
        for v in non_neighbors(g, s):
            pool = non_neighbors(g, s + (v,))
            assert score(g, s, v, Heuristic.B) == stability(induced_subgraph(g, pool))
