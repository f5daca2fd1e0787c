"""Graph construction, uniform G(n,m) generation, and set operations."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedymis import Graph, GraphError, derive_seed, non_neighbors, random_gnm
from greedymis.graph import MAX_VERTICES, degree_planes
from reference import SplitMix64, floyd_gnm, induced_subgraph, path

ALL_PAIRS_5 = list(itertools.combinations(range(5), 2))


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


class TestConstruction:
    def test_edgeless(self):
        g = Graph(5)
        assert g.n == 5 and g.m == 0

    def test_complete(self):
        g = Graph(5, ALL_PAIRS_5)
        assert g.m == 10
        assert all(g.adjacent(u, v) for u, v in ALL_PAIRS_5)

    def test_duplicate_and_reversed_edges_collapse(self):
        g = Graph(4, [(0, 1), (1, 0), (1, 2)])
        assert g.m == 2
        assert g.edges == ((0, 1), (1, 2))
        g = Graph(3, [(0, 1)])
        assert g == Graph(3, [(1, 0)]) and hash(g) == hash(Graph(3, [(1, 0)]))
        assert g != Graph(4, [(0, 1)])
        assert g != (g.n, g.adj)  # not a Graph

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])
        with pytest.raises(GraphError):
            Graph(3, [(-1, 2)])

    def test_negative_n_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_vertex_bound(self):
        assert Graph(MAX_VERTICES).n == MAX_VERTICES
        with pytest.raises(GraphError, match="exceed the limit"):
            Graph(MAX_VERTICES + 1)

    def test_adjacency_symmetric(self):
        g = random_gnm(15, 40, seed=3)
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    assert g.adjacent(u, v) == g.adjacent(v, u)


class TestRandomGnm:
    def test_full_m_gives_complete_graph(self):
        assert random_gnm(5, 10, seed=123) == Graph(5, ALL_PAIRS_5)

    def test_zero_m_gives_edgeless(self):
        assert random_gnm(5, 0, seed=123) == Graph(5)

    def test_exact_edge_count_and_determinism(self):
        g1 = random_gnm(20, 80, seed=1)
        g2 = random_gnm(20, 80, seed=1)
        assert g1.m == 80
        assert g1 == g2
        assert random_gnm(20, 80, seed=2) != g1

    def test_edge_count_exact_across_range(self):
        for m in (0, 1, 17, 100, 190):
            assert random_gnm(20, m, seed=9).m == m

    def test_m_too_large_rejected(self):
        with pytest.raises(GraphError):
            random_gnm(5, 11, seed=0)

    @pytest.mark.parametrize("m", [0, 3])
    def test_over_the_vertex_bound_rejected_before_sampling(self, m):
        # sampling m pairs of a huge n would first walk n rows of pairs
        with pytest.raises(GraphError, match="exceed the limit"):
            random_gnm(MAX_VERTICES + 1, m, seed=0)
        with pytest.raises(GraphError, match="exceed the limit"):
            random_gnm(10**20, m, seed=0)

    @pytest.mark.parametrize("m", [0, 3])
    def test_negative_n_rejected(self, m):
        # n * (n - 1) // 2 is positive for n < 0 too; m = 3 used to hang
        with pytest.raises(GraphError):
            random_gnm(-5, m, seed=0)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_small_counts_match_the_plain_sampler(self, n):
        npairs = n * (n - 1) // 2
        for m in sorted({0, 1, npairs - 1, npairs} & set(range(npairs + 1))):
            for seed in range(20):
                assert random_gnm(n, m, seed).adj == floyd_gnm(n, m, seed).adj, (m, seed)

    @pytest.mark.parametrize("n", [20, 30, 40, 80])
    def test_seeded_graphs_match_the_plain_sampler(self, n):
        for r in range(300):
            seed = derive_seed(1, n, 4 * n, r)
            assert random_gnm(n, 4 * n, seed).adj == floyd_gnm(n, 4 * n, seed).adj, r

    def test_reference_stream_is_splitmix64(self):
        # the first outputs of the published SplitMix64 from seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
        ]

    def test_uniformity_smoke(self):
        # 10,000 single-edge draws on n=4: each of the 6 pairs near 1/6
        counts = {pair: 0 for pair in itertools.combinations(range(4), 2)}
        for i in range(10_000):
            g = random_gnm(4, 1, seed=derive_seed(77, i))
            counts[g.edges[0]] += 1
        for pair, count in counts.items():
            assert abs(count / 10_000 - 1 / 6) <= 0.02, (pair, count)


class TestNonNeighbors:
    def test_edgeless(self):
        assert non_neighbors(Graph(5), [0]) == (1, 2, 3, 4)

    def test_complete(self):
        assert non_neighbors(Graph(5, ALL_PAIRS_5), [0]) == ()

    def test_path(self):
        assert non_neighbors(path(4), [0]) == (2, 3)

    def test_empty_set_returns_all_vertices(self):
        assert non_neighbors(path(4), []) == (0, 1, 2, 3)

    def test_out_of_range_member_rejected(self):
        with pytest.raises(GraphError):
            non_neighbors(Graph(3), [5])

    @settings(max_examples=60)
    @given(graphs(), st.data())
    def test_disjoint_and_nonadjacent(self, g, data):
        members = data.draw(
            st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n)
        )
        result = non_neighbors(g, members)
        assert not set(result) & set(members)
        for r in result:
            for s in members:
                assert not g.adjacent(r, s)


class TestInducedSubgraph:
    def test_triangle_of_complete(self):
        sub = induced_subgraph(Graph(5, ALL_PAIRS_5), [0, 1, 2])
        assert sub == Graph(3, [(0, 1), (0, 2), (1, 2)])

    def test_empty_selection(self):
        sub = induced_subgraph(path(4), [])
        assert sub.n == 0 and sub.m == 0

    def test_path_tail(self):
        sub = induced_subgraph(path(6), [4, 5])
        assert sub == Graph(2, [(0, 1)])

    def test_out_of_range_member_rejected(self):
        with pytest.raises(GraphError):
            induced_subgraph(Graph(3), [3])

    @settings(max_examples=60)
    @given(graphs(), st.data())
    def test_preserves_adjacency(self, g, data):
        members = sorted(
            data.draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n))
        )
        sub = induced_subgraph(g, members)
        assert sub.n == len(members)
        for a, b in itertools.combinations(range(len(members)), 2):
            assert sub.adjacent(a, b) == g.adjacent(members[a], members[b])


def plane_count(planes, v):
    return sum(1 << i for i, p in enumerate(planes) if p >> v & 1)


class TestDegreePlanes:
    # plane widths change where the largest degree crosses 2**j + 1
    @pytest.mark.parametrize("top_deg", [0, 1, 2, 3, 4, 5, 6, 9, 10, 17, 18, 33, 34])
    def test_counts_top_plane_and_lowering(self, top_deg):
        # vertex d has degree d: its count is top - d, the top plane is
        # degree <= 1, and lowering every vertex down to degree 0 by carry
        # chains never runs past the last plane
        planes = degree_planes([(1 << d) - 1 for d in range(top_deg + 1)])
        w = len(planes)
        top = (1 << (w - 1)) + 1
        assert w == 2 or top_deg > (1 << (w - 2)) + 1  # the fewest planes
        assert top >= top_deg
        assert [plane_count(planes, d) for d in range(top_deg + 1)] == [
            top - d for d in range(top_deg + 1)]
        assert planes[-1] == 0b11 & ((1 << (top_deg + 1)) - 1)
        for level in range(top_deg, 0, -1):
            s = (1 << (top_deg + 1)) - (1 << level)  # every vertex of degree >= level
            i = 0
            while s:
                c = planes[i]
                planes[i] = c ^ s
                s &= c
                i += 1
        assert [plane_count(planes, d) for d in range(top_deg + 1)] == [top] * (top_deg + 1)

    def test_masks_of_many_vertices(self):
        planes = degree_planes([0, 0b11, 0b11, 0b1111])  # degrees 0, 2, 2, 4
        top = (1 << (len(planes) - 1)) + 1
        assert [plane_count(planes, v) for v in range(4)] == [top, top - 2, top - 2, top - 4]
