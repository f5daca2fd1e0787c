"""Edge-list text format: parsing, writing, round trips, diagnostics."""

import pytest

from greedymis import Graph, GraphParseError, random_gnm, read_graph, write_graph
from greedymis.dimacs import MAX_VERTICES


class TestRead:
    def test_minimal(self):
        g = read_graph(b"p edge 3 1\ne 1 2\n")
        assert g.n == 3
        assert g.edges == ((0, 1),)

    def test_comments_and_blanks_ignored(self):
        text = "c a comment\n\np edge 4 2\nc another\ne 1 2\n\ne 3 4\n"
        g = read_graph(text)
        assert g.n == 4
        assert g.edges == ((0, 1), (2, 3))

    def test_accepts_str_and_bytes(self):
        assert read_graph("p edge 2 0\n") == read_graph(b"p edge 2 0\n")

    @pytest.mark.parametrize(
        "body,lineno",
        [
            ("e 1 2\n", 1),  # edge before header
            ("p edge x 0\n", 1),  # non-integer count
            ("p edge 3\n", 1),  # short header
            ("p edge 3 0\np edge 3 0\n", 2),  # duplicate header
            ("p edge 3 1\ne 1 4\n", 2),  # endpoint out of range
            ("p edge 3 1\ne 0 1\n", 2),  # 1-based ids, 0 invalid
            ("p edge 3 1\ne 2 2\n", 2),  # self-loop
            ("p edge 3 1\ne 1\n", 2),  # short edge line
            ("p edge 3 1\nq 1 2\n", 2),  # unknown line kind
            ("", 1),  # missing header
            ("p edge 3 5\ne 1 2\n", 1),  # fewer edge lines than declared
            ("c x\np edge 3 1\ne 1 2\ne 2 3\n", 2),  # more edge lines than declared
            ("p edge 3 1\ne 1 2\ne 2 1\n", 1),  # e lines count, not distinct edges
            ("p edge ３ 1\n", 1),  # fullwidth digit: counts are ASCII digits only
            ("p edge 1_0 0\n", 1),  # digit-group underscore
            ("p edge 3 +1\n", 1),  # signed count
            ("p edge 3 1\ne 1 ２\n", 2),  # fullwidth digit in an endpoint
            ("p edge -3 0\n", 1),  # negative count
            ("p edge 99999999999999999999 0\n", 1),  # too many vertices for a list
            pytest.param(  # past int()'s digit limit; named, since the body is 4400 digits
                "p edge 3 1\ne 1 " + "2" * 4400 + "\n", 2, id="4400-digit endpoint-2"
            ),
            (f"p edge {MAX_VERTICES + 1} 0\n", 1),  # one vertex over the bound
        ],
    )
    def test_errors_carry_line_number(self, body, lineno):
        with pytest.raises(GraphParseError) as exc:
            read_graph(body)
        assert exc.value.line == lineno
        assert f"line {lineno}" in str(exc.value)


class TestWrite:
    def test_edgeless(self):
        assert write_graph(Graph(2)) == b"p edge 2 0\n"

    def test_edges_sorted_one_based(self):
        g = Graph(4, [(2, 3), (0, 2), (1, 0)])
        assert write_graph(g) == b"p edge 4 3\ne 1 2\ne 1 3\ne 3 4\n"

    def test_over_the_vertex_bound_is_refused(self):
        with pytest.raises(ValueError, match="exceed the limit"):
            write_graph(Graph(MAX_VERTICES + 1))


class TestRoundTrip:
    def test_random_graph(self):
        g = random_gnm(20, 80, seed=7)
        assert read_graph(write_graph(g)) == g

    @pytest.mark.parametrize("seed", range(6))
    def test_assorted_sizes(self, seed):
        n = 3 + 5 * seed
        m = min(n, n * (n - 1) // 2)
        g = random_gnm(n, m, seed=seed)
        assert read_graph(write_graph(g)) == g
