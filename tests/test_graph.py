import pytest
from hypothesis import given, strategies as st

from congestds import graph as graph_module
from congestds.errors import DomainError
from congestds.graph import MAX_NODES, Graph, format_graph, parse_graph


class TestGraphBasics:
    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 1), (0, 3), (1, 0), (1, 0)])
        assert g.adj[1] == [0, 2]
        assert g.adj[0] == [1, 3]
        assert g.num_edges == 3

    def test_self_loop_rejected(self):
        with pytest.raises(DomainError):
            Graph(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            Graph(2, [(0, 2)])

    def test_delta_tilde(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.max_degree == 3
        assert g.delta_tilde == 4
        assert Graph(3, []).delta_tilde == 1

    def test_closed_neighbors(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.closed_neighbors(1) == (0, 1, 2)
        assert g.closed_neighbors(0) == (0, 1)

    def test_distances_and_connectivity(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3)])
        assert g.distance(0, 3) == 3
        assert g.distance(0, 4) == float("inf")
        assert not g.is_connected()
        assert g.subgraph_is_connected([0, 1, 2])
        assert not g.subgraph_is_connected([0, 2])

    def test_bfs_limit(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert sorted(g.bfs_distances([0], limit=2)) == [0, 1, 2]

    def test_bfs_sources_and_within(self):
        # path 0-1-2-3-4-5 plus a shortcut 0-5
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        assert g.bfs_distances([1, 4]) == {1: 0, 4: 0, 0: 1, 2: 1, 3: 1, 5: 1}
        assert g.bfs_distances([1, 4], limit=0) == {1: 0, 4: 0}
        # within {0..4} the shortcut's far end is out of reach
        assert g.bfs_distances([0], within={0, 1, 2, 3, 4}) == {
            0: 0, 1: 1, 2: 2, 3: 3, 4: 4
        }
        assert g.bfs_distances([3], limit=1, within={2, 3}) == {3: 0, 2: 1}

    def test_hash_equality(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b
        assert hash(a) == hash(b)


class TestFileFormat:
    def test_parse_with_comments_and_header(self):
        text = "# a comment\nn 5\n0 1\n\n1 2  # trailing\n"
        g = parse_graph(text)
        assert g.n == 5
        assert g.num_edges == 2

    def test_parse_without_header(self):
        g = parse_graph("0 1\n2 1\n")
        assert g.n == 3

    def test_header_too_small(self):
        with pytest.raises(DomainError):
            parse_graph("n 2\n0 3\n")

    @pytest.mark.parametrize(
        "text", ["n 10000000000\n", f"n {MAX_NODES + 1}\n0 1\n", f"0 {MAX_NODES}\n"]
    )
    def test_absurd_node_count_rejected(self, text, monkeypatch):
        def no_allocation(*args):
            raise AssertionError("a graph was allocated")

        monkeypatch.setattr(graph_module, "Graph", no_allocation)
        with pytest.raises(DomainError, match="limit"):
            parse_graph(text)

    def test_malformed_line(self):
        with pytest.raises(DomainError):
            parse_graph("0 1 2\n")

    @pytest.mark.parametrize(
        "text, line",
        [("a b\n", 1), ("0 1\n1 x\n", 2), ("n abc\n0 1\n", 1)],
        ids=["edge", "second-edge", "header"],
    )
    def test_non_integer_token(self, text, line):
        with pytest.raises(DomainError, match=f"line {line}:"):
            parse_graph(text)

    def test_roundtrip_preserves_isolated_nodes(self):
        g = Graph(6, [(0, 1), (2, 3)])
        assert parse_graph(format_graph(g)) == g

    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] != e[1]),
                max_size=20,
            ).map(lambda edges: Graph(n, edges))
        )
    )
    def test_roundtrip_any_graph(self, g):
        assert parse_graph(format_graph(g)) == g
