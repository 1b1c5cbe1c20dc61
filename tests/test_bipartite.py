import pytest

from congestds.bipartite import (
    coloring_round_cost,
    coloring_violations,
    greedy_distance2_coloring,
    split_left_nodes,
)
from congestds.errors import DomainError
from congestds.graph import Graph


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestColoring:
    def test_matching_needs_one_color(self):
        g = Graph(4, [(0, 1), (2, 3)])
        col = greedy_distance2_coloring(g, [0, 2])
        assert col.num_colors == 1

    def test_path_distance_two(self):
        g = Graph(3, [(0, 1), (1, 2)])
        col = greedy_distance2_coloring(g, [0, 2])
        # endpoints share the middle node, so they conflict
        assert col.num_colors == 2
        assert coloring_violations(g, col) == []

    def test_cycle_rep_right_side(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        # double cover: constraint v (left, id v) -- value u (right, id 5 + u)
        # for every u in v's inclusive neighborhood
        cover = Graph(10, [(v, 5 + u) for v in range(5) for u in g.closed_neighbors(v)])
        col = greedy_distance2_coloring(cover, range(5, 10))
        assert coloring_violations(cover, col) == []
        # side degrees are both 3: greedy stays within D_L * D_R
        assert col.num_colors <= 9

    def test_classes_partition(self):
        g = star(4)
        col = greedy_distance2_coloring(g, range(5))
        seen = [v for cls in col.classes() for v in cls]
        assert sorted(seen) == list(range(5))

    def test_round_cost(self):
        from congestds.values import log_star

        assert coloring_round_cost(3, 4, 100) == 12 + 3 * log_star(100)


class TestSplit:
    def test_large_constraint_split_into_chunks(self):
        g = star(12)
        participating = {0: list(range(1, 13))}
        kept = {0: [0]}
        sb = split_left_nodes(g, participating, kept, s=5)
        copies = sb.left_copies[0]
        # floor(12/5) = 2 chunks of 6 plus the v_1 copy with the kept edge
        assert len(copies) == 3
        sizes = [len(sb.graph.adj[b]) for b in copies]
        assert sizes == [1, 6, 6]
        assert sb.left_origin[copies[0]] == (0, 0)
        # every participating edge appears exactly once across the chunks
        covered = sorted(
            u for b in copies[1:] for u in sb.graph.adj[b]
        )
        assert covered == list(range(1, 13))

    def test_small_constraint_kept_whole(self):
        g = star(4)
        sb = split_left_nodes(g, {0: [1, 2, 3, 4]}, {0: [0]}, s=5)
        copies = sb.left_copies[0]
        assert len(copies) == 1
        assert sb.graph.adj[copies[0]] == [0, 1, 2, 3, 4]

    def test_chunk_sizes_in_range(self):
        g = star(11)
        sb = split_left_nodes(g, {0: list(range(1, 12))}, {0: []}, s=4)
        sizes = [len(sb.graph.adj[b]) for b in sb.left_copies[0][1:]]
        assert sum(sizes) == 11
        assert all(4 <= sz < 8 for sz in sizes)

    def test_bad_s(self):
        with pytest.raises(DomainError):
            split_left_nodes(Graph(1, []), {}, {}, s=0)
