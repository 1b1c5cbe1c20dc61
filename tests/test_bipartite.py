import random

from congestds.bipartite import (
    Coloring,
    coloring_round_cost,
    coloring_violations,
    greedy_distance2_coloring,
)
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

    def test_violations_match_quadratic_scan(self):
        """The 2-hop-ball scan returns the pairs, in the order, of comparing
        every pair of members, on colorings with planted violations."""

        def quadratic(graph, coloring):
            bad = []
            members = coloring.members
            for i, u in enumerate(members):
                near = graph.bfs_distances([u], limit=2)
                for v in members[i + 1 :]:
                    if coloring.color[u] == coloring.color[v] and v in near:
                        bad.append((u, v))
            return bad

        rng = random.Random("violations")
        planted = 0
        for _ in range(200):
            n = rng.randint(2, 60)
            q = rng.choice([0.05, 0.1, 0.2])
            g = Graph(n, [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < q
            ])
            members = rng.sample(range(n), rng.randint(1, n))
            if rng.random() < 0.3:
                # few colors at random: many clashes per member
                color = {v: rng.randint(1, 3) for v in members}
            else:
                color = dict(greedy_distance2_coloring(g, members).color)
            # copy a color onto a member within distance 2 (a clash), or
            # onto a random member (a clash only if the two are close)
            for _ in range(rng.randint(0, 4)):
                u = rng.choice(members)
                near = [v for v in g.bfs_distances([u], limit=2) if v in color]
                v = rng.choice(near if rng.random() < 0.7 else members)
                color[v] = color[u]
            bad = coloring_violations(g, Coloring(color, max(color.values())))
            assert bad == quadratic(g, Coloring(color, max(color.values())))
            planted += bool(bad)
        assert planted > 50

    def test_classes_partition(self):
        g = star(4)
        col = greedy_distance2_coloring(g, range(5))
        seen = [v for cls in col.classes() for v in cls]
        assert sorted(seen) == list(range(5))

    def test_round_cost(self):
        from congestds.values import log_star

        assert coloring_round_cost(3, 4, 100) == 12 + 3 * log_star(100)
