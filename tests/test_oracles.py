from itertools import combinations

import pytest

from congestds.errors import PreconditionError
from congestds.generators import complete, generate_graph, petersen
from congestds.graph import Graph
from congestds.oracles import brute_force_cds, brute_force_mds

from corpus_util import connected_atlas, random_connected


def enumerated_mds_size(graph: Graph) -> int:
    """Reference: subset enumeration, smallest size first.

    It starts at the counting bound ceil(n / max |N[v]|), below which no set
    can dominate, so that the 24-node edgeless graph is one subset, not 2^24.
    """
    n = graph.n
    masks = graph.closed_masks()
    full = (1 << n) - 1
    widest = max(m.bit_count() for m in masks)
    for size in range(-(-n // widest), n + 1):
        for subset in combinations(range(n), size):
            covered = 0
            for v in subset:
                covered |= masks[v]
            if covered == full:
                return size
    raise AssertionError("the full node set always dominates")


def comb(teeth: int) -> Graph:
    spine = [(i, i + 1) for i in range(teeth - 1)]
    return Graph(2 * teeth, spine + [(i, teeth + i) for i in range(teeth)])


class TestMds:
    def test_c5(self):
        g = generate_graph("cycle", {"n": 5})
        size, members = brute_force_mds(g)
        assert size == 2
        covered = set()
        for v in members:
            covered.add(v)
            covered.update(g.adj[v])
        assert covered == set(range(5))

    def test_petersen(self):
        assert brute_force_mds(petersen())[0] == 3

    def test_complete(self):
        assert brute_force_mds(complete(6))[0] == 1

    def test_edgeless(self):
        assert brute_force_mds(Graph(3, []))[0] == 3

    def test_empty(self):
        assert brute_force_mds(Graph(0, [])) == (0, [])

    def test_cap(self):
        with pytest.raises(PreconditionError):
            brute_force_mds(Graph(5, []), cap=4)

    def test_matches_enumeration(self):
        graphs = (
            list(connected_atlas(7))
            + list(random_connected(300, max_n=16, seed=11))
            + [comb(12), Graph(24, []), complete(24)]
        )
        for g in graphs:
            size, members = brute_force_mds(g)
            assert size == enumerated_mds_size(g)
            assert len(set(members)) == size
            covered = 0
            for v in members:
                covered |= g.closed_masks()[v]
            assert covered == (1 << g.n) - 1


class TestCds:
    def test_p4(self):
        g = generate_graph("path", {"n": 4})
        size, members = brute_force_cds(g)
        assert size == 2
        assert members == [1, 2]

    def test_c6(self):
        assert brute_force_cds(generate_graph("cycle", {"n": 6}))[0] == 4

    def test_star(self):
        assert brute_force_cds(generate_graph("star", {"m": 5}))[0] == 1

    def test_single_node(self):
        assert brute_force_cds(Graph(1, [])) == (1, [0])

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            brute_force_cds(Graph(2, []))


class TestGenerators:
    def test_petersen_three_regular(self):
        g = petersen()
        assert g.n == 10 and g.num_edges == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_grid(self):
        g = generate_graph("grid", {"rows": 3, "cols": 4})
        assert g.n == 12 and g.num_edges == 3 * 3 + 2 * 4

    def test_gnp_deterministic(self):
        a = generate_graph("gnp", {"n": 10, "p": 0.4}, seed=7)
        b = generate_graph("gnp", {"n": 10, "p": 0.4}, seed=7)
        assert a == b and a.is_connected()

    def test_gnp_seeds_differ(self):
        a = generate_graph("gnp", {"n": 12, "p": 0.4}, seed=1)
        b = generate_graph("gnp", {"n": 12, "p": 0.4}, seed=2)
        assert a != b

    def test_unknown_kind(self):
        from congestds.errors import DomainError

        with pytest.raises(DomainError):
            generate_graph("torus")
