import pytest
from hypothesis import given, settings, strategies as st

from congestds.decomp import (
    Cluster,
    ClusterTree,
    NetworkDecomposition,
    compute_decomposition,
    decomposition_charge,
    single_cluster_decomposition,
    validate_decomposition,
)
from congestds.errors import DomainError, StructuralError
from congestds.graph import Graph


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestSingleCluster:
    def test_path_tree(self):
        g = path(4)
        nd = single_cluster_decomposition(g)
        validate_decomposition(g, nd)
        assert len(nd.clusters) == 1
        assert nd.clusters[0].tree.depth() == 3
        assert nd.num_colors == 1
        assert nd.k == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DomainError):
            single_cluster_decomposition(Graph(2, []))

    def test_lowest_id_parents(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        nd = single_cluster_decomposition(g)
        assert nd.clusters[0].tree.parent[3] == 1


class TestComputeDecomposition:
    def test_k4_one_cluster(self):
        g = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        nd = compute_decomposition(g, 2)
        validate_decomposition(g, nd)
        assert len(nd.clusters) == 1
        assert nd.num_colors == 1

    def test_p10_valid(self):
        g = path(10)
        nd = compute_decomposition(g, 2)
        validate_decomposition(g, nd)
        assert len(nd.clusters) >= 2
        # adjacent clusters along the path must take different colors
        assert nd.num_colors >= 2

    def test_disconnected_triangles_share_color(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        nd = compute_decomposition(g, 2)
        validate_decomposition(g, nd)
        assert len(nd.clusters) == 2
        assert nd.num_colors == 1

    def test_bad_k(self):
        with pytest.raises(DomainError):
            compute_decomposition(path(3), 0)

    def test_charge_scales_with_k(self):
        assert decomposition_charge(100, 4) == 2 * decomposition_charge(100, 2)
        assert decomposition_charge(1, 3) == 3

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=14),
        st.randoms(use_true_random=False),
    )
    def test_random_graphs_validate(self, n, rnd):
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rnd.random() < 0.4
        ]
        g = Graph(n, edges)
        nd = compute_decomposition(g, 2)
        validate_decomposition(g, nd)


class TestValidation:
    def test_overlap_detected(self):
        g = Graph(2, [(0, 1)])
        t0 = ClusterTree(root=0, parent={1: 0})
        t1 = ClusterTree(root=1, parent={})
        nd = NetworkDecomposition(
            clusters=[
                Cluster(leader=0, members=[0, 1], tree=t0),
                Cluster(leader=1, members=[1], tree=t1),
            ],
            color={0: 1, 1: 2},
            k=2,
            d=1,
        )
        with pytest.raises(StructuralError):
            validate_decomposition(g, nd)

    def test_non_edge_in_tree_detected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        tree = ClusterTree(root=0, parent={1: 0, 2: 0})
        nd = NetworkDecomposition(
            clusters=[Cluster(leader=0, members=[0, 1, 2], tree=tree)],
            color={0: 1},
            k=2,
            d=2,
        )
        with pytest.raises(StructuralError):
            validate_decomposition(g, nd)

    def test_separation_violation_detected(self):
        g = path(4)
        t0 = ClusterTree(root=0, parent={1: 0})
        t1 = ClusterTree(root=2, parent={3: 2})
        nd = NetworkDecomposition(
            clusters=[
                Cluster(leader=0, members=[0, 1], tree=t0),
                Cluster(leader=2, members=[2, 3], tree=t1),
            ],
            color={0: 1, 2: 1},  # 1 hop apart but same color
            k=2,
            d=1,
        )
        with pytest.raises(StructuralError):
            validate_decomposition(g, nd)

    def test_depth_violation_detected(self):
        g = path(4)
        nd = single_cluster_decomposition(g)
        nd.d = 1
        with pytest.raises(StructuralError):
            validate_decomposition(g, nd)
