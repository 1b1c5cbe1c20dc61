import itertools
import math
import random

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


def within(graph, a, b, k):
    """The pairwise definition: some member of a is at most k hops from some
    member of b."""
    return any(graph.distance(u, v) <= k for u in a.members for v in b.members)


def pairwise_colors(graph, clusters, k):
    """Greedy coloring, in cluster order, of the pairwise conflict graph."""
    color = {}
    for cl in clusters:
        used = {color[o.leader] for o in clusters
                if o.leader in color and within(graph, cl, o, k)}
        c = 1
        while c in used:
            c += 1
        color[cl.leader] = c
    return color


def pairwise_violation(graph, nd):
    """The message of the first same-colored pair within k hops, scanning
    colors in order of first appearance and pairs in cluster order."""
    by_color = {}
    for cl in nd.clusters:
        by_color.setdefault(nd.color[cl.leader], []).append(cl)
    for cls in by_color.values():
        for a, b in itertools.combinations(cls, 2):
            if within(graph, a, b, nd.k):
                return (f"same-colored clusters {a.leader} and {b.leader} "
                        f"are within {nd.k} hops")
    return None


def sparse_graphs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 40)
        yield Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                        if rng.random() < 2.5 / n])


class TestClusterTree:
    def test_depth(self):
        # a cluster tree's depth is the promise validate_decomposition
        # checks against d
        tree = ClusterTree(root=0, parent={1: 0, 2: 1, 3: 1})
        assert tree.depth() == 2
        assert tree.members == [0, 1, 2, 3]

    @pytest.mark.parametrize("parent", [{1: 2, 2: 1}, {1: 1, 2: 0}, {1: 0, 2: 3}])
    def test_bad_parent_map_rejected(self, parent):
        # a parent chain that loops, or that leaves the tree at node 3
        tree = ClusterTree(root=0, parent=parent)
        with pytest.raises(StructuralError):
            tree.depth()
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        nd = NetworkDecomposition(
            clusters=[Cluster(leader=0, members=[0, 1, 2], tree=tree),
                      Cluster(leader=3, members=[3],
                              tree=ClusterTree(root=3, parent={}))],
            color={0: 1, 3: 2},
            k=2,
            d=2,
        )
        with pytest.raises(StructuralError):
            validate_decomposition(g, nd)


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

    def test_radius_is_exact_ceil_log2(self):
        """The cluster radius d is ceil(log2 n), on both sides of every power
        of two; a star puts all of its nodes into one cluster."""
        for k in range(15):
            for n in (2**k - 1, 2**k, 2**k + 1):
                if n < 1:
                    continue
                star = Graph(n, [(0, i) for i in range(1, n)])
                assert compute_decomposition(star, 2).d == math.ceil(
                    math.log2(max(n, 2))
                ), n

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


    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_colors_match_pairwise_definition(self, k):
        for g in sparse_graphs(f"decomp-colors:{k}", 40):
            nd = compute_decomposition(g, k)
            assert nd.color == pairwise_colors(g, nd.clusters, k)


class TestValidation:
    def test_first_violation_matches_pairwise_scan(self):
        # every cluster of the path 0-7 takes color 1; listed out of path
        # order, cluster 0's first later neighbor within 2 hops is cluster 2
        g = path(8)
        clusters = [
            Cluster(leader=a, members=[a, a + 1],
                    tree=ClusterTree(root=a, parent={a + 1: a}))
            for a in (0, 6, 2, 4)
        ]
        nd = NetworkDecomposition(
            clusters=clusters, color={a: 1 for a in (0, 6, 2, 4)}, k=2, d=1
        )
        want = pairwise_violation(g, nd)
        assert want == "same-colored clusters 0 and 2 are within 2 hops"
        with pytest.raises(StructuralError, match=want):
            validate_decomposition(g, nd)

    def test_recolored_decompositions_match_pairwise_scan(self):
        checked = 0
        for g in sparse_graphs("decomp-validate", 60):
            nd = compute_decomposition(g, 2)
            rng = random.Random(g.n)
            nd.color = {cl.leader: rng.randint(1, 2) for cl in nd.clusters}
            want = pairwise_violation(g, nd)
            if want is None:
                validate_decomposition(g, nd)
                continue
            checked += 1
            with pytest.raises(StructuralError) as err:
                validate_decomposition(g, nd)
            assert str(err.value) == want
        assert checked > 10

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
