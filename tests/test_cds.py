import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction

import pytest
from corpus_util import relabelled_sparse

from congestds.cds import (
    bfs_clustering,
    build_cds,
    connector_paths,
    default_ruling_params,
    ruling_subset,
    undominated,
)
from congestds.errors import PreconditionError, StructuralError
from congestds.generators import generate_graph, petersen
from congestds.graph import MAX_NODES, Graph
from congestds.oracles import brute_force_cds
from congestds.pipeline import run_cds


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestRulingSubset:
    def test_p5_greedy(self):
        g = path(5)
        assert ruling_subset(g, range(5), alpha=3, beta=3) == [0, 3]

    def test_all_when_alpha_one(self):
        g = path(4)
        assert ruling_subset(g, range(4), alpha=1, beta=1) == [0, 1, 2, 3]

    def test_pairwise_separation_and_coverage(self):
        g = generate_graph("grid", {"rows": 3, "cols": 5})
        chosen = ruling_subset(g, range(g.n), alpha=2, beta=4)
        for i, u in enumerate(chosen):
            for v in chosen[i + 1 :]:
                assert g.distance(u, v) >= 2
        for v in range(g.n):
            assert min(g.distance(v, u) for u in chosen) <= 4

    def test_alpha_beta_order(self):
        with pytest.raises(PreconditionError):
            ruling_subset(path(3), range(3), alpha=4, beta=2)


class TestBfsClustering:
    def test_single_center_p7(self):
        g = path(7)
        S = [0, 3, 6]
        cl = bfs_clustering(g, S, [0])
        assert cl.membership == {0: 0, 3: 0, 6: 0}
        # the pruned tree keeps the whole spine up to node 6
        assert cl.tree_nodes(0) == list(range(7))

    def test_pruning_drops_dead_branches(self):
        # star with an S-leaf and plain leaves: plain leaves are pruned
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        cl = bfs_clustering(g, [0, 4], [0])
        assert cl.tree_nodes(0) == [0, 4]

    def test_two_centers_partition(self):
        g = path(10)
        S = [1, 4, 8]
        cl = bfs_clustering(g, S, [1, 8])
        assert cl.membership[4] in (1, 8)
        assert set(cl.membership) == set(S)

    def test_centers_must_be_in_s(self):
        with pytest.raises(PreconditionError):
            bfs_clustering(path(3), [1], [0])

    def test_disconnected_stalls(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(StructuralError, match=r"S-nodes \[2\] are unclustered"):
            bfs_clustering(g, [0, 2], [0])

    def test_round_two_joiner_anchors_next_phase(self):
        # S = {0, 4}: 1 joins in round 1, 2 in round 2, and only 2 leads on
        # to 3 and so to the S-node 4
        g = path(5)
        cl = bfs_clustering(g, [0, 4], [0])
        assert cl.membership == {0: 0, 4: 0}
        assert cl.phases == 2
        assert cl.tree_nodes(0) == [0, 1, 2, 3, 4]


class TestConnectorPaths:
    def test_direct_edge_rule(self):
        g = path(4)
        S = [1, 2]
        cl = bfs_clustering(g, S, [1, 2])
        paths = connector_paths(g, S, cl)
        assert len(paths) == 1
        assert paths[0].rule == 1 and paths[0].path == [1, 2]

    def test_two_hop_rule(self):
        g = path(5)
        S = [1, 3]
        cl = bfs_clustering(g, S, [1, 3])
        paths = connector_paths(g, S, cl)
        assert len(paths) == 1
        assert paths[0].rule == 2 and paths[0].path == [1, 2, 3]

    def test_three_hop_rule(self):
        g = path(6)
        S = [1, 4]
        cl = bfs_clustering(g, S, [1, 4])
        paths = connector_paths(g, S, cl)
        assert len(paths) == 1
        assert paths[0].rule == 3
        assert paths[0].path == [1, 2, 3, 4]

    def test_merging_only(self):
        g = generate_graph("cycle", {"n": 6})
        S = [0, 2, 4]
        cl = bfs_clustering(g, S, [0, 2, 4])
        paths = connector_paths(g, S, cl)
        # three clusters need exactly two merges
        assert len(paths) == 2


class TestBuildCds:
    def test_p7(self):
        g = path(7)
        res = build_cds(g, [1, 3, 5])
        assert undominated(g, res.sbar) == []
        assert g.subgraph_is_connected(res.sbar)
        assert len(res.sbar) <= 3 * 3 + 2 * len(res.paths)
        opt, _ = brute_force_cds(g)
        assert opt == 5

    def test_c6(self):
        g = generate_graph("cycle", {"n": 6})
        res = build_cds(g, [0, 3])
        assert undominated(g, res.sbar) == []
        assert g.subgraph_is_connected(res.sbar)

    def test_star(self):
        g = generate_graph("star", {"m": 6})
        res = build_cds(g, [0])
        assert res.sbar == [0]

    def test_petersen(self):
        g = petersen()
        from congestds.oracles import brute_force_mds

        _, S = brute_force_mds(g)
        res = build_cds(g, S)
        assert undominated(g, res.sbar) == []
        assert g.subgraph_is_connected(res.sbar)
        opt, _ = brute_force_cds(g)
        assert len(res.sbar) <= 3 * len(S) + 2 * len(res.paths)
        assert len(res.sbar) >= opt

    def test_single_node(self):
        res = build_cds(Graph(1, []), [0])
        assert res.sbar == [0]

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            build_cds(Graph(2, []), [0, 1])

    def test_non_dominating_rejected(self):
        with pytest.raises(PreconditionError):
            build_cds(path(5), [0])

    def test_default_params_grow(self):
        a1, b1 = default_ruling_params(16)
        a2, b2 = default_ruling_params(1024)
        assert a1 <= a2 and b1 <= b2 and a1 <= b1 and a2 <= b2


def test_run_cds_verified_on_stall_sample():
    """Sparse 300-node graphs, among them stall:{3,5,8,18,39}, on which round
    1 of a clustering phase used to anchor only on the last phase's
    S-joiners, stranding S-nodes behind a round-2 joiner."""
    unverified = []
    for i in range(100):
        g = relabelled_sparse(f"stall:{i}", 300, 2.0)
        sbar, report = run_cds(g, Fraction(1, 2))
        if not (report.valid and report.connected and g.subgraph_is_connected(sbar)
                and undominated(g, sbar) == []):
            unverified.append(i)
    assert unverified == []


def test_undominated_names_uncovered_nodes():
    g = path(5)
    assert undominated(g, [0]) == [2, 3, 4]
    assert undominated(g, [1, 3]) == []
    assert undominated(g, []) == [0, 1, 2, 3, 4]


LN2 = Decimal(2).ln(Context(prec=80))


def exact_ruling_params(n):
    """default_ruling_params(n) from exact ceilings of log2^2(n)/8 and
    log2^3(n)/8, and how far the two quotients lie from an integer.

    At a power of two the logarithm is an integer and the ceilings are
    integer divisions (margin None).  Elsewhere log2 n is irrational, so
    80-digit logarithms, which err by about 1e-78, decide the ceilings
    whenever the returned margin is far larger than that.
    """
    m = max(n, 2)
    if m & (m - 1) == 0:
        k = m.bit_length() - 1
        square, cube, margin = -(-k * k // 8), -(-(k**3) // 8), None
    else:
        with localcontext() as ctx:
            ctx.prec = 80
            log = Decimal(m).ln() / LN2
            quotients = [log**2 / 8, log**3 / 8]
            square, cube = (
                int(q.to_integral_value(rounding=ROUND_CEILING)) for q in quotients
            )
            margin = min(
                min(q - q.to_integral_value(rounding=ROUND_FLOOR),
                    q.to_integral_value(rounding=ROUND_CEILING) - q)
                for q in quotients
            )
    alpha = max(2, square)
    return (alpha, max(alpha, cube)), margin


def test_default_ruling_params_exact():
    """The float ceilings equal exact ones within 2 of every integer
    boundary of log2^2(n)/8 and log2^3(n)/8 and at 2^k - 1, 2^k and 2^k + 1,
    for every node count the file format accepts."""
    top = math.log2(MAX_NODES)
    centers = [2**k for k in range(21)]
    for power in (2, 3):
        k = 1
        while (8 * k) ** (1 / power) <= top + 1:
            centers.append(2 ** ((8 * k) ** (1 / power)))
            k += 1
    candidates = sorted({
        n
        for center in centers
        for n in range(math.floor(center) - 2, math.ceil(center) + 3)
        if 1 <= n <= MAX_NODES
    })
    assert len(candidates) > 5000
    for n in candidates:
        want, margin = exact_ruling_params(n)
        assert margin is None or margin > Decimal("1e-60"), n
        assert default_ruling_params(n) == want, n
