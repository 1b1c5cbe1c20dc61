import random
from fractions import Fraction

import pytest

from corpus_util import relabelled_sparse, to_units, unit_instance

from congestds.bipartite import coloring_round_cost, greedy_distance2_coloring
from congestds.decomp import (
    compute_decomposition,
    decomposition_charge,
    single_cluster_decomposition,
)
from congestds.derand_cluster import derandomize_clusterwise, n_one_shot
from congestds.derand_color import derandomize_colorwise
from congestds.cds import undominated
from congestds.errors import PreconditionError
from congestds.graph import Graph
from congestds.lp_init import initial_fds
from congestds.pipeline import PipelineParams, run_mds_n
from congestds.rounding import CoinState, branch_sum, one_shot_instance

HALF = Fraction(1, 2)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def fractional_instance(graph, p):
    return unit_instance(graph, p)


class TestDerandomizeClusterwise:
    def test_no_participants_passthrough(self):
        g = Graph(3, [(0, 1), (1, 2)])
        inst = unit_instance(g, {0: Fraction(0), 1: Fraction(1), 2: Fraction(0)})
        out = derandomize_clusterwise(inst, single_cluster_decomposition(g))
        assert out.result == [1]
        assert out.fixes == []

    def test_k3_matches_size_bound(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        inst = fractional_instance(g, {v: HALF for v in range(3)})
        nd = single_cluster_decomposition(g)
        out = derandomize_clusterwise(inst, nd)
        assert undominated(g, out.result) == []
        assert len(out.result) <= out.initial_expectation + Fraction(1, 3**7)

    def test_agrees_with_colorwise_on_size(self):
        g = cycle(5)
        inst = fractional_instance(g, {v: Fraction(3, 8) for v in range(5)})
        cluster = derandomize_clusterwise(inst, single_cluster_decomposition(g))
        colorw = derandomize_colorwise(
            inst, greedy_distance2_coloring(g, range(5))
        )
        assert len(cluster.result) == len(colorw.result)

    def test_one_record_per_coin(self):
        g = cycle(6)
        inst = fractional_instance(g, {v: Fraction(3, 8) for v in range(6)})
        out = derandomize_clusterwise(inst, compute_decomposition(g, 2))
        assert sorted(f.group for f in out.fixes) == [("coin", v) for v in range(6)]
        for f in out.fixes:
            assert not f.skipped
            assert f.value == (1 if f.s1 < f.s0 else 0)

    def test_simulated_rounds_per_class(self):
        # 3 rounds per distance-2 class of each color's coins, plus 2 for
        # the final value exchange
        g = Graph(20, [(i, i + 1) for i in range(19)])
        inst = fractional_instance(g, {v: Fraction(3, 8) for v in range(20)})
        nd = compute_decomposition(g, 2)
        out = derandomize_clusterwise(inst, nd)
        assert out.simulated_rounds == class_rounds(inst, nd)
        # clusters 0-5 and 12-17 share color 1, 6-11 and 18-19 color 2; a
        # path's coins fall into 3 distance-2 classes, i mod 3, so each color
        # costs 3 classes whatever its clusters' depth
        assert out.simulated_rounds == 2 + 3 * 3 + 3 * 3

    def test_sparse_graph_rounds_per_class(self):
        """On a sparse graph the decomposition is one cluster of one color,
        so the rounds are 3 per distance-2 class of all its coins."""
        g = relabelled_sparse("rounds:1600", 1600, 3.0)
        nd = compute_decomposition(g, 2)
        assert len(nd.clusters) == 1
        _, report = run_mds_n(g, HALF)
        xprime = initial_fds(g, PipelineParams.from_graph(g, HALF).eps1)
        inst = one_shot_instance(g, xprime)
        classes = greedy_distance2_coloring(g, inst.participating()).num_colors
        assert report.stages[1].name == "one-shot"
        assert report.stages[1].sim_rounds == class_rounds(inst, nd)
        assert report.stages[1].sim_rounds == 2 + 3 * classes
        # the coloring the class order needs is charged, at Delta both sides
        assert report.stages[1].charged_rounds == decomposition_charge(
            g.n, 2
        ) + coloring_round_cost(g.max_degree, g.max_degree, g.n)

    def test_separation_precondition(self):
        g = Graph(2, [(0, 1)])
        inst = fractional_instance(g, {0: HALF, 1: HALF})
        nd = single_cluster_decomposition(g)
        nd.k = 1
        with pytest.raises(PreconditionError):
            derandomize_clusterwise(inst, nd)


def coins_by_color(inst, decomp):
    """Each node's cluster leader, and each decomposition color's
    participating coins, ascending."""
    leader_of = {v: cl.leader for cl in decomp.clusters for v in cl.members}
    by_color = {}
    for v in inst.participating():
        by_color.setdefault(decomp.color[leader_of[v]], []).append(v)
    return leader_of, by_color


def class_rounds(inst, decomp):
    """2 + 3 per greedy distance-2 class of each decomposition color's
    participating coins."""
    _, by_color = coins_by_color(inst, decomp)
    return 2 + sum(
        3 * greedy_distance2_coloring(inst.graph, coins).num_colors
        for coins in by_color.values()
    )


def sparse_connected(rng, n, extra):
    """A random recursive tree on n nodes plus *extra* random edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(extra):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, sorted(edges))


class TestParallelReplay:
    """Within a decomposition color, the coins of one distance-2 class are
    pairwise at distance >= 3 in G, so deciding every coin of the class from
    the state before it gives the coins and branch sums that the sequential
    run logs."""

    @staticmethod
    def cases():
        rng = random.Random("parallel-replay")
        for _ in range(60):
            n = rng.randint(4, 90)
            g = sparse_connected(rng, n, rng.randint(0, n // 2))
            xprime = to_units([
                Fraction(rng.choice([0, 1, 1, 2, 3, 5, 8, 16]), 16)
                for _ in range(n)
            ])
            inst = one_shot_instance(g, xprime)
            for decomp in (
                compute_decomposition(g, 2),
                compute_decomposition(g, 3),
                single_cluster_decomposition(g),
            ):
                yield inst, decomp

    def test_classes_decide_in_parallel(self):
        shared_classes = 0
        for inst, decomp in self.cases():
            g = inst.graph
            out = derandomize_clusterwise(inst, decomp)
            leader_of, by_color = coins_by_color(inst, decomp)
            fixes = {f.group[1]: f for f in out.fixes}
            assert all(f.cluster == leader_of[v] for v, f in fixes.items())
            state = CoinState(inst, {})
            scale = max(g.n, 2) ** 10
            order = []
            for color in sorted(by_color):
                classes = greedy_distance2_coloring(g, by_color[color]).classes()
                for members in classes:
                    for v in members:
                        near = g.bfs_distances([v], limit=2)
                        assert set(near).intersection(members) == {v}
                    # every branch sum of the class read before any fix
                    decided = {}
                    for v in members:
                        s0 = branch_sum(state, v, 0, scale)
                        s1 = branch_sum(state, v, 1, scale)
                        decided[v] = (color, s0, s1, 1 if s1 < s0 else 0)
                    for v, record in decided.items():
                        f = fixes[v]
                        assert (f.color, f.s0, f.s1, f.value) == record
                        state.fix(v, record[3])
                    if len({leader_of[v] for v in members}) > 1:
                        shared_classes += 1
                    order.extend(members)
            assert [f.group[1] for f in out.fixes] == order
            assert out.simulated_rounds == class_rounds(inst, decomp)
        # same-colored clusters did share classes, in parallel
        assert shared_classes > 0


class TestWrappers:
    def test_n_one_shot_c5(self):
        g = cycle(5)
        xp = to_units([Fraction(1, 3)] * 5)
        result, outcome = n_one_shot(g, xp, F=3)
        assert undominated(g, result) == []
        assert len(result) <= 3
        assert outcome.simulated_rounds >= 2

    def test_n_one_shot_p3(self):
        g = Graph(3, [(0, 1), (1, 2)])
        xp = to_units([0, 1, 0])
        result, _ = n_one_shot(g, xp, F=1)
        assert result == [1]

    def test_n_one_shot_fractionality_check(self):
        g = cycle(5)
        xp = to_units([Fraction(1, 5)] * 5)
        with pytest.raises(PreconditionError, match="fractionality 1/3"):
            n_one_shot(g, xp, F=3)
