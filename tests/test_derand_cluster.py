from fractions import Fraction

import pytest

from congestds.bipartite import greedy_distance2_coloring
from congestds.decomp import compute_decomposition, single_cluster_decomposition
from congestds.derand_cluster import (
    derandomize_clusterwise,
    n_factor_two,
    n_one_shot,
)
from congestds.derand_color import derandomize_colorwise
from congestds.errors import PreconditionError
from congestds.graph import Graph
from congestds.rounding import RoundingInstance
from congestds.values import CFDS, validate_cfds

HALF = Fraction(1, 2)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def fractional_instance(graph, p):
    return RoundingInstance(
        graph=graph,
        x=dict(p),
        p=dict(p),
        c={v: Fraction(1) for v in range(graph.n)},
    )


class TestDerandomizeClusterwise:
    def test_no_participants_passthrough(self):
        g = Graph(3, [(0, 1), (1, 2)])
        inst = RoundingInstance(
            graph=g,
            x={0: Fraction(0), 1: Fraction(1), 2: Fraction(0)},
            p={0: Fraction(0), 1: Fraction(1), 2: Fraction(0)},
            c={v: Fraction(1) for v in range(3)},
        )
        out = derandomize_clusterwise(inst, single_cluster_decomposition(g))
        assert out.result.x[1] == 1
        assert out.fixes == []

    def test_k3_matches_size_bound(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        inst = fractional_instance(g, {v: HALF for v in range(3)})
        nd = single_cluster_decomposition(g)
        out = derandomize_clusterwise(inst, nd)
        assert validate_cfds(g, out.result) == []
        assert out.result.size <= out.initial_expectation + Fraction(1, 3**6)

    def test_agrees_with_colorwise_on_size(self):
        g = cycle(5)
        inst = fractional_instance(g, {v: Fraction(3, 8) for v in range(5)})
        cluster = derandomize_clusterwise(inst, single_cluster_decomposition(g))
        colorw = derandomize_colorwise(
            inst, greedy_distance2_coloring(g, range(5))
        )
        assert cluster.result.size == colorw.result.size

    def test_one_record_per_coin(self):
        g = cycle(6)
        inst = fractional_instance(g, {v: Fraction(3, 8) for v in range(6)})
        out = derandomize_clusterwise(inst, compute_decomposition(g, 2))
        assert sorted(f.group for f in out.fixes) == [("coin", v) for v in range(6)]
        for f in out.fixes:
            assert not f.skipped
            assert f.value == (1 if f.s1 < f.s0 else 0)

    def test_simulated_rounds_per_coin(self):
        # each color costs its busiest cluster 2*depth+2 rounds per member
        # coin, plus 2 for the final value exchange
        g = Graph(20, [(i, i + 1) for i in range(19)])
        inst = fractional_instance(g, {v: Fraction(3, 8) for v in range(20)})
        nd = compute_decomposition(g, 2)
        out = derandomize_clusterwise(inst, nd)
        per_color = {}
        for cl in nd.clusters:
            cost = len(cl.members) * (2 * cl.tree.depth() + 2)
            color = nd.color[cl.leader]
            per_color[color] = max(per_color.get(color, 0), cost)
        assert out.simulated_rounds == sum(per_color.values()) + 2
        # clusters 0-5 and 12-17 share color 1, 6-11 and 18-19 color 2; the
        # 6-node clusters have depth 5
        assert out.simulated_rounds == 6 * 12 + 6 * 12 + 2
        assert out.round_bound == out.simulated_rounds

    def test_round_bound_covers_simulated(self):
        g = cycle(6)
        inst = fractional_instance(g, {v: Fraction(3, 8) for v in range(6)})
        nd = compute_decomposition(g, 2)
        out = derandomize_clusterwise(inst, nd)
        assert out.simulated_rounds <= out.round_bound

    def test_separation_precondition(self):
        g = Graph(2, [(0, 1)])
        inst = fractional_instance(g, {0: HALF, 1: HALF})
        nd = single_cluster_decomposition(g)
        nd.k = 1
        with pytest.raises(PreconditionError):
            derandomize_clusterwise(inst, nd)


class TestWrappers:
    def test_n_one_shot_c5(self):
        g = cycle(5)
        xp = CFDS.fds({v: Fraction(1, 3) for v in range(5)})
        result, outcome = n_one_shot(g, xp, F=3)
        assert result.is_integral()
        assert validate_cfds(g, result) == []
        assert result.size <= 3
        assert outcome.simulated_rounds >= 2

    def test_n_one_shot_p3(self):
        g = Graph(3, [(0, 1), (1, 2)])
        xp = CFDS.fds({0: Fraction(0), 1: Fraction(1), 2: Fraction(0)})
        result, _ = n_one_shot(g, xp, F=1)
        assert result.support() == [1]

    def test_n_one_shot_fractionality_check(self):
        g = cycle(5)
        xp = CFDS.fds({v: Fraction(1, 5) for v in range(5)})
        with pytest.raises(PreconditionError):
            n_one_shot(g, xp, F=3)

    def test_n_factor_two_deterministic_case(self):
        g = Graph(3, [(0, 1), (1, 2)])
        xp = CFDS.fds({0: Fraction(0), 1: Fraction(1), 2: Fraction(0)})
        result, _ = n_factor_two(g, xp, eps=1, r=300)
        assert result.x[1] == 1
        assert validate_cfds(g, result) == []

    def test_n_factor_two_r_too_small(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(PreconditionError):
            n_factor_two(g, CFDS.fds({0: HALF, 1: HALF}), eps=HALF, r=10)
