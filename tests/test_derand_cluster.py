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

    def test_skipped_bits_recorded(self):
        g = Graph(2, [(0, 1)])
        inst = fractional_instance(g, {0: HALF, 1: HALF})
        out = derandomize_clusterwise(inst, single_cluster_decomposition(g))
        # p = 1/2 resolves after the first string bit; the rest are skipped
        assert any(f.skipped for f in out.fixes)
        decided = [f for f in out.fixes if not f.skipped]
        assert len(decided) == 2
        for f in decided:
            assert f.value == (0 if f.s0 < f.s1 else 1)

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
