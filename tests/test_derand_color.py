from fractions import Fraction

import pytest

from corpus_util import to_units, unit_instance

from congestds.bipartite import Coloring, greedy_distance2_coloring
from congestds.derand_color import delta_one_shot, derandomize_colorwise
from congestds.cds import undominated
from congestds.errors import PreconditionError
from congestds.graph import Graph

HALF = Fraction(1, 2)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def fractional_instance(graph, p):
    return unit_instance(graph, p)


class TestDerandomizeColorwise:
    def test_no_participants_passthrough(self):
        g = Graph(3, [(0, 1), (1, 2)])
        inst = unit_instance(g, {0: Fraction(0), 1: Fraction(1), 2: Fraction(0)})
        out = derandomize_colorwise(inst, Coloring(color={}, num_colors=0))
        assert out.result == [1]
        assert out.simulated_rounds == 0
        assert out.decisions == []

    def test_k2_all_fractional(self):
        g = Graph(2, [(0, 1)])
        inst = fractional_instance(g, {0: HALF, 1: HALF})
        col = greedy_distance2_coloring(g, [0, 1])
        out = derandomize_colorwise(inst, col)
        assert undominated(g, out.result) == []
        # derandomize already checks size <= expectation + 1/n^7
        assert len(out.result) <= out.initial_expectation + Fraction(1, 2**7)
        assert len(out.decisions) == 2
        for rec in out.decisions:
            assert rec.coin == (1 if rec.a1 < rec.a0 else 0)

    def test_rounds_three_per_color(self):
        g = cycle(5)
        inst = fractional_instance(g, {v: Fraction(3, 8) for v in range(5)})
        col = greedy_distance2_coloring(g, range(5))
        out = derandomize_colorwise(inst, col)
        assert out.simulated_rounds == 3 * col.num_colors

    def test_wrong_cover_rejected(self):
        g = Graph(2, [(0, 1)])
        inst = fractional_instance(g, {0: HALF, 1: HALF})
        with pytest.raises(PreconditionError):
            derandomize_colorwise(inst, Coloring(color={0: 1}, num_colors=1))

    def test_improper_coloring_rejected(self):
        g = Graph(2, [(0, 1)])
        inst = fractional_instance(g, {0: HALF, 1: HALF})
        with pytest.raises(PreconditionError):
            derandomize_colorwise(inst, Coloring(color={0: 1, 1: 1}, num_colors=1))

    def test_deterministic(self):
        g = cycle(6)
        inst = fractional_instance(g, {v: Fraction(3, 8) for v in range(6)})
        col = greedy_distance2_coloring(g, range(6))
        a = derandomize_colorwise(inst, col)
        b = derandomize_colorwise(inst, col)
        assert a.result == b.result


class TestDeltaOneShot:
    def test_p3_unit_input(self):
        g = Graph(3, [(0, 1), (1, 2)])
        xp = to_units([0, 1, 0])
        result, outcome = delta_one_shot(g, xp, F=1)
        assert result == [1]

    def test_star_center(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        xp = to_units([1, 0, 0, 0])
        result, _ = delta_one_shot(g, xp, F=1)
        assert result == [0]

    def test_c5_uniform_third(self):
        g = cycle(5)
        xp = to_units([Fraction(1, 3)] * 5)
        result, outcome = delta_one_shot(g, xp, F=3)
        assert undominated(g, result) == []
        assert len(result) <= 3
        assert outcome.charged_rounds > 0

    def test_too_fractional_rejected(self):
        g = cycle(5)
        xp = to_units([Fraction(1, 5)] * 5)
        with pytest.raises(PreconditionError, match="fractionality 1/3"):
            delta_one_shot(g, xp, F=3)

    def test_invalid_fds_rejected(self):
        g = cycle(5)
        xp = to_units([Fraction(1, 4)] * 5)
        with pytest.raises(PreconditionError, match="not a valid fractional"):
            delta_one_shot(g, xp, F=4)
