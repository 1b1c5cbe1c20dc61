import itertools
from fractions import Fraction

import pytest

from congestds import rounding
from congestds.errors import DomainError, EnumerationBudgetError
from congestds.graph import Graph
from congestds.rounding import (
    IndependentCoinLaw,
    RoundingInstance,
    conditional_expected_value,
    exact_uncover_prob,
    expected_output_size,
    factor_two_instance,
    one_shot_instance,
    phase1,
    phase2,
    run_phases,
)
from congestds.values import CFDS, ln_upper, quantize_up, validate_cfds

HALF = Fraction(1, 2)


def k2_half():
    g = Graph(2, [(0, 1)])
    return RoundingInstance(
        graph=g,
        x={0: HALF, 1: HALF},
        p={0: HALF, 1: HALF},
        c={0: Fraction(1), 1: Fraction(1)},
    )


class TestInstanceValidation:
    def test_p_below_x_rejected(self):
        g = Graph(1, [])
        with pytest.raises(DomainError):
            RoundingInstance(
                graph=g, x={0: HALF}, p={0: Fraction(1, 4)}, c={0: Fraction(1)}
            )

    def test_missing_node_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(DomainError):
            RoundingInstance(graph=g, x={0: HALF}, p={0: HALF}, c={0: HALF})

    def test_participating(self):
        inst = RoundingInstance(
            graph=Graph(3, [(0, 1), (1, 2)]),
            x={0: Fraction(0), 1: HALF, 2: Fraction(1)},
            p={0: Fraction(0), 1: HALF, 2: Fraction(1)},
            c={v: Fraction(1) for v in range(3)},
        )
        assert inst.participating() == [1]
        assert inst.deterministic_value(0) == 0
        assert inst.deterministic_value(2) == 1

    def test_ratio_capped_and_quantized(self):
        inst = RoundingInstance(
            graph=Graph(2, [(0, 1)]),
            x={0: Fraction(1, 4), 1: HALF},
            p={0: Fraction(3, 4), 1: HALF},
            c={0: Fraction(1), 1: Fraction(1)},
        )
        # 1/3 rounded up to the fixed-point grid, never down
        assert inst.ratio(0) >= Fraction(1, 3)
        assert inst.ratio(0) - Fraction(1, 3) <= Fraction(1, 1 << 10)
        assert inst.ratio(1) == 1


class TestPhases:
    def test_phase1_success_and_failure(self):
        inst = k2_half()
        assert phase1(inst, {0: 1, 1: 0}) == {0: Fraction(1), 1: Fraction(0)}

    def test_phase1_missing_coin(self):
        with pytest.raises(DomainError):
            phase1(k2_half(), {0: 1})

    def test_phase2_raises_uncovered(self):
        inst = k2_half()
        out = phase2(inst, phase1(inst, {0: 0, 1: 0}))
        assert out.x == {0: Fraction(1), 1: Fraction(1)}
        assert validate_cfds(inst.graph, out) == []

    def test_phase2_keeps_covered(self):
        inst = k2_half()
        out = phase2(inst, phase1(inst, {0: 1, 1: 0}))
        assert out.x == {0: Fraction(1), 1: Fraction(0)}

    def test_output_always_valid(self):
        inst = k2_half()
        for coins in itertools.product((0, 1), repeat=2):
            law = IndependentCoinLaw({0: HALF, 1: HALF}, b=4)
            law.fix_coin(0, coins[0])
            law.fix_coin(1, coins[1])
            out = run_phases(inst, law)
            assert validate_cfds(inst.graph, out) == []


class TestInstanceBuilders:
    def test_one_shot_scales_by_log(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])  # C5, delta_tilde 3
        xp = CFDS.fds({v: Fraction(1, 3) for v in range(5)})
        inst = one_shot_instance(g, xp)
        target = Fraction(1, 3) * ln_upper(3)
        for v in range(5):
            assert inst.x[v] == quantize_up(target, 5)
            assert inst.p[v] == inst.x[v]

    def test_one_shot_caps_at_one(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])  # delta_tilde 4, ln 4 > 1
        xp = CFDS.fds({v: Fraction(1) for v in range(4)})
        inst = one_shot_instance(g, xp)
        assert inst.x == {v: Fraction(1) for v in range(4)}

    def test_one_shot_needs_nontrivial_neighborhood(self):
        with pytest.raises(DomainError):
            one_shot_instance(Graph(1, []), CFDS.fds({0: Fraction(1)}))

    def test_factor_two_threshold(self):
        g = Graph(2, [(0, 1)])
        r = 8  # threshold 2/r = 1/4
        xp = CFDS.fds({0: Fraction(1, 8), 1: Fraction(1, 4)})
        inst = factor_two_instance(g, xp, eps=Fraction(1, 2), r=r)
        # (1+eps)*1/8 = 3/16 < 1/4 keeps the halving coin
        assert inst.p[0] == HALF
        assert inst.x[0] == Fraction(3, 16)
        # (1+eps)*1/4 = 3/8 >= 1/4 becomes deterministic
        assert inst.p[1] == Fraction(1)

    def test_factor_two_rejects_bad_eps(self):
        g = Graph(1, [])
        with pytest.raises(DomainError):
            factor_two_instance(g, CFDS.fds({0: HALF}), eps=0, r=4)


class TestExactExpectations:
    def test_uncover_prob_k2(self):
        inst = k2_half()
        law = IndependentCoinLaw({0: HALF, 1: HALF}, b=4)
        assert exact_uncover_prob(inst, law, 0) == Fraction(1, 4)

    def test_conditional_value_k2(self):
        inst = k2_half()
        law = IndependentCoinLaw({0: HALF, 1: HALF}, b=4)
        # Z_0 = 1 when both fail (prob 1/4), else X_0 = coin_0
        assert conditional_expected_value(inst, law, 0) == Fraction(3, 4)

    def test_conditioning_on_coin(self):
        inst = k2_half()
        law = IndependentCoinLaw({0: HALF, 1: HALF}, b=4)
        fresh = law.state(0)
        law.fix_coin(0, 1)
        assert exact_uncover_prob(inst, law, 0) == 0
        with pytest.raises(DomainError):
            law.fix_coin(0, 0)
        law.restore(0, fresh)
        law.fix_coin(0, 0)
        assert exact_uncover_prob(inst, law, 0) == HALF

    def test_law_of_total_expectation(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        p = {v: Fraction(1, 4) for v in range(4)}
        inst = RoundingInstance(
            graph=g, x=dict(p), p=dict(p), c={v: Fraction(1) for v in range(4)}
        )
        law = IndependentCoinLaw(p, b=4)
        total = expected_output_size(inst, law)
        branch = Fraction(0)
        fresh = law.state(1)
        for val in (0, 1):
            law.fix_coin(1, val)
            w = p[1] if val else 1 - p[1]
            branch += w * expected_output_size(inst, law)
            law.restore(1, fresh)
        assert branch == total
        assert expected_output_size(inst, law) == total

    def test_matches_exhaustive_enumeration(self):
        g = Graph(3, [(0, 1), (1, 2)])
        p = {0: HALF, 1: Fraction(1, 4), 2: HALF}
        inst = RoundingInstance(
            graph=g, x=dict(p), p=dict(p), c={v: Fraction(1) for v in range(3)}
        )
        total = Fraction(0)
        for coins in itertools.product((0, 1), repeat=3):
            w = Fraction(1)
            law = IndependentCoinLaw(p, b=4)
            for v in range(3):
                w *= p[v] if coins[v] else 1 - p[v]
                law.fix_coin(v, coins[v])
            out = run_phases(inst, law)
            total += w * out.size
        assert expected_output_size(inst, IndependentCoinLaw(p, b=4)) == total

    def test_per_node_values_match_enumeration(self):
        # ratios below 1 (one of them quantized), a node with p = 1 and
        # constraints below 1, with one coin already fixed
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
        x = {0: Fraction(3, 16), 1: Fraction(1, 8), 2: Fraction(1, 4),
             3: HALF, 4: Fraction(5, 16)}
        p = {0: HALF, 1: Fraction(1, 4), 2: Fraction(1), 3: HALF,
             4: Fraction(3, 4)}
        c = {0: Fraction(3, 4), 1: Fraction(1), 2: HALF, 3: Fraction(1),
             4: Fraction(5, 8)}
        inst = RoundingInstance(graph=g, x=x, p=p, c=c)
        S = inst.participating()
        law = IndependentCoinLaw({v: p[v] for v in S}, b=4)
        fixed = {3: 1}
        free = [v for v in S if v not in fixed]
        expect = {v: Fraction(0) for v in range(5)}
        uncover = {v: Fraction(0) for v in range(5)}
        for bits in itertools.product((0, 1), repeat=len(free)):
            coins = dict(fixed)
            coins.update(zip(free, bits))
            w = Fraction(1)
            for v, bit in zip(free, bits):
                w *= p[v] if bit else 1 - p[v]
            X = phase1(inst, coins)
            out = phase2(inst, X)
            for v in range(5):
                expect[v] += w * out.x[v]
                if X[v] + sum(X[u] for u in g.adj[v]) < c[v]:
                    uncover[v] += w
        for v, coin in fixed.items():
            law.fix_coin(v, coin)
        for v in range(5):
            assert conditional_expected_value(inst, law, v) == expect[v]
            assert exact_uncover_prob(inst, law, v) == uncover[v]

    def test_prefix_bits_refine_marginal(self):
        law = IndependentCoinLaw({0: Fraction(5, 16)}, b=4)
        assert Fraction(*law.heads[0]) == Fraction(5, 16)
        law.fix_bit(0, 0, 0)  # string in [0, 1/2)
        assert Fraction(*law.heads[0]) == Fraction(5, 8)
        law.fix_bit(0, 1, 1)  # string in [1/4, 1/2): all >= 5/16? no
        assert Fraction(*law.heads[0]) == Fraction(1, 4)
        assert law.prefix[0] == (2, 0b01)

    def test_budget_enforced(self, monkeypatch):
        # star around node 0; the leaves' coins have p = 1/2 and distinct
        # ratios 1/16, 1/8, 1/4, 1/2, so all 16 subset sums stay below c = 1
        g = Graph(5, [(0, v) for v in range(1, 5)])
        x = {0: Fraction(0)}
        x.update({v: Fraction(1, 2 ** (6 - v)) for v in range(1, 5)})
        p = {v: (HALF if v else Fraction(0)) for v in range(5)}
        inst = RoundingInstance(
            graph=g, x=x, p=p, c={v: Fraction(1) for v in range(5)}
        )
        assert [inst.ratio(v) for v in range(1, 5)] == [
            Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), HALF
        ]
        law = IndependentCoinLaw({v: HALF for v in range(1, 5)}, b=4)
        monkeypatch.setattr(rounding, "MAX_DP_STATES", 1 << 3)
        with pytest.raises(EnumerationBudgetError):
            exact_uncover_prob(inst, law, 0)
        # 16 states fit in a limit of 2**4
        monkeypatch.setattr(rounding, "MAX_DP_STATES", 1 << 4)
        assert exact_uncover_prob(inst, law, 0) == 1
