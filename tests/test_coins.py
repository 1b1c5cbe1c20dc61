import itertools
from fractions import Fraction

import pytest

from congestds.errors import DomainError, PrecisionError
from congestds.rounding import IndependentCoinLaw, coin_threshold


class TestDrawCoin:
    def test_p_one_always_heads(self):
        law = IndependentCoinLaw({0: Fraction(0), 1: Fraction(1)}, b=4)
        assert law.resolved_coin(1) == 1
        law.fix_coin(1, 1)  # agreeing with the resolved coin changes nothing
        assert law.resolved_coin(1) == 1
        with pytest.raises(DomainError):
            law.fix_coin(1, 0)

    def test_p_zero_always_tails(self):
        law = IndependentCoinLaw({0: Fraction(1), 2: Fraction(0)}, b=4)
        assert law.resolved_coin(2) == 0
        law.fix_coin(2, 0)
        assert law.resolved_coin(2) == 0
        with pytest.raises(DomainError):
            law.fix_coin(2, 1)

    def test_unrepresentable_probability(self):
        with pytest.raises(PrecisionError):
            coin_threshold(Fraction(1, 3), 4)
        with pytest.raises(PrecisionError):
            IndependentCoinLaw({0: Fraction(1, 3)}, b=4)

    def test_threshold(self):
        assert coin_threshold(Fraction(1, 2), 4) == 8
        assert coin_threshold(Fraction(3, 16), 4) == 3

    def test_pairwise_independence_exhaustive(self):
        # fixing one coin leaves every other coin's probability alone, so
        # every pair has product-form joints
        p = {v: Fraction(v + 1, 16) for v in range(6)}
        for u, v in itertools.combinations(range(6), 2):
            total = Fraction(0)
            for cu, cv in itertools.product((0, 1), repeat=2):
                law = IndependentCoinLaw(p, b=4)
                qu = Fraction(*law.heads[u])
                law.fix_coin(u, cu)
                qv = Fraction(*law.heads[v])
                law.fix_coin(v, cv)
                assert (law.resolved_coin(u), law.resolved_coin(v)) == (cu, cv)
                joint = (qu if cu else 1 - qu) * (qv if cv else 1 - qv)
                pu = p[u] if cu else 1 - p[u]
                pv = p[v] if cv else 1 - p[v]
                assert joint == pu * pv
                total += joint
            assert total == 1

    def test_contradicting_fix_rejected(self):
        law = IndependentCoinLaw({0: Fraction(1, 2)}, b=4)
        fresh = law.state(0)
        assert law.resolved_coin(0) is None
        law.fix_coin(0, 1)
        law.fix_coin(0, 1)  # the same value again is no change
        with pytest.raises(DomainError):
            law.fix_coin(0, 0)
        law.restore(0, fresh)
        assert law.heads[0] == (8, 16)
        law.fix_coin(0, 0)
        assert law.final_coins() == {0: 0}
