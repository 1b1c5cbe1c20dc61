import itertools
from fractions import Fraction

import pytest

from congestds.errors import DomainError, PrecisionError
from congestds.rounding import IndependentCoinLaw, coin_threshold


def fix_string(law, v, value, b):
    """Pin all b bits of node v's coin string to *value*, most-significant first."""
    for i in range(b):
        law.fix_bit(v, i, (value >> (b - 1 - i)) & 1)


class TestDrawCoin:
    def test_p_one_always_heads(self):
        law = IndependentCoinLaw({0: Fraction(0), 1: Fraction(1)}, b=4)
        assert law.resolved_coin(1) == 1
        fresh = law.state(1)
        for value in range(16):
            fix_string(law, 1, value, 4)
            assert law.resolved_coin(1) == 1
            law.restore(1, fresh)

    def test_p_zero_always_tails(self):
        law = IndependentCoinLaw({0: Fraction(1), 2: Fraction(0)}, b=4)
        assert law.resolved_coin(2) == 0
        fresh = law.state(2)
        for value in range(16):
            fix_string(law, 2, value, 4)
            assert law.resolved_coin(2) == 0
            law.restore(2, fresh)

    def test_unrepresentable_probability(self):
        with pytest.raises(PrecisionError):
            coin_threshold(Fraction(1, 3), 4)
        with pytest.raises(PrecisionError):
            IndependentCoinLaw({0: Fraction(1, 3)}, b=4)

    def test_threshold(self):
        assert coin_threshold(Fraction(1, 2), 4) == 8
        assert coin_threshold(Fraction(3, 16), 4) == 3

    def test_pairwise_independence_exhaustive(self):
        # b=4: over all 2^8 joint strings of any two nodes, each coin is
        # heads with its own probability and every pair has product-form joints
        p = {v: Fraction(v + 1, 16) for v in range(6)}
        for u, v in itertools.combinations(range(6), 2):
            outcomes = []
            for su, sv in itertools.product(range(16), repeat=2):
                law = IndependentCoinLaw(p, b=4)
                fix_string(law, u, su, 4)
                fix_string(law, v, sv, 4)
                outcomes.append((law.resolved_coin(u), law.resolved_coin(v)))
            total = len(outcomes)
            for cu, cv in itertools.product((0, 1), repeat=2):
                count = sum(1 for o in outcomes if o == (cu, cv))
                pu = p[u] if cu else 1 - p[u]
                pv = p[v] if cv else 1 - p[v]
                assert Fraction(count, total) == pu * pv

    def test_seed_length_checked(self):
        law = IndependentCoinLaw({0: Fraction(1, 2)}, b=4)
        # out of order: bit 1 before bit 0
        with pytest.raises(DomainError):
            law.fix_bit(0, 1, 1)
        law.fix_bit(0, 0, 0)
        law.fix_bit(0, 1, 1)
        law.fix_bit(0, 1, 1)  # the same value again is no change
        with pytest.raises(DomainError):
            law.fix_bit(0, 1, 0)
        fix_string(law, 0, 0b0110, 4)
        # past the string's last bit
        with pytest.raises(DomainError):
            law.fix_bit(0, 4, 0)
