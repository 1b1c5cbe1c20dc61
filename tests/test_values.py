import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from congestds.errors import DomainError
from congestds import values
from congestds.values import (
    EXP_BITS,
    exp_lower,
    fractionality,
    iota_for,
    ln_upper,
    log_star,
)


class TestQuantize:
    """The grid of units 2**-iota(n) that every value is quantized to."""

    def test_iota_examples(self):
        assert iota_for(1) == 0
        assert iota_for(2) == 10
        assert iota_for(8) == 30
        # smallest i with 2**i >= n**10
        for n in range(1, 40):
            i = iota_for(n)
            assert 2**i >= n**10
            if i:
                assert 2 ** (i - 1) < n**10


class TestFractionality:
    def test_minimum_nonzero(self):
        assert fractionality([1, 0, 2], 4) == Fraction(1, 4)

    def test_all_zero_vacuous(self):
        assert fractionality([0, 0], 4) == 1

    def test_integral(self):
        assert fractionality([4, 4], 4) == 1


def float_log_star(n):
    """The iterated logarithm counted on floats, as log_star once was."""
    count, x = 0, float(n)
    while x > 1.0:
        x = math.log2(x)
        count += 1
    return count


def test_log_star():
    """Right at the tower's steps, and equal to the float count on both
    sides of every power of two up to 2**20."""
    want = {1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 16: 3, 17: 4, 65536: 4, 65537: 5}
    assert {n: log_star(n) for n in want} == want
    for k in range(21):
        for n in (2**k - 1, 2**k, 2**k + 1):
            assert log_star(n) == float_log_star(n), n


def test_ln_upper_is_upper_bound():
    for v in (2, 3, 10, 100):
        up = ln_upper(v)
        assert float(up) >= math.log(v)
        assert float(up) - math.log(v) < 1e-12
    with pytest.raises(DomainError):
        ln_upper(0)


def decimal_ln(value):
    # Decimal.ln is correctly rounded; 60 digits leave the true value within
    # 1e-58 of it, far inside the ~1e-16 gap an upper bound keeps
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(value).ln()


def test_exp_lower_is_lower_bound():
    with localcontext() as ctx:
        ctx.prec = 60
        for t in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(41, 2)):
            bound = Decimal(exp_lower(t)) / Decimal(2**EXP_BITS)
            exact = (Decimal(t.numerator) / Decimal(t.denominator)).exp()
            assert bound <= exact
            assert exact - bound < exact * Decimal(2) ** -100


def test_ln_upper_survives_a_low_libm(monkeypatch):
    real_log = math.log

    def low_log(x):
        # three ulps below the true logarithm
        out = real_log(x)
        for _ in range(3):
            out = math.nextafter(out, -math.inf)
        return out

    monkeypatch.setattr(values.math, "log", low_log)
    for v in (2, 3, 10, 12345, 10**9):
        up = ln_upper(v)
        assert Decimal(up.numerator) / Decimal(up.denominator) > decimal_ln(v)
