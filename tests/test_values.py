import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from congestds.errors import DomainError
from congestds import values
from congestds.graph import Graph
from congestds.values import (
    CFDS,
    EXP_BITS,
    ceil_to_multiple,
    exp_lower,
    fractionality,
    iota_for,
    is_multiple_of,
    ln_upper,
    log_star,
    quantize_up,
    validate_cfds,
)


class TestQuantize:
    def test_point_three_at_two_nodes(self):
        q = quantize_up(Fraction(3, 10), 2)
        assert q == Fraction(308, 1024)
        assert (q * 1024).denominator == 1

    def test_zero(self):
        assert quantize_up(0, 5) == 0

    def test_one(self):
        assert quantize_up(1, 5) == 1

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            quantize_up(Fraction(3, 2), 4)
        with pytest.raises(DomainError):
            quantize_up(Fraction(-1, 2), 4)

    @given(
        st.fractions(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=40),
    )
    def test_bounds_and_integrality(self, v, n):
        q = quantize_up(v, n)
        iota = iota_for(n)
        assert v <= q <= min(v + Fraction(1, 2**iota), 1)
        assert (q * 2**iota).denominator == 1

    def test_iota_examples(self):
        assert iota_for(1) == 0
        assert iota_for(2) == 10
        assert iota_for(8) == 30
        # smallest i with 2**-i <= n**-10
        for n in range(1, 40):
            i = iota_for(n)
            assert 2**i >= n**10
            if i:
                assert 2 ** (i - 1) < n**10

    def test_ceil_to_multiple(self):
        unit = Fraction(1, 8)
        assert ceil_to_multiple(Fraction(1, 3), unit) == Fraction(3, 8)
        assert ceil_to_multiple(Fraction(1, 4), unit) == Fraction(1, 4)
        assert is_multiple_of(Fraction(5, 8), unit)
        assert not is_multiple_of(Fraction(1, 3), unit)


class TestCFDS:
    def test_triangle_half_values(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        d = CFDS.fds({v: Fraction(1, 2) for v in range(3)})
        assert validate_cfds(g, d) == []

    def test_isolated_node_unsatisfied(self):
        g = Graph(1, [])
        d = CFDS.fds({0: Fraction(0)})
        assert validate_cfds(g, d) == [0]

    def test_path_middle_dominates(self):
        g = Graph(3, [(0, 1), (1, 2)])
        d = CFDS.fds({0: Fraction(0), 1: Fraction(1), 2: Fraction(0)})
        assert validate_cfds(g, d) == []

    def test_node_set_mismatch(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(DomainError):
            validate_cfds(g, CFDS.fds({0: Fraction(1)}))

    def test_value_range(self):
        with pytest.raises(DomainError):
            CFDS.fds({0: Fraction(3, 2)})

    def test_size_and_support(self):
        d = CFDS.fds({0: Fraction(1, 4), 1: Fraction(0), 2: Fraction(1, 2)})
        assert d.size == Fraction(3, 4)
        assert d.support() == [0, 2]
        assert not d.is_integral()
        assert CFDS.from_set(range(3), [1]).is_integral()


class TestFractionality:
    def test_minimum_nonzero(self):
        d = CFDS.fds({0: Fraction(1, 4), 1: Fraction(0), 2: Fraction(1, 2)})
        assert fractionality(d) == Fraction(1, 4)

    def test_all_zero_vacuous(self):
        d = CFDS(
            x={0: Fraction(0), 1: Fraction(0)},
            c={0: Fraction(0), 1: Fraction(0)},
        )
        assert fractionality(d) == 1

    def test_integral(self):
        assert fractionality(CFDS.fds({0: Fraction(1), 1: Fraction(1)})) == 1


def test_log_star():
    assert log_star(1) == 0
    assert log_star(2) == 1
    assert log_star(4) == 2
    assert log_star(16) == 3
    assert log_star(65536) == 4


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
