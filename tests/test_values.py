import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from congestds.derand_cluster import n_one_shot
from congestds.derand_color import delta_one_shot
from congestds.errors import DomainError
from congestds import values
from congestds.graph import Graph
from congestds.values import (
    CFDS,
    EXP_BITS,
    exp_lower,
    fraction_sum,
    fractionality,
    iota_for,
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

    def test_range_checked_on_both_maps(self):
        with pytest.raises(DomainError, match=r"x\(0\) = -1/4 outside"):
            CFDS.fds({0: Fraction(-1, 4)})
        with pytest.raises(DomainError, match=r"c\(1\) = 4/3 outside"):
            CFDS(x={0: 0, 1: 1}, c={0: 1, 1: Fraction(4, 3)})
        # values that are not yet Fractions are wrapped
        d = CFDS(x={0: 1, 1: "1/3"}, c={0: 0.5, 1: 1})
        assert d.x == {0: Fraction(1), 1: Fraction(1, 3)}
        assert d.c == {0: Fraction(1, 2), 1: Fraction(1)}
        assert all(type(val) is Fraction for val in [*d.x.values(), *d.c.values()])

    def test_trusted_outputs_equal_checked_ones(self):
        # the one-shot stages build their outputs without the constructor's
        # checks; each must equal what the checking constructor makes
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        xp = CFDS.fds({v: Fraction(1, 3) for v in range(6)})
        outs = []
        for stage in (n_one_shot, delta_one_shot):
            result, outcome = stage(g, xp, 3)
            outs += [result, outcome.result]
        for d in outs:
            assert d == CFDS(x=dict(d.x), c=dict(d.c))
            assert all(
                type(val) is Fraction for val in [*d.x.values(), *d.c.values()]
            )

    @pytest.mark.parametrize("dyadic", [True, False])
    def test_validate_matches_fraction_sums(self, dyadic):
        """The integer check returns what summing Fractions returns, on
        dyadic and non-dyadic (thirds, fifths, sevenths) values, with
        constraints placed on, just above and just below each node's sum."""

        def reference(graph, d):
            return [
                v for v in range(graph.n)
                if d.x[v] + sum((d.x[u] for u in graph.adj[v]), Fraction(0))
                < d.c[v]
            ]

        rng = random.Random(f"validate:{dyadic}")
        dens = [2, 4, 8, 1 << 20, 1 << 70] if dyadic else [3, 5, 6, 7, 1 << 10, 9]
        violated = 0
        for _ in range(150):
            n = rng.randint(1, 14)
            g = Graph(n, [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < 0.3
            ])
            x = {}
            for v in range(n):
                den = rng.choice(dens)
                x[v] = Fraction(rng.randint(0, den), den) if rng.random() < 0.8 else 0
            c = {}
            for v in range(n):
                total = x[v] + sum((x[u] for u in g.adj[v]), Fraction(0))
                nudge = Fraction(rng.choice([-1, 0, 0, 1]), rng.choice(dens))
                c[v] = min(Fraction(1), max(Fraction(0), total + nudge))
            d = CFDS(x=x, c=c)
            got = validate_cfds(g, d)
            assert got == reference(g, d)
            violated += bool(got)
        assert violated > 20

    def test_size_equals_fraction_sum(self):
        rng = random.Random("size")
        for _ in range(100):
            vals = [
                Fraction(rng.randint(0, d), d)
                for d in (rng.choice([1, 3, 8, 10, 1 << 40]) for _ in range(12))
            ]
            d = CFDS.fds(dict(enumerate(vals)))
            assert d.size == sum(vals, Fraction(0))
            assert fraction_sum(vals) == sum(vals, Fraction(0))
        assert fraction_sum([]) == 0

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
