import itertools
import math
import random
from fractions import Fraction

import pytest

from congestds import rounding
from congestds.errors import DomainError, EnumerationBudgetError, PrecisionError
from congestds.graph import Graph
from congestds.rounding import (
    IndependentCoinLaw,
    RoundingInstance,
    branch_sum,
    conditional_expected_value,
    exact_uncover_prob,
    expected_output_size,
    factor_two_instance,
    one_shot_instance,
    phase1,
    phase2,
    run_phases,
    scale_values,
)
from congestds.values import CFDS, iota_for, ln_upper, quantize_up, validate_cfds

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

    def test_error_cases(self):
        g = Graph(2, [(0, 1)])  # iota = 10
        ok = {0: HALF, 1: HALF}

        def build(x=ok, p=ok, c=ok):
            return RoundingInstance(graph=g, x=dict(x), p=dict(p), c=dict(c))

        with pytest.raises(
            PrecisionError, match=r"^x\(1\) = 1/3 is not transmittable at width 10$"
        ):
            build(x={0: HALF, 1: Fraction(1, 3)}, p={0: HALF, 1: Fraction(1)})
        with pytest.raises(PrecisionError, match=r"^c\(0\) = 1/2048 is not"):
            build(c={0: Fraction(1, 2048), 1: HALF})
        with pytest.raises(DomainError, match=r"^p\(1\) = 1/4 < x\(1\) = 1/2$"):
            build(p={0: HALF, 1: Fraction(1, 4)})
        # p < x is reported before either value's range
        with pytest.raises(DomainError, match=r"^p\(0\) = 1 < x\(0\) = 2$"):
            build(x={0: 2, 1: HALF}, p={0: 1, 1: HALF})
        with pytest.raises(DomainError, match=r"^x\(0\) = -1/2 outside \[0, 1\]$"):
            build(x={0: -HALF, 1: HALF})
        with pytest.raises(DomainError, match=r"^p\(1\) = 3/2 outside \[0, 1\]$"):
            build(p={0: HALF, 1: Fraction(3, 2)})
        with pytest.raises(DomainError, match=r"^c\(1\) = 5/4 outside \[0, 1\]$"):
            build(c={0: HALF, 1: Fraction(5, 4)})
        # a range error comes before a precision error of the same value
        with pytest.raises(DomainError, match=r"^c\(0\) = 4/3 outside"):
            build(c={0: Fraction(4, 3), 1: HALF})

    def test_units_match_fraction_reference(self):
        """Ratios, deterministic values, constraint units and participation
        equal their Fraction definitions on random dyadic instances."""
        rng = random.Random("instance-units")
        for _ in range(100):
            n = rng.randint(1, 8)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.4])
            one = 1 << iota_for(max(n, 2))
            x, p, c = {}, {}, {}
            for v in range(n):
                pick = [0, 1, one, one // 2, rng.randint(0, one)]
                a, b = sorted(rng.choice(pick) for _ in range(2))
                x[v], p[v] = Fraction(a, one), Fraction(b, one)
                c[v] = Fraction(rng.choice(pick), one)
            inst = RoundingInstance(graph=g, x=x, p=p, c=c)
            for v in range(n):
                if p[v] == 0:
                    ratio = Fraction(0)
                elif x[v] >= p[v]:
                    ratio = Fraction(1)
                else:
                    ratio = quantize_up(x[v] / p[v], max(n, 2))
                assert inst.ratio(v) == ratio
                assert inst.ratio_units[v] == ratio * one
                det = ratio if p[v] == 1 else Fraction(0)
                assert inst.deterministic_value(v) == det
                assert inst.det_units[v] == det * one
                assert inst.c_units[v] == c[v] * one
            assert inst.participating() == [v for v in range(n) if 0 < p[v] < 1]


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

    def test_phase2_rejects_values_off_the_grid(self):
        inst = k2_half()  # iota = 10
        with pytest.raises(PrecisionError, match=r"^X\(1\) = 1/3 is not"):
            phase2(inst, {0: HALF, 1: Fraction(1, 3)})

    def test_phase2_rejects_values_outside_unit_range(self):
        # phase 2 builds its output without re-checking it, so it checks X
        inst = k2_half()
        with pytest.raises(DomainError, match=r"^X\(0\) = 2 outside"):
            phase2(inst, {0: Fraction(2), 1: HALF})

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

    def test_scale_values_matches_fraction_reference(self):
        """Integer scaling equals factor * x' capped at 1 and quantized up,
        on dyadic and non-dyadic x' and both kinds of factor."""
        rng = random.Random("scale-values")
        for _ in range(200):
            n = rng.randint(1, 40)
            den = rng.choice([3, 7, 16, 1 << 30, 12])
            xp = CFDS.fds({v: Fraction(rng.randint(0, den), den) for v in range(n)})
            factor = rng.choice(
                [ln_upper(rng.randint(2, 60)), 1 + Fraction(1, rng.randint(1, 9))]
            )
            r = rng.choice([None, rng.randint(2, 64)])
            x, p = scale_values(xp, factor, n, r)
            for v in range(n):
                val = factor * xp.x[v]
                want = Fraction(1) if val >= 1 else quantize_up(val, max(n, 2))
                assert x[v] == want
                if r is None:
                    assert p[v] == want
                else:
                    assert p[v] == (HALF if want < Fraction(2, r) else 1)

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

    def test_branch_sum_equals_fraction_ceilings(self):
        """branch_sum equals the sum over the nodes of ceil(alpha * n^10) /
        n^10 under random partial laws."""
        rng = random.Random("branch-sum:coin")
        for _ in range(60):
            n = rng.randint(2, 9)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.4])
            width = max(n, 2)
            b = iota_for(width)
            xp = CFDS.fds({v: Fraction(rng.randint(1, 16), 16) for v in range(n)})
            if g.delta_tilde < 2:
                continue
            inst = one_shot_instance(g, xp)
            S = inst.participating()
            law = IndependentCoinLaw({v: inst.p[v] for v in S}, b=b)
            for v in rng.sample(S, rng.randint(0, len(S))):
                law.fix_coin(v, rng.randint(0, 1))
            unit = Fraction(1, width**10)
            nodes = rng.sample(range(n), rng.randint(1, n))
            want = Fraction(0)
            for u in nodes:
                alpha = conditional_expected_value(inst, law, u)
                want += Fraction(math.ceil(alpha * width**10), width**10)
            assert branch_sum(inst, law, nodes, unit) == want
            total = sum(
                (conditional_expected_value(inst, law, u) for u in range(n)),
                Fraction(0),
            )
            assert expected_output_size(inst, law) == total

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


def dp_expected_value(inst, law, u):
    """E[Z_u] read off the neighborhood DP's joint law, the reference that
    the closed form must match."""
    states, denom = rounding._neighborhood_states(inst, law, u)
    total = Fraction(0)
    for (cc, s), num in states.items():
        if s is not rounding.SAT:
            xu = Fraction(1)
        elif cc is None:
            xu = inst.deterministic_value(u)
        else:
            xu = inst.ratio(u) if cc else Fraction(0)
        total += Fraction(num, denom) * xu
    return total


def random_law(rng, inst):
    """A law over the participating coins with each coin left at p, fixed
    either way, or live at an arbitrary (good, width)."""
    S = inst.participating()
    law = IndependentCoinLaw(
        {v: inst.p[v] for v in S}, b=iota_for(max(inst.ambient_n, 2))
    )
    for v in S:
        kind = rng.randrange(4)
        if kind == 1:
            law.fix_coin(v, rng.randint(0, 1))
        elif kind == 2:
            width = rng.randint(2, 40)
            law.heads[v] = (rng.randint(1, width - 1), width)
    return law


def random_fds(rng, n):
    """Values with zeros and values that scale past 1 (so p in {0, 1})."""
    return CFDS.fds({
        v: Fraction(rng.choice([0, 1, 1, 2, 3, 5, 8, 16]), 16) for v in range(n)
    })


def random_graph(rng, n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4])


def delta_host(graph, xprime):
    """The bipartite host of the color-ordered one-shot step: constraint
    copies 0..n-1 with c = 1 and no coin, value copies n..2n-1 with c = 0."""
    n = graph.n
    host = Graph(2 * n, [(v, n + u) for v in range(n)
                         for u in graph.closed_neighbors(v)])
    scaled, _ = scale_values(xprime, ln_upper(graph.delta_tilde), 2 * n)
    zero = {b: Fraction(0) for b in range(2 * n)}
    x, p, c = dict(zero), dict(zero), dict(zero)
    for v in range(n):
        x[n + v] = p[n + v] = scaled[v]
        c[v] = Fraction(1)
    return RoundingInstance(graph=host, x=x, p=p, c=c, ambient_n=2 * n)


def skewed_instance(rng, graph):
    """Coins with ratio x/p below 1, c below 1 on some nodes, p in {0, 1}
    on others."""
    x, p, c = {}, {}, {}
    for v in range(graph.n):
        pv = Fraction(rng.choice([0, 4, 8, 12, 16, 16]), 16)
        x[v] = min(pv, Fraction(rng.randint(0, 16), 16))
        p[v] = pv
        c[v] = Fraction(rng.choice([4, 8, 12, 16]), 16)
    return RoundingInstance(graph=graph, x=x, p=p, c=c)


class TestClosedForm:
    """conditional_expected_value takes a closed form whenever one success
    covers the node; it must equal the DP wherever it applies, and the DP
    must still serve every other node."""

    @staticmethod
    def counting_dp(monkeypatch):
        calls = []
        dp = rounding._neighborhood_states

        def counted(inst, law, center):
            calls.append(center)
            return dp(inst, law, center)

        monkeypatch.setattr(rounding, "_neighborhood_states", counted)
        return calls

    def instances(self, kind):
        rng = random.Random(f"closed-form:{kind}")
        found = 0
        while found < 40:
            g = random_graph(rng, rng.randint(2, 9))
            if g.delta_tilde < 2:
                continue
            found += 1
            xprime = random_fds(rng, g.n)
            if kind == "one-shot":
                inst = one_shot_instance(g, xprime)
            elif kind == "delta-host":
                inst = delta_host(g, xprime)
            else:
                inst = skewed_instance(rng, g)
            yield inst, random_law(rng, inst)

    @pytest.mark.parametrize("kind", ["one-shot", "delta-host"])
    def test_matches_dp_without_calling_it(self, kind, monkeypatch):
        for inst, law in self.instances(kind):
            want = [dp_expected_value(inst, law, u) for u in range(inst.graph.n)]
            calls = self.counting_dp(monkeypatch)
            got = [conditional_expected_value(inst, law, u)
                   for u in range(inst.graph.n)]
            monkeypatch.undo()
            assert got == want
            assert calls == []

    def test_ratio_below_constraint_falls_back(self, monkeypatch):
        fell_back = 0
        for inst, law in self.instances("skewed"):
            want = [dp_expected_value(inst, law, u) for u in range(inst.graph.n)]
            calls = self.counting_dp(monkeypatch)
            got = [conditional_expected_value(inst, law, u)
                   for u in range(inst.graph.n)]
            monkeypatch.undo()
            assert got == want
            # exactly the nodes with a live coin whose ratio is below c(u)
            need = [
                u for u in range(inst.graph.n)
                if any(
                    w in law.heads and law.resolved_coin(w) is None
                    and inst.ratio_units[w] < inst.c_units[u]
                    for w in inst.graph.closed_neighbors(u)
                )
            ]
            assert calls == need
            fell_back += len(calls)
        assert fell_back > 0

    def test_one_shot_expectation_never_takes_the_dp(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the DP ran on a one-shot instance")

        rng = random.Random("closed-form:no-dp")
        g = random_graph(rng, 12)
        inst = one_shot_instance(g, random_fds(rng, 12))
        law = IndependentCoinLaw(
            {v: inst.p[v] for v in inst.participating()}, b=inst.iota
        )
        want = sum(
            (dp_expected_value(inst, law, u) for u in range(g.n)), Fraction(0)
        )
        monkeypatch.setattr(rounding, "_neighborhood_states", refuse)
        assert expected_output_size(inst, law) == want

