import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from corpus_util import (
    enumerate_coins,
    replay_expectations,
    scan_expected_value,
    to_units,
    unit_instance,
)

from congestds.derand_cluster import n_one_shot
from congestds.derand_color import delta_one_shot
from congestds.errors import DomainError, PrecisionError, PreconditionError
from congestds.graph import Graph
from congestds.rounding import (
    CoinState,
    RoundingInstance,
    branch_sum,
    conditional_expected_value,
    derandomize,
    expected_output_size,
    one_shot_instance,
    rounded_output,
    scale_values,
)
from congestds.values import iota_for, ln_upper

HALF = Fraction(1, 2)


def k2_half():
    return unit_instance(Graph(2, [(0, 1)]), {0: HALF, 1: HALF})


def unmet(inst, chosen):
    """Nodes whose constraint the rounded set misses: the count of chosen
    nodes in N[v], in units, falls short of c(v)."""
    chosen = set(chosen)
    return [
        v for v in range(inst.graph.n)
        if len(chosen.intersection(inst.graph.closed_neighbors(v))) * inst.one
        < inst.c[v]
    ]


def ceil_units(value, one):
    """*value* rounded up to a whole number of units 1/one, in units."""
    return -((-value * one) // 1)


def expectation(inst, fixed, u):
    """conditional_expected_value, read from a state built from *fixed*,
    as one Fraction."""
    num, shift = conditional_expected_value(CoinState(inst, fixed), u)
    return Fraction(num, 1 << shift)


class TestInstanceValidation:
    def test_missing_node_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(DomainError):
            RoundingInstance(graph=g, x={0: 512}, c={0: 512})

    def test_participating(self):
        inst = unit_instance(
            Graph(3, [(0, 1), (1, 2)]), {0: Fraction(0), 1: HALF, 2: Fraction(1)}
        )
        assert inst.participating() == [1]
        assert inst.one == 1 << inst.iota
        assert inst.x == {0: 0, 1: inst.one // 2, 2: inst.one}

    def test_error_cases(self):
        g = Graph(2, [(0, 1)])  # iota = 10, one = 1024
        ok = {0: 512, 1: 512}

        def build(x=ok, c=ok):
            return RoundingInstance(graph=g, x=dict(x), c=dict(c))

        with pytest.raises(
            PrecisionError, match=r"^x\(1\) = 1/3 is not a whole number of units 2\*\*-10$"
        ):
            build(x={0: 512, 1: Fraction(1, 3)})
        with pytest.raises(PrecisionError, match=r"^c\(0\) = 0.5 is not"):
            build(c={0: 0.5, 1: 512})
        with pytest.raises(DomainError, match=r"^x\(0\) = -512 outside \[0, 1024\]$"):
            build(x={0: -512, 1: 512})
        with pytest.raises(DomainError, match=r"^x\(1\) = 1536 outside \[0, 1024\]$"):
            build(x={0: 512, 1: 1536})
        with pytest.raises(DomainError, match=r"^c\(1\) = 1280 outside \[0, 1024\]$"):
            build(c={0: 512, 1: 1280})

    def test_units_match_fraction_reference(self):
        """Participation and the rounded output of random coin outcomes equal
        their Fraction definitions on random dyadic instances: phase 1 puts
        a node at 1 if its x is 1 or its coin succeeded, and phase 2 raises
        every node whose inclusive-neighborhood phase-1 sum falls short of
        its constraint."""
        rng = random.Random("instance-units")
        for _ in range(100):
            n = rng.randint(1, 8)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.4])
            one = 1 << iota_for(max(n, 2))
            x, c = {}, {}
            for v in range(n):
                pick = [0, 1, one, one // 2, rng.randint(0, one)]
                x[v] = Fraction(rng.choice(pick), one)
                c[v] = Fraction(rng.choice(pick), one)
            inst = unit_instance(g, x, c)
            S = [v for v in range(n) if 0 < x[v] < 1]
            assert inst.participating() == S
            coins = {v: rng.randint(0, 1) for v in S}
            X = {v: 1 if x[v] == 1 or coins.get(v) else 0 for v in range(n)}
            want = {
                v: 1 if X[v] + sum(X[u] for u in g.adj[v]) < c[v] else X[v]
                for v in range(n)
            }
            assert rounded_output(inst, coins) == [v for v in range(n) if want[v]]


class TestPhases:
    def test_phase1_success_and_failure(self):
        # with every constraint 0, phase 2 raises nothing
        inst = unit_instance(
            Graph(2, [(0, 1)]), {0: HALF, 1: HALF}, {0: Fraction(0), 1: Fraction(0)}
        )
        assert rounded_output(inst, {0: 1, 1: 0}) == [0]

    def test_phase1_missing_coin(self):
        with pytest.raises(DomainError, match=r"not so at \[1\]$"):
            rounded_output(k2_half(), {0: 1})
        with pytest.raises(DomainError, match=r"not so at \[0, 1\]$"):
            rounded_output(k2_half(), {})

    def test_coinless_node_rejected(self):
        # node 1 has x = 1 and node 2 has x = 0: neither holds a coin
        g = Graph(3, [(0, 1), (1, 2)])
        inst = unit_instance(g, {0: HALF, 1: Fraction(1), 2: Fraction(0)})
        for coins, wrong in (({0: 0, 1: 1}, "[1]"), ({0: 1, 2: 0}, "[2]"),
                             ({0: 1, 1: 1, 2: 0}, "[1, 2]")):
            with pytest.raises(DomainError, match=f"not so at {re.escape(wrong)}$"):
                rounded_output(inst, coins)
        assert rounded_output(inst, {0: 0}) == [1]

    def test_phase2_raises_uncovered(self):
        inst = k2_half()
        out = rounded_output(inst, {0: 0, 1: 0})
        assert out == [0, 1]
        assert unmet(inst, out) == []

    def test_phase2_keeps_covered(self):
        assert rounded_output(k2_half(), {0: 1, 1: 0}) == [0]

    def test_output_always_valid(self):
        inst = k2_half()
        for coins in itertools.product((0, 1), repeat=2):
            out = rounded_output(inst, dict(enumerate(coins)))
            assert unmet(inst, out) == []


class TestInstanceBuilders:
    def test_one_shot_scales_by_log(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])  # C5, delta_tilde 3
        xp = to_units([Fraction(1, 3)] * 5)
        inst = one_shot_instance(g, xp)
        target = Fraction(xp[0], inst.one) * ln_upper(3)
        for v in range(5):
            assert inst.x[v] == ceil_units(target, inst.one)
        assert inst.c == {v: inst.one for v in range(5)}

    def test_one_shot_caps_at_one(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])  # delta_tilde 4, ln 4 > 1
        xp = to_units([Fraction(1)] * 4)
        inst = one_shot_instance(g, xp)
        assert inst.x == {v: inst.one for v in range(4)}

    def test_one_shot_needs_nontrivial_neighborhood(self):
        # one check, in the stage check both one-shot wrappers share
        for stage in (n_one_shot, delta_one_shot):
            with pytest.raises(PreconditionError, match="at least one edge"):
                stage(Graph(1, []), (1,), 1)

    def test_one_shot_needs_one_value_per_node(self):
        g = Graph(3, [(0, 1), (1, 2)])
        for stage in (n_one_shot, delta_one_shot):
            for xp in (to_units([1, 1]), to_units([1, 1, 1, 1])):
                with pytest.raises(DomainError, match="values for 3 nodes"):
                    stage(g, xp, 1)

    def test_scale_values_matches_fraction_reference(self):
        """Integer scaling equals factor * x' capped at 1 and rounded up to a
        whole unit at the ambient width, for x' in units of 2**-iota(n), at
        the input's own width and at twice its node count, for both kinds
        of factor."""
        rng = random.Random("scale-values")
        for _ in range(200):
            n = rng.randint(1, 40)
            one_n = 1 << iota_for(n)
            xp = tuple(
                rng.choice([0, one_n, rng.randint(0, one_n), -(-one_n // 3)])
                for _ in range(n)
            )
            factor = rng.choice(
                [ln_upper(rng.randint(2, 60)), 1 + Fraction(1, rng.randint(1, 9))]
            )
            ambient = rng.choice([n, 2 * n])
            x = scale_values(xp, factor, ambient)
            one = 1 << iota_for(max(ambient, 2))
            for v in range(n):
                val = factor * Fraction(xp[v], one_n)
                want = one if val >= 1 else ceil_units(val, one)
                assert type(x[v]) is int
                assert x[v] == want


class TestExactExpectations:
    def test_uncover_prob_k2(self):
        assert enumerate_coins(k2_half(), {}, 0)[1] == Fraction(1, 4)

    def test_conditional_value_k2(self):
        # Z_0 = 1 when both fail (prob 1/4), else X_0 = coin_0
        num, shift = conditional_expected_value(CoinState(k2_half(), {}), 0)
        assert Fraction(num, 1 << shift) == Fraction(3, 4)

    def test_conditioning_on_coin(self):
        inst = k2_half()
        assert enumerate_coins(inst, {0: 1}, 0) == (Fraction(1), Fraction(0))
        assert expectation(inst, {0: 1}, 0) == 1
        assert enumerate_coins(inst, {0: 0}, 0) == (HALF, HALF)
        assert expectation(inst, {0: 0}, 0) == HALF

    def test_law_of_total_expectation(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        p = {v: Fraction(1, 4) for v in range(4)}
        inst = unit_instance(g, p)
        total = expected_output_size(inst, {})
        branch = Fraction(0)
        for val in (0, 1):
            w = p[1] if val else 1 - p[1]
            branch += w * expected_output_size(inst, {1: val})
        assert branch == total

    def test_matches_exhaustive_enumeration(self):
        g = Graph(3, [(0, 1), (1, 2)])
        p = {0: HALF, 1: Fraction(1, 4), 2: HALF}
        inst = unit_instance(g, p)
        total = Fraction(0)
        for coins in itertools.product((0, 1), repeat=3):
            w = Fraction(1)
            for v in range(3):
                w *= p[v] if coins[v] else 1 - p[v]
            out = rounded_output(inst, dict(enumerate(coins)))
            total += w * len(out)
        assert expected_output_size(inst, {}) == total

    def test_per_node_values_match_enumeration(self):
        # coins of different probabilities, a node with x = 1, a node with
        # x = 0 and constraints below 1, with one coin already fixed
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (5, 0)])
        x = {0: Fraction(3, 16), 1: Fraction(1, 8), 2: Fraction(1),
             3: HALF, 4: Fraction(5, 16), 5: Fraction(0)}
        c = {0: Fraction(3, 4), 1: Fraction(1), 2: HALF, 3: Fraction(1),
             4: Fraction(5, 8), 5: Fraction(1)}
        inst = unit_instance(g, x, c)
        S = inst.participating()
        fixed = {3: 1}
        free = [v for v in S if v not in fixed]
        expect = {v: Fraction(0) for v in range(6)}
        uncover = {v: Fraction(0) for v in range(6)}
        for bits in itertools.product((0, 1), repeat=len(free)):
            coins = dict(fixed)
            coins.update(zip(free, bits))
            w = Fraction(1)
            for v, bit in zip(free, bits):
                w *= x[v] if bit else 1 - x[v]
            X = {v: 1 if x[v] == 1 or coins.get(v) else 0 for v in range(6)}
            out = rounded_output(inst, coins)
            for v in range(6):
                expect[v] += w * (v in out)
                if X[v] + sum(X[u] for u in g.adj[v]) < c[v]:
                    uncover[v] += w
        for v in range(6):
            assert expectation(inst, fixed, v) == expect[v]
            assert enumerate_coins(inst, fixed, v) == (expect[v], uncover[v])

    def test_branch_sum_equals_fraction_ceilings(self):
        """branch_sum over N[v] with live coin v set to 0 or 1 equals the sum
        over N[v] of ceil(alpha * n^10), in units n^-10, where alpha is the
        enumerated expectation with v fixed that way, under random partial
        fixes."""
        rng = random.Random("branch-sum:coin")
        checked = 0
        for _ in range(60):
            n = rng.randint(2, 9)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.4])
            width = max(n, 2)
            xp = to_units([Fraction(rng.randint(1, 16), 16) for v in range(n)])
            if g.delta_tilde < 2:
                continue
            inst = one_shot_instance(g, xp)
            S = inst.participating()
            fixed = {
                v: rng.randint(0, 1) for v in rng.sample(S, rng.randint(0, len(S)))
            }
            state = CoinState(inst, fixed)
            for v in (v for v in S if v not in fixed):
                for coin in (0, 1):
                    want = 0
                    for u in g.closed_neighbors(v):
                        alpha, _ = enumerate_coins(inst, {**fixed, v: coin}, u)
                        want += math.ceil(alpha * width**10)
                    assert branch_sum(state, v, coin, width**10) == want
                    checked += 1
            total = sum(
                (enumerate_coins(inst, fixed, u)[0] for u in range(n)), Fraction(0)
            )
            assert expected_output_size(inst, fixed) == total
        assert checked > 100


def random_fixes(rng, inst):
    """Each participating coin left live or fixed to 0 or 1 at random."""
    return {
        v: kind - 1
        for v in inst.participating()
        if (kind := rng.randrange(3))
    }


def random_fds(rng, n):
    """Values with zeros and values that scale past 1 (so x in {0, 1})."""
    return to_units([
        Fraction(rng.choice([0, 1, 1, 2, 3, 5, 8, 16]), 16) for v in range(n)
    ])


def random_graph(rng, n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4])


def delta_host(graph, xprime):
    """The bipartite host of the color-ordered one-shot step: constraint
    copies 0..n-1 with c = 1 and no coin, value copies n..2n-1 with c = 0."""
    n = graph.n
    host = Graph(2 * n, [(v, n + u) for v in range(n)
                         for u in graph.closed_neighbors(v)])
    scaled = scale_values(xprime, ln_upper(graph.delta_tilde), 2 * n)
    one = 1 << iota_for(2 * n)
    x = {b: 0 if b < n else scaled[b - n] for b in range(2 * n)}
    c = {b: one if b < n else 0 for b in range(2 * n)}
    return RoundingInstance(graph=host, x=x, c=c)


def random_units(rng, n, one):
    """Unit-valued x or c: 0, one, or any whole number of units between."""
    return {
        v: Fraction(rng.choice([0, one, rng.randint(1, one - 1)]), one)
        for v in range(n)
    }


class TestClosedForm:
    """conditional_expected_value equals the coin enumeration on one-shot,
    delta-host and random unit-valued instances under random partial fixes,
    over neighborhoods holding live coins, coins fixed to 0 and to 1, and
    coinless nodes with x = 0 and x = one."""

    @pytest.mark.parametrize("kind", ["one-shot", "delta-host", "units"])
    def test_matches_enumeration(self, kind):
        rng = random.Random(f"closed-form:{kind}")
        seen = set()
        found = 0
        while found < 40:
            g = random_graph(rng, rng.randint(2, 9))
            if g.delta_tilde < 2:
                continue
            found += 1
            if kind == "units":
                one = 1 << iota_for(g.n)
                inst = unit_instance(
                    g, random_units(rng, g.n, one), random_units(rng, g.n, one)
                )
            elif kind == "one-shot":
                inst = one_shot_instance(g, random_fds(rng, g.n))
            else:
                inst = delta_host(g, random_fds(rng, g.n))
            fixed = random_fixes(rng, inst)
            for u in range(inst.graph.n):
                want, _ = enumerate_coins(inst, fixed, u)
                assert expectation(inst, fixed, u) == want
            for v, xv in inst.x.items():
                if v in fixed:
                    seen.add(f"fixed to {fixed[v]}")
                elif 0 < xv < inst.one:
                    seen.add("live")
                else:
                    seen.add(f"x = {xv // inst.one}")
        assert seen == {"live", "fixed to 0", "fixed to 1", "x = 0", "x = 1"}


def scan_decisions(inst, order):
    """derandomize's ``(v, s0, s1, coin)`` decisions, with every branch
    expectation taken by :func:`scan_expected_value` from a dict of fixes."""
    n = max(inst.graph.n, 2)
    fixed, out = {}, []
    for v in order:
        sums = []
        for coin in (0, 1):
            fixed[v] = coin
            total = Fraction(0)
            for u in inst.graph.closed_neighbors(v):
                alpha = Fraction(*scan_expected_value(inst, fixed, u))
                total += Fraction(math.ceil(alpha * n**10), n**10)
            sums.append(total)
        fixed[v] = coin = 1 if sums[1] < sums[0] else 0
        out.append((v, sums[0], sums[1], coin))
    return out


class TestIncrementalState:
    """The incremental CoinState equals a rescan of each closed neighborhood,
    on one-shot instances and color-ordered bipartite hosts (nodes with
    x = one, with x = 0 and with c = 0) of 2-40 nodes, after a random
    sequence of fixes."""

    @staticmethod
    def instances():
        rng = random.Random("incremental-state")
        for i in range(200):
            n = rng.randint(2, 40)
            p = rng.choice([0.05, 0.15, 0.4])
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            maker = one_shot_instance if i % 2 else delta_host
            yield rng, maker(g, random_fds(rng, n))

    def test_matches_rescan(self):
        seen = set()
        for rng, inst in self.instances():
            live = inst.participating()
            rng.shuffle(live)
            done = rng.randint(0, len(live))
            state, fixed = CoinState(inst, {}), {}
            for v in live[:done]:
                fixed[v] = coin = rng.randint(0, 1)
                state.fix(v, coin)
                seen.add(f"fixed to {coin}")
            fresh = CoinState(inst, fixed)
            for name in ("own", "ones", "miss", "k"):
                assert getattr(state, name) == getattr(fresh, name), name
            for u in range(inst.graph.n):
                num, shift = conditional_expected_value(state, u)
                want = Fraction(*scan_expected_value(inst, fixed, u))
                assert Fraction(num, 1 << shift) == want
                seen.update(k for k, on in (("c = 0", not inst.c[u]),
                                            ("x = one", inst.x[u] == inst.one)) if on)
            for v in live[done:]:
                for coin in (0, 1):
                    branch = {**fixed, v: coin}
                    for u in inst.graph.closed_neighbors(v):
                        num, shift = conditional_expected_value(state, u, v, coin)
                        want = Fraction(*scan_expected_value(inst, branch, u))
                        assert Fraction(num, 1 << shift) == want
                seen.add("branch")
        assert seen == {"fixed to 0", "fixed to 1", "c = 0", "x = one", "branch"}

    def test_decisions_match_rescan(self):
        for rng, inst in self.instances():
            order = inst.participating()
            rng.shuffle(order)
            _, decisions, _ = derandomize(inst, order)
            assert decisions == scan_decisions(inst, order)


class TestDerandomize:
    """derandomize fixes the coins in the order given, one decision each,
    and keeps coin 1 exactly when its branch sum is the smaller."""

    @staticmethod
    def cases():
        rng = random.Random("derandomize")
        for n in (6, 9, 12):
            g = random_graph(rng, n)
            yield rng, one_shot_instance(g, random_fds(rng, n))
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        yield rng, delta_host(g, to_units([Fraction(1, 3)] * 6))

    def test_decisions_follow_order(self):
        seen = 0
        for rng, inst in self.cases():
            order = inst.participating()
            rng.shuffle(order)
            result, decisions, _ = derandomize(inst, order)
            assert [d[0] for d in decisions] == order
            for v, s0, s1, coin in decisions:
                assert coin == (1 if s1 < s0 else 0)
            assert unmet(inst, result) == []
            seen += len(order)
        assert seen > 0

    def test_each_fix_raises_expectation_by_less_than_its_slack(self):
        for rng, inst in self.cases():
            order = inst.participating()
            rng.shuffle(order)
            result, decisions, initial = derandomize(inst, order)
            trace = [initial] + replay_expectations(
                inst, [(v, coin) for v, _, _, coin in decisions]
            )
            n = max(inst.graph.n, 2)
            for (v, _, _, _), before, after in zip(decisions, trace, trace[1:]):
                slack = Fraction(len(inst.graph.closed_neighbors(v)), n**10)
                assert after - before < slack
            # with every coin fixed the expectation is the output size
            assert trace[-1] == len(result)

    def test_order_must_name_each_coin_once(self):
        inst = k2_half()
        with pytest.raises(DomainError):
            derandomize(inst, [0])
        with pytest.raises(DomainError):
            derandomize(inst, [0, 1, 0])
        with pytest.raises(DomainError):
            derandomize(inst, [0, 0, 1])

    def test_order_rejects_a_node_without_a_coin(self):
        g = Graph(3, [(0, 1), (1, 2)])
        inst = unit_instance(g, {0: HALF, 1: Fraction(1), 2: Fraction(0)})
        with pytest.raises(DomainError):
            derandomize(inst, [0, 1])
        # outside the host's nodes, even where node n - 1 holds a live coin:
        # neither a wrap-around to node n - 1 nor an IndexError
        k2 = k2_half()
        for v in (-1, k2.graph.n):
            with pytest.raises(DomainError, match=f"^node {v} has no undecided coin"):
                derandomize(k2, [0, v])
