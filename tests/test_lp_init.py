import random
from fractions import Fraction

import pytest
from scipy import sparse

import congestds.lp_init as lp_init
from congestds.errors import DomainError
from congestds.generators import complete, generate_graph, petersen
from congestds.graph import Graph
from congestds.lp_init import (
    IPM_MIN_NODES,
    initial_fds,
    lp_fractional_opt,
    lp_round_charge,
)
from congestds.oracles import brute_force_mds
from congestds.sim import RoundStats
from congestds.values import CFDS, validate_cfds

TOL = Fraction(1, 4)


class TestLpFractionalOpt:
    def test_complete_graph_near_one(self):
        g = complete(6)
        d = lp_fractional_opt(g, TOL)
        assert validate_cfds(g, d) == []
        assert d.size <= (1 + TOL) * 1

    def test_c5_near_five_thirds(self):
        g = generate_graph("cycle", {"n": 5})
        d = lp_fractional_opt(g, TOL)
        assert validate_cfds(g, d) == []
        assert d.size <= (1 + TOL) * Fraction(5, 3)

    def test_star_center_only(self):
        g = generate_graph("star", {"m": 6})
        d = lp_fractional_opt(g, TOL)
        assert validate_cfds(g, d) == []
        assert d.size <= (1 + TOL) * 1

    def test_edgeless_all_ones(self):
        g = Graph(3, [])
        d = lp_fractional_opt(g, TOL)
        assert d.x == {v: Fraction(1) for v in range(3)}

    def test_charges_rounds(self):
        stats = RoundStats()
        lp_fractional_opt(generate_graph("path", {"n": 4}), TOL, stats)
        assert stats.charged_rounds == lp_round_charge(TOL, 2)
        assert stats.charges[0][0] == "lp-solver"

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            lp_fractional_opt(Graph(1, []), 0)

    def test_within_factor_of_integral_optimum(self):
        for kind, params in [
            ("cycle", {"n": 7}),
            ("path", {"n": 6}),
            ("grid", {"rows": 2, "cols": 4}),
        ]:
            g = generate_graph(kind, params)
            d = lp_fractional_opt(g, TOL)
            opt, _ = brute_force_mds(g)
            assert d.size <= (1 + TOL) * opt


class TestInitialFds:
    def test_values_lifted_to_floor(self):
        g = generate_graph("path", {"n": 3})
        eps = Fraction(1, 2)
        d = initial_fds(g, eps)
        floor = eps / (2 * g.max_degree)
        assert all(val >= floor for val in d.x.values())
        assert validate_cfds(g, d) == []

    def test_petersen_size_and_fractionality(self):
        from congestds.values import fractionality

        g = petersen()
        eps = Fraction(1, 2)
        d = initial_fds(g, eps)
        assert validate_cfds(g, d) == []
        # LP optimum is 10/4; lift adds at most n * eps/(2*Delta)
        assert d.size <= (1 + eps / 2) * Fraction(10, 4) + 10 * eps / 6
        assert fractionality(d) >= Fraction(1, 12)

    def test_edgeless(self):
        d = initial_fds(Graph(2, []), Fraction(1, 2))
        assert d.x == {0: Fraction(1), 1: Fraction(1)}

    def test_deterministic(self):
        g = generate_graph("gnp", {"n": 12, "p": 0.3}, seed=5)
        assert initial_fds(g, TOL).x == initial_fds(g, TOL).x


class TestSolverSplit:
    """Dual simplex below IPM_MIN_NODES nodes, interior point from there on,
    both on a sparse constraint matrix.  ``__wrapped__`` bypasses the cache."""

    def test_method_by_size(self, monkeypatch):
        calls = []
        real = lp_init.linprog

        def recording(*args, **kwargs):
            calls.append((kwargs["method"], kwargs["A_ub"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(lp_init, "linprog", recording)
        for n in (10, IPM_MIN_NODES):
            g = generate_graph("path", {"n": n})
            x = lp_init._lp_solution.__wrapped__(g)
            assert validate_cfds(g, CFDS.fds(dict(enumerate(x)))) == []
        assert [method for method, _ in calls] == ["highs", "highs-ipm"]
        assert all(sparse.issparse(a) for _, a in calls)

    def test_simplex_side_equals_dense_solve(self, monkeypatch):
        """Below the constant, the sparse solve repairs to exactly the
        solution of a dense-matrix ``highs`` solve."""
        real = lp_init.linprog

        def dense_highs(c, A_ub, b_ub, bounds, method):
            n = len(c)
            return real(
                c=c,
                A_ub=A_ub.toarray(),
                b_ub=b_ub,
                bounds=[(0.0, 1.0)] * n,
                method="highs",
            )

        rng = random.Random(8)
        graphs = []
        while len(graphs) < 20:
            n = rng.randint(10, IPM_MIN_NODES - 1)
            p = rng.uniform(1.5, 4.0) / n
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < p
            ]
            g = Graph(n, edges)
            if g.max_degree > 0:
                graphs.append(g)
        solve = lp_init._lp_solution.__wrapped__
        sparse_x = [solve(g) for g in graphs]
        monkeypatch.setattr(lp_init, "linprog", dense_highs)
        assert sparse_x == [solve(g) for g in graphs]
