import random
from fractions import Fraction

import numpy as np
import pytest
from corpus_util import relabelled_sparse
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

import congestds.lp_init as lp_init
from congestds.errors import StructuralError
from congestds.generators import complete, generate_graph, petersen
from congestds.graph import Graph
from congestds.lp_init import (
    IPM_MIN_NODES,
    initial_fds,
    lp_fractional_opt,
    lp_round_charge,
)
from congestds.oracles import brute_force_mds
from congestds.pipeline import run_mds_n
from congestds.values import fractionality, iota_for

#: slack over the optimum that the repaired LP solution must stay within
TOL = Fraction(1, 4)


def one_of(g):
    """Units of 2**-iota(n) in 1."""
    return 1 << iota_for(g.n)


def infeasible(g, x):
    """Nodes whose inclusive-neighborhood sum of *x* falls short of 1."""
    return [
        v for v in range(g.n)
        if sum(x[u] for u in g.closed_neighbors(v)) < one_of(g)
    ]


def size(g, x):
    return Fraction(sum(x), one_of(g))


class TestLpFractionalOpt:
    def test_complete_graph_near_one(self):
        g = complete(6)
        d = lp_fractional_opt(g)
        assert infeasible(g, d) == []
        assert size(g, d) <= (1 + TOL) * 1

    def test_c5_near_five_thirds(self):
        g = generate_graph("cycle", {"n": 5})
        d = lp_fractional_opt(g)
        assert infeasible(g, d) == []
        assert size(g, d) <= (1 + TOL) * Fraction(5, 3)

    def test_star_center_only(self):
        g = generate_graph("star", {"m": 6})
        d = lp_fractional_opt(g)
        assert infeasible(g, d) == []
        assert size(g, d) <= (1 + TOL) * 1

    def test_edgeless_all_ones(self):
        g = Graph(3, [])
        d = lp_fractional_opt(g)
        assert d == (one_of(g),) * 3

    def test_charges_rounds(self):
        # eps = 1/2 gives eps1 = 1/32, and the solver runs at eps1/2 = 1/64
        eps1 = Fraction(1, 32)
        _, report = run_mds_n(generate_graph("path", {"n": 4}), Fraction(1, 2))
        assert report.stages[0].name == "initial-lp"
        assert report.stages[0].charged_rounds == lp_round_charge(eps1, 2)
        # tol^-4 * log2^2(Delta+2)
        assert lp_round_charge(eps1, 2) == 64**4 * 2**2

    def test_within_factor_of_integral_optimum(self):
        for kind, params in [
            ("cycle", {"n": 7}),
            ("path", {"n": 6}),
            ("grid", {"rows": 2, "cols": 4}),
        ]:
            g = generate_graph(kind, params)
            d = lp_fractional_opt(g)
            opt, _ = brute_force_mds(g)
            assert size(g, d) <= (1 + TOL) * opt


class TestInitialFds:
    def test_values_lifted_to_floor(self):
        g = generate_graph("path", {"n": 3})
        eps = Fraction(1, 2)
        d = initial_fds(g, eps)
        floor = eps / (2 * g.max_degree)
        assert all(Fraction(u, one_of(g)) >= floor for u in d)
        assert infeasible(g, d) == []

    def test_petersen_size_and_fractionality(self):
        g = petersen()
        eps = Fraction(1, 2)
        d = initial_fds(g, eps)
        assert infeasible(g, d) == []
        # LP optimum is 10/4; lift adds at most n * eps/(2*Delta)
        assert size(g, d) <= (1 + eps / 2) * Fraction(10, 4) + 10 * eps / 6
        assert fractionality(d, one_of(g)) >= Fraction(1, 12)

    def test_edgeless(self):
        d = initial_fds(Graph(2, []), Fraction(1, 2))
        assert d == (1024, 1024)

    def test_deterministic(self):
        g = generate_graph("gnp", {"n": 12, "p": 0.3}, seed=5)
        assert initial_fds(g, TOL) == initial_fds(g, TOL)


class TestSolverSplit:
    """Dual simplex below IPM_MIN_NODES nodes, interior point from there on,
    each on a fresh HiGHS instance.  ``_lp_solution`` is the uncached
    solve."""

    def test_method_by_size(self, monkeypatch):
        solvers = []

        class Recording:
            def __getattr__(self, name):
                return getattr(highs, name)

            def _Highs(self):
                solvers.append(highs._Highs())
                return solvers[-1]

        monkeypatch.setattr(lp_init, "highs", Recording())
        for n in (10, IPM_MIN_NODES - 1, IPM_MIN_NODES):
            g = generate_graph("path", {"n": n})
            x = lp_init._lp_solution(g)
            assert infeasible(g, x) == []
        options = [s.getOptions() for s in solvers]
        assert [o.solver for o in options] == ["choose", "choose", "ipm"]
        assert all(o.presolve == "on" and o.simplex_strategy == 1 for o in options)
        assert not any(o.output_flag or o.log_to_console for o in options)

    @pytest.mark.parametrize("side", ["simplex", "ipm"])
    def test_direct_solve_equals_linprog(self, side):
        """The direct HiGHS solve returns exactly the floats of public
        ``scipy.optimize.linprog`` called as the library called it before:
        dense ``highs`` below IPM_MIN_NODES nodes, sparse ``highs-ipm`` from
        there on."""
        lo, hi = (6, IPM_MIN_NODES - 1) if side == "simplex" else (
            IPM_MIN_NODES, IPM_MIN_NODES + 50
        )
        graphs = _random_graphs(random.Random(f"direct:{side}"), 100, lo, hi)
        if side == "ipm":
            graphs.append(relabelled_sparse("direct:1600", 1600, 3.0))
        for g in graphs:
            got = lp_init._solve_covering_lp(g)
            assert [float(v) for v in _linprog_x(g)] == list(got)


def _linprog_x(graph):
    """x of ``scipy.optimize.linprog`` on the covering LP, dense ``highs``
    below IPM_MIN_NODES nodes and sparse ``highs-ipm`` from there on."""
    n = graph.n
    indptr, indices = [0], []
    for v in range(n):
        indices.extend(graph.closed_neighbors(v))
        indptr.append(len(indices))
    neg_a = sparse.csr_matrix(
        (np.full(len(indices), -1.0), indices, indptr), shape=(n, n)
    )
    res = linprog(
        c=np.ones(n),
        A_ub=neg_a if n >= IPM_MIN_NODES else neg_a.toarray(),
        b_ub=-np.ones(n),
        bounds=(0.0, 1.0),
        method="highs-ipm" if n >= IPM_MIN_NODES else "highs",
    )
    assert res.success
    return res.x


def _random_graphs(rng, count, lo, hi):
    """*count* random graphs of lo..hi nodes with 1.5-4 expected degree and
    at least one edge."""
    graphs = []
    while len(graphs) < count:
        n = rng.randint(lo, hi)
        p = rng.uniform(1.5, 4.0) / n
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        if g.max_degree > 0:
            graphs.append(g)
    return graphs


def _fraction_repair(graph, floats):
    """The repair on Fractions: clip to [0, 1], divide by the smallest
    inclusive-neighborhood sum if it is below 1, cap at 1, round up to the
    grid of 2**-iota(n), in units."""
    raw = [Fraction(min(max(float(val), 0.0), 1.0)) for val in floats]
    min_sum = min(
        raw[v] + sum((raw[u] for u in graph.adj[v]), Fraction(0))
        for v in range(graph.n)
    )
    if min_sum < 1:
        raw = [min(Fraction(1), val / min_sum) for val in raw]
    one = one_of(graph)
    return tuple(-((-val * one) // 1) for val in raw), min_sum < 1


@pytest.mark.parametrize("side", ["simplex", "ipm"])
def test_integer_repair_equals_fraction_repair(monkeypatch, side):
    """On 100 graphs on each side of IPM_MIN_NODES, the integer repair of the
    solver's floats gives exactly the values of the Fraction repair."""
    seen = []
    real = lp_init._solve_covering_lp

    def recording(graph):
        seen.append(real(graph))
        return seen[-1]

    monkeypatch.setattr(lp_init, "_solve_covering_lp", recording)
    lo, hi = (6, IPM_MIN_NODES - 1) if side == "simplex" else (
        IPM_MIN_NODES, IPM_MIN_NODES + 50
    )
    scaled = 0
    for g in _random_graphs(random.Random(f"repair:{side}"), 100, lo, hi):
        got = lp_init._lp_solution(g)
        want, was_scaled = _fraction_repair(g, seen[-1])
        assert got == want
        scaled += was_scaled
    # the division by a neighborhood sum below 1 is exercised
    assert scaled > 0


def test_integer_repair_on_arbitrary_floats(monkeypatch):
    """The repair equals the Fraction repair on solver outputs with
    neighborhood sums both below and above 1, including values outside
    [0, 1] that the repair clips."""
    rng = random.Random("repair:floats")
    vector = []
    monkeypatch.setattr(lp_init, "_solve_covering_lp", lambda graph: list(vector))
    sides = set()
    for g in _random_graphs(rng, 100, 3, 40):
        vector[:] = [
            rng.choice([0.0, 1.0, -1e-9, 1.0 + 1e-9, rng.uniform(0.05, 0.9)])
            for _ in range(g.n)
        ]
        if any(
            all(vector[u] <= 0 for u in g.closed_neighbors(v)) for v in range(g.n)
        ):
            with pytest.raises(StructuralError, match="all-zero neighborhood"):
                lp_init._lp_solution(g)
            continue
        want, was_scaled = _fraction_repair(g, vector)
        assert lp_init._lp_solution(g) == want
        sides.add(was_scaled)
    assert sides == {False, True}
