import json
import math
from fractions import Fraction

import pytest

import congestds.derand_color as derand_color
import congestds.lp_init as lp_init
from congestds.bipartite import coloring_round_cost
from congestds.cds import undominated
from congestds.decomp import decomposition_charge
from congestds.errors import DomainError, PreconditionError
from congestds.generators import complete, generate_graph, gnp_connected, petersen
from congestds.graph import Graph
from congestds.oracles import brute_force_mds
from congestds.pipeline import (
    PipelineParams,
    run_cds,
    run_mds_delta,
    run_mds_n,
)
from congestds.values import ln_upper


class TestParams:
    def test_schedule(self):
        g = petersen()
        p = PipelineParams.from_graph(g, Fraction(1, 2))
        assert p.eps1 == Fraction(1, 32)
        assert p.delta_tilde == 4

    def test_eps_range(self):
        g = complete(3)
        with pytest.raises(DomainError):
            PipelineParams.from_graph(g, 0)
        with pytest.raises(DomainError):
            PipelineParams.from_graph(g, 2)


@pytest.mark.parametrize("runner", [run_mds_n, run_mds_delta])
class TestMdsPipelines:
    def test_complete_graph(self, runner):
        g = complete(5)
        ds, report = runner(g, Fraction(1, 2))
        assert undominated(g, ds) == []
        assert len(ds) <= 2  # bound allows slack over OPT = 1
        assert report.valid

    def test_single_node(self, runner):
        ds, report = runner(Graph(1, []), Fraction(1, 2))
        assert ds == [0]
        assert report.final_size == 1 and report.ratio == 1

    def test_edgeless(self, runner):
        ds, report = runner(Graph(3, []), Fraction(1, 2))
        assert ds == [0, 1, 2]
        assert report.stages[0].name == "trivial"

    def test_star(self, runner):
        g = generate_graph("star", {"m": 9})
        ds, report = runner(g, Fraction(1, 2))
        assert undominated(g, ds) == []
        bound = (1 + Fraction(1, 2)) * (2 + ln_upper(10)) * 1
        assert len(ds) <= bound

    @pytest.mark.parametrize(
        "graph",
        [
            complete(30),
            generate_graph("star", {"m": 40}),
            gnp_connected(60, 0.5, 1),
        ],
        ids=["K30", "star40", "gnp60"],
    )
    def test_high_degree_runs(self, runner, graph):
        ds, report = runner(graph, Fraction(1, 2))
        assert report.valid and not undominated(graph, ds)
        assert report.extras["opt_kind"] == "lp-estimate"

    def test_ratio_bound_holds(self, runner):
        for seed in range(3):
            g = generate_graph("gnp", {"n": 9, "p": 0.35}, seed=seed)
            ds, report = runner(g, Fraction(1, 2))
            opt, _ = brute_force_mds(g)
            bound = (1 + Fraction(1, 2)) * (2 + ln_upper(g.delta_tilde)) * opt
            assert len(ds) <= bound
            assert report.ratio == Fraction(len(ds), opt)

    def test_report_json_reproducible(self, runner):
        g = petersen()
        _, r1 = runner(g, Fraction(1, 2))
        _, r2 = runner(g, Fraction(1, 2))
        assert r1.to_json() == r2.to_json()
        obj = json.loads(r1.to_json())
        assert obj["graph"]["n"] == 10
        assert obj["stages"][0]["name"] == "initial-lp"
        assert obj["stages"][-1]["name"] == "one-shot"
        assert obj["final"]["valid"] is True

    def test_empty_graph_rejected(self, runner):
        with pytest.raises(DomainError):
            runner(Graph(0, []), Fraction(1, 2))


class TestCdsPipeline:
    def test_petersen(self):
        g = petersen()
        sbar, report = run_cds(g, Fraction(1, 2))
        assert undominated(g, sbar) == []
        assert g.subgraph_is_connected(sbar)
        assert report.connected and report.valid
        assert report.stages[-1].name == "cds-extension"
        assert report.extras["ds_size"] <= len(sbar)

    def test_grid(self):
        g = generate_graph("grid", {"rows": 3, "cols": 3})
        sbar, report = run_cds(g, Fraction(1, 2))
        assert undominated(g, sbar) == []
        assert g.subgraph_is_connected(sbar)

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            run_cds(Graph(2, []), Fraction(1, 2))

    def test_text_report(self):
        g = complete(4)
        _, report = run_cds(g, Fraction(1, 2))
        text = report.to_text()
        assert "final: size=" in text
        assert "connected: True" in text

    def test_no_opt_label_without_opt(self):
        _, report = run_cds(generate_graph("cycle", {"n": 8}), Fraction(1, 2))
        final = json.loads(report.to_json())["final"]
        assert final["opt"] is None and final["ratio"] is None
        assert "opt_kind" not in final


CHARGE_GRAPHS = {
    "petersen": petersen,
    "grid-3x3": lambda: generate_graph("grid", {"rows": 3, "cols": 3}),
    # above the default opt_cap
    "cycle-30": lambda: generate_graph("cycle", {"n": 30}),
}
EPS = Fraction(1, 2)


def charges(report):
    return {stage.name: stage.charged_rounds for stage in report.stages}


def lp_charge(graph):
    """The cited LP solver at tolerance eps1/2: tol^-4 * log2^2(Delta+2)."""
    tol = PipelineParams.from_graph(graph, EPS).eps1 / 2
    return math.ceil(float(tol) ** -4 * math.log2(graph.max_degree + 2) ** 2)


@pytest.mark.parametrize("name", sorted(CHARGE_GRAPHS))
class TestChargedRounds:
    """Every stage's charged rounds are its cited subroutine's formula."""

    def test_n_pipeline(self, name):
        g = CHARGE_GRAPHS[name]()
        _, report = run_mds_n(g, EPS)
        assert charges(report) == {
            "initial-lp": lp_charge(g),
            "one-shot": decomposition_charge(g.n, 2),
        }

    def test_delta_pipeline(self, name, monkeypatch):
        hosts = []
        real = derand_color.derandomize_colorwise

        def recording(inst, coloring):
            hosts.append(inst.graph)
            return real(inst, coloring)

        monkeypatch.setattr(derand_color, "derandomize_colorwise", recording)
        g = CHARGE_GRAPHS[name]()
        _, report = run_mds_delta(g, EPS)
        (host,) = hosts
        n = g.n
        delta_l = max(host.degree(v) for v in range(n))
        delta_r = max(host.degree(b) for b in range(n, 2 * n))
        assert charges(report) == {
            "initial-lp": lp_charge(g),
            "one-shot": coloring_round_cost(delta_l, delta_r, n),
        }

    def test_cds_pipeline(self, name):
        g = CHARGE_GRAPHS[name]()
        _, report = run_cds(g, EPS)
        assert charges(report) == {
            "initial-lp": lp_charge(g),
            "one-shot": decomposition_charge(g.n, 2),
            # ruling subset and cluster spanner, log2^3 n each
            "cds-extension": 2 * math.ceil(math.log2(g.n) ** 3),
        }


def test_lp_estimate_above_opt_cap():
    _, report = run_mds_n(petersen(), Fraction(1, 2), opt_cap=0)
    assert report.extras["opt_kind"] == "lp-estimate"
    assert sorted(report.params) == ["delta_tilde", "eps", "eps1"]


def test_one_lp_solve_per_graph_object(monkeypatch):
    """The LP start and the OPT estimate share one solve, kept on the graph
    object: a second pipeline on the same object solves nothing, and an equal
    but distinct graph solves again."""
    calls = []
    real = lp_init._solve_covering_lp

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(lp_init, "_solve_covering_lp", counting)
    g = generate_graph("cycle", {"n": 30})
    _, report = run_mds_n(g, Fraction(1, 2))
    assert report.extras["opt_kind"] == "lp-estimate"
    assert len(calls) == 1
    run_mds_delta(g, Fraction(1, 2))
    assert len(calls) == 1
    twin = Graph(g.n, g.edges())
    assert twin == g and twin is not g
    run_mds_n(twin, Fraction(1, 2))
    assert len(calls) == 2


def test_delta_pipeline_high_degree():
    g = gnp_connected(200, 0.2, 1)
    ds, report = run_mds_delta(g, Fraction(1, 2))
    assert report.valid and not undominated(g, ds)
    assert report.extras["opt_kind"] == "lp-estimate"
