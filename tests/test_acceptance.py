"""Acceptance suite: eight criteria, one printed PASS/FAIL line each.

Lines are written to the real stdout so they stay visible under pytest's
capture.  Each criterion is a separate test; shared corpus runs are computed
once per session.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from congestds.bipartite import greedy_distance2_coloring
from congestds.cds import undominated
from congestds.decomp import compute_decomposition, single_cluster_decomposition
from congestds.derand_cluster import derandomize_clusterwise
from congestds.derand_color import derandomize_colorwise
from congestds.generators import gnp_connected, petersen
from congestds.graph import Graph
from congestds.lp_init import initial_fds
from congestds.oracles import brute_force_cds
from congestds.pipeline import run_cds, run_mds_delta, run_mds_n
from congestds.rounding import one_shot_instance
from congestds.values import ln_upper

from corpus_util import (
    ZERO,
    connected_atlas,
    connected_corpus,
    enumerate_coins,
    random_connected,
    replay_expectations,
    to_units,
)

EPS_MAIN = Fraction(1, 2)
EPS_EXTRA = (Fraction(1, 4), Fraction(1))


#: collected "[criterion N] ...: PASS/FAIL" lines; a terminal-summary hook in
#: conftest.py prints them after capture ends so they always reach the output
CRITERION_LINES = []


def _emit(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    CRITERION_LINES.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def corpus():
    return list(connected_corpus(8)) + list(random_connected(500, max_n=16))


@pytest.fixture(scope="session")
def main_runs(corpus):
    """Both schemes at eps = 1/2 over the whole corpus, timed."""
    start = time.monotonic()
    rows = []
    for g in corpus:
        for scheme, runner in (("n", run_mds_n), ("delta", run_mds_delta)):
            ds, report = runner(g, EPS_MAIN)
            rows.append((g, scheme, ds, report))
    return rows, time.monotonic() - start


def test_criterion_1_validity(main_runs):
    rows, elapsed = main_runs
    bad = 0
    for g, scheme, ds, report in rows:
        if not report.valid or undominated(g, ds):
            bad += 1
    ok = bad == 0 and elapsed < 300
    _emit(
        1,
        "validity on corpus",
        ok,
        f"{len(rows)} runs, {bad} invalid, {elapsed:.1f}s",
    )


def test_criterion_2_approximation(corpus, main_runs):
    rows, _ = main_runs
    checked = 0
    worst = ZERO
    violations = 0

    def check(g, ds, report, eps):
        nonlocal checked, worst, violations
        assert report.extras["opt_kind"] == "brute-force"
        bound = (1 + eps) * (2 + ln_upper(max(g.delta_tilde, 1))) * report.opt
        checked += 1
        if report.opt:
            worst_here = Fraction(len(ds)) / report.opt
        else:
            worst_here = ZERO
        if worst_here > worst:
            worst = worst_here
        if Fraction(len(ds)) > bound:
            violations += 1

    for g, scheme, ds, report in rows:
        check(g, ds, report, EPS_MAIN)
    for eps in EPS_EXTRA:
        for g in corpus:
            for runner in (run_mds_n, run_mds_delta):
                ds, report = runner(g, eps)
                check(g, ds, report, eps)
    _emit(
        2,
        "approximation ratio",
        violations == 0,
        f"{checked} runs, worst observed ratio {float(worst):.3f}, "
        f"{violations} violations",
    )


def _one_shot_inst(g):
    return one_shot_instance(g, initial_fds(g, EPS_MAIN))


def _expectation_bound(inst):
    """A + sum over nodes of Pr(constraint uncovered), all exact: with p = x
    each node's phase-1 expectation is x(v), so A = sum of x."""
    A = Fraction(sum(inst.x.values()), inst.one)
    uncover = sum(
        (enumerate_coins(inst, {}, v)[1] for v in range(inst.graph.n)), ZERO
    )
    return A + uncover


@pytest.fixture(scope="session")
def derand_runs():
    """Colorwise and clusterwise runs on enumerable instances, with bounds."""
    graphs = [g for g in connected_atlas(6) if g.delta_tilde >= 2]
    graphs += [g for g in random_connected(20, max_n=10, seed=99)]
    rows = []
    for g in graphs:
        inst = _one_shot_inst(g)
        bound = _expectation_bound(inst)
        coloring = greedy_distance2_coloring(g, inst.participating())
        decomp = compute_decomposition(g, 2)
        color_out = derandomize_colorwise(inst, coloring)
        cluster_out = derandomize_clusterwise(inst, decomp)
        rows.append((g, inst, bound, coloring, decomp, color_out, cluster_out))
    return rows


def test_criterion_3_derandomization_dominance(derand_runs):
    violations = 0
    for g, inst, bound, coloring, decomp, color_out, cluster_out in derand_runs:
        n = max(inst.graph.n, 2)
        if len(color_out.result) > bound + Fraction(1, n**7):
            violations += 1
        if len(cluster_out.result) > bound + Fraction(1, n**7):
            violations += 1
    _emit(
        3,
        "derandomized size within expectation bound",
        violations == 0,
        f"{2 * len(derand_runs)} runs, {violations} violations",
    )


def test_criterion_4_per_fix_monotonicity():
    graphs = [g for g in connected_atlas(5) if g.delta_tilde >= 2]
    graphs += [g for g in random_connected(5, max_n=7, seed=41)]
    fixes = 0
    violations = 0
    for g in graphs:
        inst = _one_shot_inst(g)
        n = max(inst.graph.n, 2)
        step = Fraction(2, n**9)
        coloring = greedy_distance2_coloring(g, inst.participating())
        color_out = derandomize_colorwise(inst, coloring)
        cluster_out = derandomize_clusterwise(inst, compute_decomposition(g, 2))
        runs = (
            (color_out, [(d.node, d.coin) for d in color_out.decisions]),
            (cluster_out, [(f.group[1], f.value) for f in cluster_out.fixes]),
        )
        for out, coins in runs:
            trace = [out.initial_expectation] + replay_expectations(inst, coins)
            for before, after in zip(trace, trace[1:]):
                fixes += 1
                if after > before + step:
                    violations += 1
    _emit(
        4,
        "per-fix expectation increase <= 2/n^9",
        violations == 0,
        f"{fixes} fixes, {violations} violations",
    )


def test_criterion_5_uncover_probability_bounds():
    T = 10_000
    rng = np.random.default_rng(20240825)
    start = time.monotonic()
    failures = []

    # one-shot: uniform 1/Delta~ inputs on C5 and the Petersen graph
    for g in (Graph(5, [(i, (i + 1) % 5) for i in range(5)]), petersen()):
        dt = g.delta_tilde
        xp = to_units([Fraction(1, dt)] * g.n)
        inst = one_shot_instance(g, xp)
        p = inst.x[0] / inst.one
        coins = rng.random((T, g.n)) < p
        bound = 1 / dt + 4 * math.sqrt((1 / dt) / T)
        for v in range(g.n):
            nbrs = [v] + g.adj[v]
            # a success sets its node to 1, so v is covered by any success
            freq = float((coins[:, nbrs].sum(axis=1) < 1).mean())
            if freq > bound:
                failures.append(f"one-shot node {v}: {freq:.4f} > {bound:.4f}")
            exact = float(enumerate_coins(inst, {}, v)[1])
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / T)
            if abs(freq - exact) > 5 * sigma + 1e-9:
                failures.append(
                    f"one-shot node {v}: freq {freq:.4f} vs exact {exact:.4f}"
                )

    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 600
    _emit(
        5,
        "Monte-Carlo uncover frequencies",
        ok,
        f"T={T}, {elapsed:.1f}s" + (f"; {failures}" if failures else ""),
    )


def test_criterion_8_round_accounting(derand_runs):
    violations = 0
    for g, inst, bound, coloring, decomp, color_out, cluster_out in derand_runs:
        if color_out.simulated_rounds != 3 * coloring.num_colors:
            violations += 1
        # every cluster tree has depth at most the promised d
        largest = max(len(cl.members) for cl in decomp.clusters)
        cluster_bound = decomp.num_colors * largest * (2 * decomp.d + 2) + 2
        if cluster_out.simulated_rounds > cluster_bound:
            violations += 1
    _emit(
        8,
        "round accounting",
        violations == 0,
        f"{2 * len(derand_runs)} runs, {violations} violations",
    )


def test_criterion_9_cds():
    graphs = list(connected_atlas(7))
    for n in (8, 9, 10):
        for i in range(60):
            graphs.append(gnp_connected(n, 0.25 + 0.1 * (i % 5), seed=1000 * n + i))
    graphs += [g for g in random_connected(200, max_n=10, seed=777)]
    structural = 0
    ratios = []
    for g in graphs:
        sbar, report = run_cds(g, EPS_MAIN)
        ds_size = report.extras["ds_size"]
        clusters = report.extras["num_clusters"]
        ok = (
            report.valid
            and not undominated(g, sbar)
            and g.subgraph_is_connected(sbar)
            and len(sbar) <= 3 * ds_size + 2 * max(clusters - 1, 0)
        )
        if not ok:
            structural += 1
        opt, _ = brute_force_cds(g)
        ratios.append(len(sbar) / opt)
    _emit(
        9,
        "connected dominating sets",
        structural == 0,
        f"{len(graphs)} graphs, {structural} structural violations, "
        f"ratio mean {sum(ratios) / len(ratios):.3f} max {max(ratios):.3f}",
    )


def test_criterion_10_cross_scheme_equivalence():
    graphs = random_connected(100, max_n=10, seed=31337)
    equal = 0
    bound_ok = 0
    for g in graphs:
        inst = _one_shot_inst(g)
        bound = _expectation_bound(inst)
        n = max(inst.graph.n, 2)
        coloring = greedy_distance2_coloring(g, inst.participating())
        color_out = derandomize_colorwise(inst, coloring)
        cluster_out = derandomize_clusterwise(inst, single_cluster_decomposition(g))
        if len(color_out.result) == len(cluster_out.result):
            equal += 1
        if (
            len(color_out.result) <= bound + Fraction(1, n**7)
            and len(cluster_out.result) <= bound + Fraction(1, n**7)
        ):
            bound_ok += 1
    ok = equal >= 95 and bound_ok == len(graphs)
    _emit(
        10,
        "cross-scheme equivalence",
        ok,
        f"{equal}/100 equal sizes, {bound_ok}/100 within expectation bound",
    )
