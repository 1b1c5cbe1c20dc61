"""Golden digests of the derandomizers' decision, fix and expectation logs.

The arithmetic is exact, so a change to how coins are fixed or how
expectations are computed must leave every log bit-identical.  Each case
hashes its logs, the initial expectation and the rounded values into one
SHA-256; any drift in a decision, a branch sum or an expectation replayed
along the decisions changes it.
"""

import hashlib
from fractions import Fraction

import pytest

from corpus_util import random_connected, replay_expectations, to_units

from congestds.bipartite import greedy_distance2_coloring
from congestds.decomp import compute_decomposition
from congestds.derand_cluster import derandomize_clusterwise
from congestds.derand_color import delta_one_shot, derandomize_colorwise
from congestds.generators import grid, petersen
from congestds.rounding import one_shot_instance


def local_fds(graph):
    """x(v) = max over u in N[v] of 1/|N[u]|, rounded up to a whole unit
    2**-iota(n): a valid FDS needing no LP."""
    return to_units([
        max(Fraction(1, graph.degree(u) + 1) for u in graph.closed_neighbors(v))
        for v in range(graph.n)
    ])


def instances():
    for name, g in (("petersen", petersen()), ("grid4x4", grid(4, 4))):
        yield f"{name}-one-shot", one_shot_instance(g, local_fds(g))


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def values(chosen, n):
    """The rounded values of nodes 0..n-1: "1" on *chosen*, else "0"."""
    chosen = set(chosen)
    return [(v, "1" if v in chosen else "0") for v in range(n)]


def decision_rows(decisions):
    return [(d.node, d.color, str(d.a0), str(d.a1), d.coin) for d in decisions]


def fix_rows(fixes):
    return [
        (f.cluster, f.color, f.group, str(f.s0), str(f.s1), f.value, f.skipped)
        for f in fixes
    ]


COLORWISE = {
    "petersen-one-shot": "e0d6ab5cdd2d422eaed557695a115a7cbe4d9dd7454472403b657cb7d3b96878",
    "grid4x4-one-shot": "1e01c05954029e89c5b9bf18038225c86e65677b5eb024e6d1c000a73eda289c",
}

CLUSTERWISE = {
    "petersen-one-shot": "3f8657030884fd220c90a547127fc6b0b099e4165c08eda1588fabfa970b6bc7",
    "grid4x4-one-shot": "abfa5960688015cc066e12cf0374aa2980b1359622ddcd58432c874ccce409bf",
}

DELTA_ONE_SHOT = "c52719cc751213d6002f657ce19b474d78a3f80e117d021e6bf8ca0a039d50ab"


CASES = dict(instances())


@pytest.mark.parametrize("name", sorted(CASES))
def test_colorwise_logs(name):
    inst = CASES[name]
    coloring = greedy_distance2_coloring(inst.graph, inst.participating())
    out = derandomize_colorwise(inst, coloring)
    log = replay_expectations(inst, [(d.node, d.coin) for d in out.decisions])
    assert digest(
        decision_rows(out.decisions),
        [str(e) for e in log],
        str(out.initial_expectation),
        values(out.result, inst.graph.n),
    ) == COLORWISE[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_clusterwise_logs(name):
    inst = CASES[name]
    decomp = compute_decomposition(inst.graph, 2)
    out = derandomize_clusterwise(inst, decomp)
    log = replay_expectations(inst, [(f.group[1], f.value) for f in out.fixes])
    assert digest(
        fix_rows(out.fixes),
        [str(e) for e in log],
        str(out.initial_expectation),
        values(out.result, inst.graph.n),
    ) == CLUSTERWISE[name]


def test_delta_one_shot_logs():
    (g,) = random_connected(1, max_n=12, min_n=12, seed=5)
    xprime = local_fds(g)
    result, out = delta_one_shot(g, xprime, g.delta_tilde)
    assert digest(
        decision_rows(out.decisions),
        str(out.initial_expectation),
        values(out.result, 2 * g.n),
        values(result, g.n),
    ) == DELTA_ONE_SHOT
