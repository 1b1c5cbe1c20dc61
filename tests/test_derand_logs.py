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

from corpus_util import random_connected, replay_expectations

from congestds.bipartite import greedy_distance2_coloring
from congestds.decomp import compute_decomposition
from congestds.derand_cluster import derandomize_clusterwise
from congestds.derand_color import delta_one_shot, derandomize_colorwise
from congestds.generators import grid, petersen
from congestds.rounding import one_shot_instance
from congestds.values import CFDS


def local_fds(graph):
    """x(v) = max over u in N[v] of 1/|N[u]|: a valid FDS needing no LP."""
    return CFDS.fds({
        v: max(Fraction(1, graph.degree(u) + 1) for u in graph.closed_neighbors(v))
        for v in range(graph.n)
    })


def instances():
    for name, g in (("petersen", petersen()), ("grid4x4", grid(4, 4))):
        yield f"{name}-one-shot", one_shot_instance(g, local_fds(g))


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def values(cfds):
    return sorted((v, str(val)) for v, val in cfds.x.items())


def decision_rows(decisions):
    return [(d.node, d.color, str(d.a0), str(d.a1), d.coin) for d in decisions]


def fix_rows(fixes):
    return [
        (f.cluster, f.color, f.group, str(f.s0), str(f.s1), f.value, f.skipped)
        for f in fixes
    ]


COLORWISE = {
    "petersen-one-shot": "e0d6ab5cdd2d422eaed557695a115a7cbe4d9dd7454472403b657cb7d3b96878",
    "grid4x4-one-shot": "dcc6cfd7afa54ea57b99abcacd7783d1406c633e39bc30c6ba775955b6e1e255",
}

CLUSTERWISE = {
    "petersen-one-shot": "3f8657030884fd220c90a547127fc6b0b099e4165c08eda1588fabfa970b6bc7",
    "grid4x4-one-shot": "691056e43396babfd460d6086113f301c7c04844b7dc8f1447164df59a317069",
}

DELTA_ONE_SHOT = "85f38f8768c9a868c97567813f6c9d8f5842bcddd738ae8faa37685d486233ca"


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
        values(out.result),
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
        values(out.result),
    ) == CLUSTERWISE[name]


def test_delta_one_shot_logs():
    (g,) = random_connected(1, max_n=12, min_n=12, seed=5)
    xprime = local_fds(g)
    result, out = delta_one_shot(g, xprime, g.delta_tilde)
    assert digest(
        decision_rows(out.decisions),
        str(out.initial_expectation),
        values(out.result),
        values(result),
    ) == DELTA_ONE_SHOT
