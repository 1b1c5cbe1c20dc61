"""Golden digests of the derandomizers' decision, fix and expectation logs.

The arithmetic is exact, so a change to how coins are fixed or how
expectations are computed must leave every log bit-identical.  Each case
hashes its logs, the initial expectation and the rounded values into one
SHA-256; any drift in a decision, a branch sum or a logged expectation
changes it.
"""

import hashlib
from fractions import Fraction

import pytest

from corpus_util import random_connected

from congestds.bipartite import greedy_distance2_coloring
from congestds.decomp import compute_decomposition
from congestds.derand_cluster import derandomize_clusterwise
from congestds.derand_color import delta_one_shot, derandomize_colorwise
from congestds.generators import grid, petersen
from congestds.rounding import RoundingInstance, one_shot_instance
from congestds.values import CFDS


def local_fds(graph):
    """x(v) = max over u in N[v] of 1/|N[u]|: a valid FDS needing no LP."""
    return CFDS.fds({
        v: max(Fraction(1, graph.degree(u) + 1) for u in graph.closed_neighbors(v))
        for v in range(graph.n)
    })


def skewed_instance(graph):
    """Coins with ratio x/p below 1, some deterministic nodes, c below 1."""
    x, p, c = {}, {}, {}
    for v in range(graph.n):
        x[v] = Fraction(1 + v % 3, 16)
        p[v] = Fraction(1) if v % 5 == 4 else Fraction(1, 2) + Fraction(v % 4, 16)
        c[v] = Fraction(3, 4) if v % 2 else Fraction(1)
    return RoundingInstance(graph=graph, x=x, p=p, c=c)


def instances():
    for name, g in (("petersen", petersen()), ("grid4x4", grid(4, 4))):
        yield f"{name}-one-shot", one_shot_instance(g, local_fds(g))
        yield f"{name}-skewed", skewed_instance(g)


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
        (f.cluster, f.color, f.group, f.bit_index, str(f.s0), str(f.s1),
         f.value, f.skipped)
        for f in fixes
    ]


COLORWISE = {
    "petersen-one-shot": "e0d6ab5cdd2d422eaed557695a115a7cbe4d9dd7454472403b657cb7d3b96878",
    "petersen-skewed": "5a73055ed4dd074ec195a765121983b33692e1fa68ebcab79628696d3ae384da",
    "grid4x4-one-shot": "dcc6cfd7afa54ea57b99abcacd7783d1406c633e39bc30c6ba775955b6e1e255",
    "grid4x4-skewed": "a33d7908637b9ecbaccc5e4b202a5dc735e1cf86785e812fa2c19c672a8bf114",
}

CLUSTERWISE = {
    "petersen-one-shot": "c04e10b48a3be438f4a8bf6f946b0d451d01f4d06c76c67a16af566cd1922974",
    "petersen-skewed": "c2b7e29a6d55109d401c617386b9b5945a02b2d8401070e3bb110984d1bfbad3",
    "grid4x4-one-shot": "36fb0abb0ca769d65b7968ea8c994ca9aa3c40e22a32d0450e1c4ec9d9a06a19",
    "grid4x4-skewed": "19b0a2e844af28a41b4708c4a4a19cde8fd8c09313e59fdeb36768e325022d6c",
}

DELTA_ONE_SHOT = "85f38f8768c9a868c97567813f6c9d8f5842bcddd738ae8faa37685d486233ca"


CASES = dict(instances())


@pytest.mark.parametrize("name", sorted(CASES))
def test_colorwise_logs(name):
    inst = CASES[name]
    coloring = greedy_distance2_coloring(inst.graph, inst.participating())
    out = derandomize_colorwise(inst, coloring, log_expectations=True)
    assert digest(
        decision_rows(out.decisions),
        [str(e) for e in out.expectation_log],
        str(out.initial_expectation),
        values(out.result),
    ) == COLORWISE[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_clusterwise_logs(name):
    inst = CASES[name]
    decomp = compute_decomposition(inst.graph, 2)
    out = derandomize_clusterwise(inst, decomp, log_expectations=True)
    assert digest(
        fix_rows(out.fixes),
        [str(e) for e in out.expectation_log],
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
