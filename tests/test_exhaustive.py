"""Exhaustive gate on small labelled graphs.

All three pipelines run at eps = 1/2 on every connected labelled graph with
at most 5 nodes (772) and every labelled tree with at most 6 nodes (1 442).
Each result is checked here, not by the pipeline's own report: every set
dominates, a ``run_cds`` set induces a connected subgraph, and a dominating
set is within (1+eps)(2+ln Delta~) times the brute-force optimum.
"""

import math
from fractions import Fraction

import networkx as nx

from corpus_util import connected_labelled, labelled_trees

from congestds.oracles import brute_force_mds
from congestds.pipeline import run_cds, run_mds_delta, run_mds_n

EPS = Fraction(1, 2)


def failures(g):
    """What is wrong with the three pipelines' results on *g*."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    opt, _ = brute_force_mds(g)
    bound = (1 + EPS) * (2 + math.log(g.delta_tilde)) * opt
    out = []
    for name, run in (("n", run_mds_n), ("delta", run_mds_delta), ("cds", run_cds)):
        chosen, _ = run(g, EPS)
        if not nx.is_dominating_set(G, chosen):
            out.append(f"{name}: {chosen} does not dominate")
        if name == "cds":
            if not nx.is_connected(G.subgraph(chosen)):
                out.append(f"{name}: {chosen} is not connected")
        elif len(chosen) > bound:
            out.append(f"{name}: |{chosen}| > {bound:.3f}")
    return out


def test_small_labelled_graphs():
    graphs = list(connected_labelled(5))
    trees = list(labelled_trees(6))
    assert (len(graphs), len(trees)) == (772, 1442)
    bad = {}
    for g in graphs + trees:
        found = failures(g)
        if found:
            bad[(g.n, tuple(g.edges()))] = found
    assert bad == {}
