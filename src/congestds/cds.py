"""Connected dominating sets from dominating sets.

Starting from a dominating set S, a ruling subset of S seeds a BFS
clustering of S; pruned cluster trees plus short connector paths between
clusters yield a connected superset S-bar of size at most 3|S| plus two
nodes per inter-cluster connection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .errors import (
    DomainError,
    InvariantViolation,
    PreconditionError,
    StructuralError,
)
from .graph import Graph


def undominated(graph: Graph, S: Iterable[int]) -> List[int]:
    """Nodes with no member of S in their inclusive neighborhood, ascending;
    S dominates the graph iff the list is empty."""
    covered = [False] * graph.n
    for v in S:
        covered[v] = True
        for u in graph.adj[v]:
            covered[u] = True
    return [v for v in range(graph.n) if not covered[v]]


# -- ruling subsets ----------------------------------------------------------


def ruling_subset(
    graph: Graph, S: Sequence[int], alpha: int, beta: int
) -> List[int]:
    """Greedy subset of S: pairwise >= alpha apart, covering S within beta."""
    if alpha > beta:
        raise PreconditionError(f"need alpha <= beta, got {alpha} > {beta}")
    if alpha < 1:
        raise DomainError(f"alpha must be >= 1, got {alpha}")
    S = sorted(set(S))
    chosen: List[int] = []
    # hop distance to the nearest chosen node, for nodes within beta of one
    dist_to_chosen: Dict[int, int] = {}
    for v in S:
        if dist_to_chosen.get(v, alpha) >= alpha:
            chosen.append(v)
            for w, d in graph.bfs_distances([v], limit=beta).items():
                dist_to_chosen[w] = min(d, dist_to_chosen.get(w, d))
    for v in S:
        if v not in dist_to_chosen:
            raise StructuralError(
                f"node {v} is farther than beta={beta} from every chosen node"
            )
    return chosen


# -- BFS clustering with tree pruning ---------------------------------------


@dataclass
class CdsClustering:
    """Clusters of S grown from centers, with pruned connector trees."""

    centers: List[int]
    membership: Dict[int, int]  # S node -> center
    trees: Dict[int, Dict[int, int]]  # center -> {node: parent}, pruned
    phases: int

    def tree_nodes(self, center: int) -> List[int]:
        return sorted(set(self.trees[center]) | {center})

    def all_tree_nodes(self) -> List[int]:
        out: Set[int] = set()
        for center in self.centers:
            out.update(self.tree_nodes(center))
        return sorted(out)


def _join(
    graph: Graph,
    candidates: Sequence[int],
    anchors: Set[int],
    cluster: Dict[int, int],
    parent: Dict[int, int],
) -> List[int]:
    """Each unclustered candidate next to an anchor joins the cluster of its
    lowest-id anchor.  Returns the joiners in *candidates* order."""
    joined: List[int] = []
    for w in candidates:
        if w in cluster:
            continue
        a = next((u for u in graph.adj[w] if u in anchors), None)
        if a is not None:
            cluster[w] = cluster[a]
            parent[w] = a
            joined.append(w)
    return joined


def bfs_clustering(
    graph: Graph, S: Sequence[int], centers: Sequence[int]
) -> CdsClustering:
    """Grow clusters from the centers in three-round phases.

    Per phase: (1) unclustered non-S neighbors of anything clustered last
    phase join, (2) unclustered non-S neighbors of round-1 joiners join,
    (3) unclustered S-nodes adjacent to anything newly clustered join.
    Parent choice is always the lowest-id eligible neighbor.  Afterwards
    every non-S tree node without an S-descendant is pruned.
    """
    S = sorted(set(S))
    s_set = set(S)
    centers = sorted(set(centers))
    if not set(centers) <= s_set:
        raise PreconditionError("centers must be a subset of S")
    if not centers:
        raise PreconditionError("at least one center required")
    cluster: Dict[int, int] = {c: c for c in centers}
    parent: Dict[int, int] = {}
    non_s = [w for w in range(graph.n) if w not in s_set]
    last_phase: List[int] = list(centers)
    phases = 0
    while s_set - set(cluster):
        phases += 1
        if phases > graph.n:
            raise StructuralError(
                "clustering did not terminate; is the graph connected?"
            )
        # round 1: non-S neighbors of anything clustered last phase (a round-2
        # joiner may be the only way on to an unclustered S-node)
        last_set = set(last_phase)
        round1 = _join(graph, non_s, last_set, cluster, parent)
        # round 2: non-S neighbors of round-1 joiners
        round1_set = set(round1)
        round2 = _join(graph, non_s, round1_set, cluster, parent)
        # round 3: S-nodes adjacent to anything newly clustered (this phase's
        # joiners or last phase's)
        fresh = round1_set | set(round2) | last_set
        new_s = _join(graph, S, fresh, cluster, parent)
        if not (round1 or round2 or new_s):
            stranded = sorted(s_set - set(cluster))
            raise StructuralError(
                f"clustering stalled in phase {phases}: no node joined, and "
                f"S-nodes {stranded} are unclustered"
            )
        last_phase = round1 + round2 + new_s
    # prune: drop non-S nodes without S-descendants, then unused branches
    keep: Set[int] = set(centers) | (s_set & set(cluster))
    # walk up from every S-node, keeping the whole path to its center
    for u in s_set & set(cluster):
        v = u
        while v in parent:
            keep.add(parent[v])
            v = parent[v]
    trees: Dict[int, Dict[int, int]] = {c: {} for c in centers}
    for v, u in parent.items():
        if v in keep:
            trees[cluster[v]][v] = u
    membership = {u: cluster[u] for u in S}
    return CdsClustering(
        centers=centers, membership=membership, trees=trees, phases=phases
    )


# -- connector paths and assembly -------------------------------------------


@dataclass
class ConnectorPath:
    """A selected inter-cluster path; endpoints are S-nodes."""

    path: List[int]
    clusters: Tuple[int, int]
    rule: int


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def _representatives(
    graph: Graph, s_set: Set[int], membership: Dict[int, int], w: int
) -> List[Tuple[int, int]]:
    """Per adjacent cluster (ascending center id), w's lowest-id S-neighbor."""
    by_cluster: Dict[int, int] = {}
    for u in graph.adj[w]:
        if u in s_set:
            c = membership[u]
            if c not in by_cluster or u < by_cluster[c]:
                by_cluster[c] = u
    return sorted(by_cluster.items())


def connector_paths(
    graph: Graph, S: Sequence[int], clustering: CdsClustering
) -> List[ConnectorPath]:
    """Short inter-cluster paths that connect the cluster graph.

    Candidates come from three rules — direct S-S edges, 2-hop paths through
    one non-S node, 3-hop paths through two adjacent non-S nodes — in
    deterministic order; a candidate is kept only when it merges two cluster
    components, which keeps per-edge usage low.  The closing check that no
    edge lies on more than 2 paths can raise InvariantViolation on some
    connected graphs: a rule-2 path can reuse the first edge of a rule-3
    path (ROADMAP item 4).
    """
    S = sorted(set(S))
    s_set = set(S)
    membership = clustering.membership
    uf = _UnionFind(clustering.centers)
    selected: List[ConnectorPath] = []

    def offer(path: List[int], rule: int) -> None:
        ca, cb = membership[path[0]], membership[path[-1]]
        if ca == cb:
            return
        if uf.union(ca, cb):
            selected.append(
                ConnectorPath(path=path, clusters=(min(ca, cb), max(ca, cb)), rule=rule)
            )

    # rule 1: direct edges between S-nodes of different clusters
    for u in S:
        for v in graph.adj[u]:
            if v in s_set and u < v:
                offer([u, v], 1)
    # each non-S node's representatives, shared by rules 2 and 3
    reps = {
        w: _representatives(graph, s_set, membership, w)
        for w in range(graph.n)
        if w not in s_set
    }
    # rule 2: 2-hop paths through a non-S node adjacent to several clusters
    for w, reps_w in reps.items():
        for (ca, ua), (cb, ub) in zip(reps_w, reps_w[1:]):
            offer([ua, w, ub], 2)
    # rule 3: 3-hop paths through two adjacent non-S nodes
    for w, reps_w in reps.items():
        if not reps_w:
            continue
        w1 = reps_w[0][1]
        for wp in graph.adj[w]:
            if reps.get(wp):
                offer([w1, w, wp, reps[wp][-1][1]], 3)

    usage: Dict[Tuple[int, int], int] = {}
    for cp in selected:
        for a, b in zip(cp.path, cp.path[1:]):
            key = (min(a, b), max(a, b))
            usage[key] = usage.get(key, 0) + 1
    over = [e for e, count in usage.items() if count > 2]
    if over:
        raise InvariantViolation(f"edges used by more than 2 paths: {over}")
    return selected


@dataclass
class CdsResult:
    """The connected dominating set plus everything needed to audit it."""

    sbar: List[int]
    S: List[int]
    centers: List[int]
    clustering: CdsClustering
    paths: List[ConnectorPath]
    simulated_rounds: int
    charged_rounds: int


def default_ruling_params(n: int) -> Tuple[int, int]:
    """alpha ~ log2^2(n)/8, beta ~ log2^3(n)/8, with 2 <= alpha <= beta."""
    log = math.log2(max(n, 2))
    alpha = max(2, math.ceil(log**2 / 8))
    beta = max(alpha, math.ceil(log**3 / 8))
    return alpha, beta


def build_cds(graph: Graph, S: Sequence[int]) -> CdsResult:
    """Extend a dominating set S to a connected dominating set S-bar.

    S-bar is S plus the pruned-tree connector nodes plus the inner nodes of
    the selected inter-cluster paths; its size is at most 3|S| + 2 * number
    of selected paths.  ``simulated_rounds`` is counted by the clustering
    schedule's formula, 3 per phase, not by a simulation.
    """
    if not graph.is_connected():
        raise PreconditionError("connected dominating sets need a connected graph")
    S = sorted(set(S))
    if undominated(graph, S):
        raise PreconditionError("S must be a dominating set")
    if graph.n == 1:
        return CdsResult(
            sbar=[0], S=S, centers=S,
            clustering=CdsClustering(centers=S, membership={0: 0}, trees={0: {}}, phases=0),
            paths=[], simulated_rounds=0, charged_rounds=0,
        )
    centers = ruling_subset(graph, S, *default_ruling_params(graph.n))
    clustering = bfs_clustering(graph, S, centers)
    paths = connector_paths(graph, S, clustering)
    sbar: Set[int] = set(S)
    sbar.update(clustering.all_tree_nodes())
    for cp in paths:
        sbar.update(cp.path[1:-1])
    sbar_list = sorted(sbar)
    if undominated(graph, sbar_list):
        raise InvariantViolation("S-bar is not dominating")
    if not graph.subgraph_is_connected(sbar_list):
        raise InvariantViolation("S-bar does not induce a connected subgraph")
    if len(sbar_list) > 3 * len(S) + 2 * len(paths):
        raise InvariantViolation(
            f"|S-bar| = {len(sbar_list)} exceeds 3|S| + 2*paths "
            f"= {3 * len(S) + 2 * len(paths)}"
        )
    return CdsResult(
        sbar=sbar_list,
        S=S,
        centers=centers,
        clustering=clustering,
        paths=paths,
        simulated_rounds=3 * clustering.phases,
        # the ruling subset and the spanning structure over the cluster graph
        # stand in for the cited distributed constructions, log2^3 n each
        charged_rounds=2 * math.ceil(math.log2(graph.n) ** 3),
    )
