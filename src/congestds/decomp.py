"""Network decompositions: clustered graph partitions with cluster colors.

A (c, d) decomposition with separation k partitions the nodes into connected
clusters, each with a leader and a rooted spanning tree of depth at most d,
and colors the clusters with c colors so that same-colored clusters are more
than k hops apart.  The provider here is centralized and greedy; its round
cost is charged per the cited distributed construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Set

from .errors import DomainError, StructuralError
from .graph import Graph


@dataclass
class ClusterTree:
    """A rooted spanning tree of a cluster.

    ``parent`` maps each non-root member to its tree parent.
    """

    root: int
    parent: Dict[int, int]

    @property
    def members(self) -> List[int]:
        return sorted(set(self.parent) | {self.root})

    def depth(self) -> int:
        memo: Dict[int, int] = {self.root: 0}

        def d(v: int) -> int:
            if v not in memo:
                memo[v] = d(self.parent[v]) + 1
            return memo[v]

        return max((d(v) for v in self.parent), default=0)


@dataclass
class Cluster:
    """A connected node set with a leader and a rooted spanning tree."""

    leader: int
    members: List[int]
    tree: ClusterTree

    def __post_init__(self):
        self.members = sorted(self.members)
        if self.leader not in self.members:
            raise DomainError(f"leader {self.leader} not among members")
        if sorted(self.tree.members) != self.members:
            raise DomainError("spanning tree does not cover the cluster")
        if self.tree.root != self.leader:
            raise DomainError("spanning tree must be rooted at the leader")


@dataclass
class NetworkDecomposition:
    """Clusters plus a coloring with pairwise separation k between same colors."""

    clusters: List[Cluster]
    color: Dict[int, int]  # leader id -> color in 1..num_colors
    k: int
    d: int
    charged_rounds: int = 0

    @property
    def num_colors(self) -> int:
        return max(self.color.values(), default=0)


def decomposition_charge(n: int, k: int) -> int:
    """Charged round cost of the cited distributed decomposition algorithm."""
    if n <= 1:
        return k
    log_n = math.log2(n)
    loglog = math.log2(math.log2(max(n, 4)))
    f = 2 ** math.ceil(math.sqrt(log_n * max(loglog, 1.0)))
    return k * int(f)


def _ball(graph: Graph, sources: List[int], radius: int) -> Set[int]:
    """Nodes within *radius* hops of any of *sources*: one multi-source BFS."""
    seen = set(sources)
    frontier = list(seen)
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for w in graph.adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def single_cluster_decomposition(graph: Graph) -> NetworkDecomposition:
    """The whole (connected) graph as one cluster led by node 0."""
    if graph.n == 0:
        raise DomainError("empty graph has no decomposition")
    if not graph.is_connected():
        raise DomainError("single-cluster decomposition needs a connected graph")
    dist = graph.bfs_distances(0)
    parent: Dict[int, int] = {}
    for v in range(1, graph.n):
        parent[v] = min(u for u in graph.adj[v] if dist[u] == dist[v] - 1)
    tree = ClusterTree(root=0, parent=parent)
    cl = Cluster(leader=0, members=list(range(graph.n)), tree=tree)
    return NetworkDecomposition(
        clusters=[cl], color={0: 1}, k=2, d=max(tree.depth(), 1)
    )


def compute_decomposition(graph: Graph, k: int) -> NetworkDecomposition:
    """Greedy decomposition: BFS balls over unclustered nodes, then coloring.

    Repeatedly grows a BFS ball of radius ceil(log2 n) from the lowest
    unclustered id, restricted to unclustered nodes, so each cluster induces
    a connected subgraph with a BFS spanning tree.  Clusters whose members
    come within k hops of each other (in the full graph) get distinct colors.
    """
    if k < 1:
        raise DomainError(f"separation parameter k must be >= 1, got {k}")
    if graph.n == 0:
        raise DomainError("empty graph has no decomposition")
    d = math.ceil(math.log2(max(graph.n, 2)))
    unclustered = set(range(graph.n))
    clusters: List[Cluster] = []
    while unclustered:
        src = min(unclustered)
        dist = {src: 0}
        parent: Dict[int, int] = {}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                if dist[u] >= d:
                    continue
                for w in graph.adj[u]:
                    if w in unclustered and w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
            frontier = sorted(nxt)
        members = sorted(dist)
        unclustered -= set(members)
        tree = ClusterTree(root=src, parent=parent)
        clusters.append(Cluster(leader=src, members=members, tree=tree))

    # color the conflict structure: clusters within k hops must differ
    leader_of = {v: cl.leader for cl in clusters for v in cl.members}
    color: Dict[int, int] = {}
    for cl in clusters:
        near = {leader_of[w] for w in _ball(graph, cl.members, k)}
        used = {color[l] for l in near if l in color}
        c = 1
        while c in used:
            c += 1
        color[cl.leader] = c
    return NetworkDecomposition(
        clusters=clusters,
        color=color,
        k=k,
        d=d,
        charged_rounds=decomposition_charge(graph.n, k),
    )


def validate_decomposition(graph: Graph, nd: NetworkDecomposition) -> None:
    """BFS-check every structural promise; StructuralError on the first failure."""
    seen: Dict[int, int] = {}
    for cl in nd.clusters:
        for v in cl.members:
            if v in seen:
                raise StructuralError(f"node {v} appears in two clusters")
            seen[v] = cl.leader
    if set(seen) != set(range(graph.n)):
        raise StructuralError("clusters do not partition the node set")
    for cl in nd.clusters:
        if not graph.subgraph_is_connected(cl.members):
            raise StructuralError(f"cluster of {cl.leader} is not connected")
        if cl.tree.depth() > nd.d:
            raise StructuralError(
                f"tree of cluster {cl.leader} has depth {cl.tree.depth()} > {nd.d}"
            )
        for v, u in cl.tree.parent.items():
            if not graph.has_edge(v, u):
                raise StructuralError(f"tree edge ({v}, {u}) is not a graph edge")
            if seen[u] != cl.leader:
                raise StructuralError(f"tree of {cl.leader} leaves the cluster")
    by_color: Dict[int, List[Cluster]] = {}
    for cl in nd.clusters:
        if cl.leader not in nd.color:
            raise StructuralError(f"cluster {cl.leader} has no color")
        by_color.setdefault(nd.color[cl.leader], []).append(cl)
    for cls in by_color.values():
        index = {cl.leader: i for i, cl in enumerate(cls)}
        for i, a in enumerate(cls):
            # the first later cluster of this color within k hops of a
            later = [
                index[seen[w]]
                for w in _ball(graph, a.members, nd.k)
                if index.get(seen[w], -1) > i
            ]
            if later:
                raise StructuralError(
                    f"same-colored clusters {a.leader} and "
                    f"{cls[min(later)].leader} are within {nd.k} hops"
                )
