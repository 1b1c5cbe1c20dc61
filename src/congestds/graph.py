"""Undirected simple graphs with dense integer ids and BFS utilities."""

from __future__ import annotations

from typing import Container, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import DomainError


class Graph:
    """Simple undirected graph on nodes 0..n-1 with sorted adjacency lists."""

    __slots__ = (
        "n", "adj", "max_degree", "_closed", "_closed_masks", "lp_solution"
    )

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if n < 0:
            raise DomainError(f"negative node count {n}")
        adj: List[Set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise DomainError(f"self-loop at node {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: List[List[int]] = [sorted(s) for s in adj]
        self.max_degree: int = max(map(len, adj), default=0)
        self._closed: List[Tuple[int, ...]] = [
            tuple(sorted((*a, v))) for v, a in enumerate(self.adj)
        ]
        self._closed_masks: Optional[List[int]] = None
        #: the repaired covering-LP solution in units of 2**-iota(n), set by
        #: ``lp_init`` on first use
        self.lp_solution: Optional[Tuple[int, ...]] = None

    # -- basic accessors ---------------------------------------------------

    def closed_neighbors(self, v: int) -> Tuple[int, ...]:
        """Inclusive neighborhood, ascending."""
        return self._closed[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    @property
    def delta_tilde(self) -> int:
        """Maximum inclusive-neighborhood size (max degree + 1)."""
        return self.max_degree + 1 if self.n else 0

    def edges(self) -> Iterable[Tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def closed_masks(self) -> List[int]:
        """Bitmask of each node's inclusive neighborhood (nodes as bits)."""
        if self._closed_masks is None:
            masks = []
            for v in range(self.n):
                m = 1 << v
                for u in self.adj[v]:
                    m |= 1 << u
                masks.append(m)
            self._closed_masks = masks
        return self._closed_masks

    # -- traversal ---------------------------------------------------------

    def bfs_distances(
        self,
        sources: Iterable[int],
        limit: Optional[int] = None,
        within: Optional[Container[int]] = None,
    ) -> Dict[int, int]:
        """Hop distances to the nearest of *sources*, by one breadth-first search.

        Every source is at distance 0.  Nodes more than *limit* hops away are
        omitted.  With *within*, the search enters only nodes in that set, so
        the distances are those of the subgraph it induces (plus the sources).
        """
        dist = dict.fromkeys(sources, 0)
        frontier = list(dist)
        d = 0
        while frontier and (limit is None or d < limit):
            d += 1
            nxt = []
            for u in frontier:
                for w in self.adj[u]:
                    if w not in dist and (within is None or w in within):
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    def distance(self, u: int, v: int) -> float:
        return self.bfs_distances([u]).get(v, float("inf"))

    def is_connected(self) -> bool:
        return self.n == 0 or len(self.bfs_distances([0])) == self.n

    def subgraph_is_connected(self, nodes: Sequence[int]) -> bool:
        """Connectivity of the induced subgraph on *nodes*."""
        node_set = set(nodes)
        return not node_set or len(
            self.bfs_distances([next(iter(node_set))], within=node_set)
        ) == len(node_set)

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, tuple(tuple(a) for a in self.adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


# -- file format -----------------------------------------------------------
#
# Plain text: one edge "u v" per line, 0-based ids, '#' starts a comment,
# blank lines ignored.  An optional header "n <count>" pins the node count
# so trailing isolated nodes survive a round trip.  A file may declare or
# use at most MAX_NODES nodes; a larger count is rejected before any
# adjacency list is allocated.

#: the largest node count a graph file may declare or use
MAX_NODES = 1 << 20


def _ints(tokens: Sequence[str], lineno: int, raw: str) -> List[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise DomainError(f"line {lineno}: expected integers, got {raw!r}") from None


def parse_graph(text: str) -> Graph:
    n_declared: Optional[int] = None
    edges: List[Tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2:
                raise DomainError(f"line {lineno}: malformed header {raw!r}")
            (n_declared,) = _ints(parts[1:], lineno, raw)
            continue
        if len(parts) != 2:
            raise DomainError(f"line {lineno}: expected 'u v', got {raw!r}")
        u, v = _ints(parts, lineno, raw)
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = n_declared if n_declared is not None else max_id + 1
    if n < max_id + 1:
        raise DomainError(f"header n={n} smaller than max node id {max_id}")
    if n > MAX_NODES:
        raise DomainError(f"{n} nodes exceed the file format's limit {MAX_NODES}")
    return Graph(n, edges)


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def format_graph(graph: Graph) -> str:
    lines = [f"n {graph.n}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"
