"""Distance-2 colorings and constraint splitting on bipartite hosts.

Splitting each node into a constraint copy (left) and a value copy (right)
turns the domination constraints into a bipartite covering problem whose
square admits colorings with far fewer colors than the square of the original
graph.  The degree-parameterized wrappers build these hosts; this module
colors them and splits high-degree constraint nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .errors import DomainError
from .graph import Graph
from .values import log_star


@dataclass
class Coloring:
    """A coloring of a node subset S with colors 1..num_colors."""

    color: Dict[int, int]
    num_colors: int

    @property
    def members(self) -> List[int]:
        return sorted(self.color)

    def classes(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(self.num_colors)]
        for v in sorted(self.color):
            out[self.color[v] - 1].append(v)
        return out


def greedy_distance2_coloring(
    graph: Graph, nodes: Iterable[int]
) -> Coloring:
    """Greedy distance-2 coloring of *nodes* within *graph*, ascending id order.

    Two colored nodes conflict when they are adjacent or share a neighbor.
    On the right side of a bipartite graph with side degrees D_L and D_R the
    greedy bound D_R*(D_L-1)+1 stays within the D_L*D_R color budget.
    """
    targets = sorted(set(nodes))
    if not targets:
        return Coloring(color={}, num_colors=0)
    color: Dict[int, int] = {}
    num_colors = 0
    for v in targets:
        used = set()
        # distance <= 2: direct neighbors and neighbors-of-neighbors
        for u in graph.adj[v]:
            if u in color:
                used.add(color[u])
            for w in graph.adj[u]:
                if w != v and w in color:
                    used.add(color[w])
        chosen = 1
        while chosen in used:
            chosen += 1
        color[v] = chosen
        num_colors = max(num_colors, chosen)
    return Coloring(color=color, num_colors=num_colors)


def coloring_violations(graph: Graph, coloring: Coloring) -> List[Tuple[int, int]]:
    """Same-colored pairs (u, v), u < v, at distance <= 2, in ascending order.

    Each member scans only its own 2-hop ball, so the cost is O(|S| * Delta^2)
    rather than quadratic in the number of members.
    """
    color = coloring.color
    bad = []
    for u in coloring.members:
        near = set()
        for w in graph.adj[u]:
            near.add(w)
            near.update(graph.adj[w])
        bad.extend(
            (u, v) for v in sorted(near) if v > u and color.get(v) == color[u]
        )
    return bad


def coloring_round_cost(delta_l: int, delta_r: int, n: int) -> int:
    """Charged CONGEST cost of the cited distributed distance-2 coloring algorithm."""
    return delta_l * delta_r + delta_l * log_star(n)


@dataclass
class SplitBipartite:
    """Bipartite graph whose left (constraint) nodes have been split.

    Right ids are 0..n-1 (one value copy per original node); left split
    copies follow.  ``left_origin[b] = (orig, copy_index)`` with copy index 0
    for the v_1 node carrying the non-participating edges.
    """

    graph: Graph
    left_copies: Dict[int, List[int]]
    left_origin: Dict[int, Tuple[int, int]]


def split_left_nodes(
    graph: Graph,
    participating: Dict[int, List[int]],
    kept: Dict[int, List[int]],
    s: int,
) -> SplitBipartite:
    """Split each constraint node's participating edges into chunks of size [s, 2s).

    *participating[v]* lists the original-graph neighbors of v (inclusive)
    whose value copies take part in the rounding; *kept[v]* lists the rest.
    The v_1 copy keeps all ``kept`` edges, plus the participating ones when
    there are fewer than s of them.  Otherwise the participating edges are
    divided, in ascending right-node order, into floor(m/s) chunks of
    near-equal size, one chunk per extra copy.
    """
    if s < 1:
        raise DomainError(f"split parameter s must be >= 1, got {s}")
    n = graph.n
    edges: List[Tuple[int, int]] = []
    left_copies: Dict[int, List[int]] = {}
    left_origin: Dict[int, Tuple[int, int]] = {}
    next_id = n
    for v in range(n):
        part = sorted(participating.get(v, []))
        keep = sorted(kept.get(v, []))
        chunks: List[List[int]]
        if len(part) < s:
            chunks = [keep + part]
        else:
            q = len(part) // s
            base, extra = divmod(len(part), q)
            sizes = [base + 1] * extra + [base] * (q - extra)
            chunks = [keep]
            pos = 0
            for size in sizes:
                chunks.append(part[pos : pos + size])
                pos += size
        ids = []
        for idx, chunk in enumerate(chunks):
            b = next_id
            next_id += 1
            ids.append(b)
            left_origin[b] = (v, idx)
            for u in chunk:
                edges.append((b, u))
        left_copies[v] = ids
    return SplitBipartite(
        graph=Graph(next_id, edges),
        left_copies=left_copies,
        left_origin=left_origin,
    )
