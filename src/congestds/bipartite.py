"""Distance-2 colorings of bipartite hosts and their charged round cost.

Splitting each node into a constraint copy (left) and a value copy (right)
turns the domination constraints into a bipartite covering problem whose
square admits colorings with far fewer colors than the square of the original
graph.  The degree-parameterized wrapper builds these hosts; this module
colors them and charges the cited distributed coloring's rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

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
