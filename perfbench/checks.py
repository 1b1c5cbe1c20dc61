"""Output checks that use only the benchmark's own edge lists and search.

Nothing here calls into ``congestds``: domination, connectivity, the exact
optimum of small graphs and the packing lower bound of large ones are all
recomputed from the edge lists the benchmark generated.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

Edges = Sequence[Tuple[int, int]]


def adjacency(n: int, edges: Edges) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def dominates(adj: List[List[int]], chosen: Iterable[int]) -> bool:
    covered = [False] * len(adj)
    for v in chosen:
        covered[v] = True
        for u in adj[v]:
            covered[u] = True
    return all(covered)


def induces_connected(adj: List[List[int]], chosen: Iterable[int]) -> bool:
    nodes = set(chosen)
    if not nodes:
        return False
    start = min(nodes)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in nodes and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


def min_dominating_size(adj: List[List[int]]) -> int:
    """Exact minimum dominating set size by branch and bound (n <= ~30).

    Branches on the uncovered node with the fewest candidate dominators and
    prunes with ceil(uncovered / largest closed neighbourhood).
    """
    n = len(adj)
    masks = [(1 << v) | sum(1 << u for u in adj[v]) for v in range(n)]
    full = (1 << n) - 1
    widest = max(bin(m).count("1") for m in masks)
    best = n

    def search(covered: int, size: int) -> None:
        nonlocal best
        if covered == full:
            best = min(best, size)
            return
        uncovered = full & ~covered
        if size + -(-bin(uncovered).count("1") // widest) >= best:
            return
        # the uncovered node with the fewest candidate dominators
        target = min(
            (v for v in range(n) if uncovered >> v & 1),
            key=lambda v: len(adj[v]),
        )
        options = sorted(
            [target] + adj[target],
            key=lambda u: -bin(masks[u] & uncovered).count("1"),
        )
        for u in options:
            search(covered | masks[u], size + 1)

    search(0, 0)
    return best


def packing_lower_bound(adj: List[List[int]]) -> int:
    """Size of a greedy 2-packing: nodes with pairwise disjoint closed
    neighbourhoods.  Each needs its own dominator, so OPT is at least this."""
    taken = [False] * len(adj)
    size = 0
    for v in sorted(range(len(adj)), key=lambda v: len(adj[v])):
        closed = [v] + adj[v]
        if not any(taken[u] for u in closed):
            for u in closed:
                taken[u] = True
            size += 1
    return size


def approximation_bound(adj: List[List[int]], eps: Fraction, opt: int) -> float:
    """(1+eps)(2+ln Delta~)*OPT with Delta~ the largest closed neighbourhood,
    rounded up in the last place so that float error cannot fail a valid set."""
    delta_tilde = 1 + max(len(a) for a in adj)
    bound = (1 + float(eps)) * (2 + math.log(delta_tilde)) * opt
    return math.nextafter(bound * (1 + 1e-12), math.inf)


def digest(chosen_sets: Iterable[Optional[Sequence[int]]]) -> str:
    """SHA-256 over every chosen set, in operation order (None: the op failed)."""
    h = hashlib.sha256()
    for i, chosen in enumerate(chosen_sets):
        text = "failed" if chosen is None else ",".join(map(str, sorted(chosen)))
        h.update(f"{i}:{text};".encode())
    return h.hexdigest()
