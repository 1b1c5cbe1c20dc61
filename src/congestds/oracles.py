"""Exact optima for small graphs, used as test oracles and for OPT in reports."""

from __future__ import annotations

from itertools import combinations
from typing import List, Tuple

from .errors import DomainError, PreconditionError
from .graph import Graph

MDS_CAP = 24
CDS_CAP = 20


def brute_force_mds(graph: Graph, cap: int = MDS_CAP) -> Tuple[int, List[int]]:
    """Exact minimum dominating set by branch and bound on bitmasks.

    Some node of N[u] must dominate the lowest undominated node u, so the
    search branches over N[u], the candidates that dominate the most
    undominated nodes first (ties by id).  A branch is cut once the chosen
    nodes plus ceil(undominated / max |N[v]|) cannot beat the best set found.
    The order is fixed, so the witness, the first minimum set found, is too.
    """
    n = graph.n
    if n > cap:
        raise PreconditionError(f"brute force capped at {cap} nodes, got {n}")
    if n == 0:
        return 0, []
    masks = graph.closed_masks()
    full = (1 << n) - 1
    widest = max(m.bit_count() for m in masks)
    best = list(range(n))
    chosen: List[int] = []

    def search(covered: int) -> None:
        nonlocal best
        if covered == full:
            best = sorted(chosen)
            return
        uncovered = full & ~covered
        if len(chosen) + -(-uncovered.bit_count() // widest) >= len(best):
            return
        u = (uncovered & -uncovered).bit_length() - 1
        for v in sorted(
            graph.closed_neighbors(u),
            key=lambda w: -(masks[w] & uncovered).bit_count(),
        ):
            chosen.append(v)
            search(covered | masks[v])
            chosen.pop()

    search(0)
    return len(best), best


def brute_force_cds(graph: Graph, cap: int = CDS_CAP) -> Tuple[int, List[int]]:
    """Exact minimum connected dominating set (connected input required)."""
    n = graph.n
    if n > cap:
        raise PreconditionError(f"brute force capped at {cap} nodes, got {n}")
    if not graph.is_connected():
        raise PreconditionError("connected dominating sets need a connected graph")
    if n == 0:
        return 0, []
    if n == 1:
        return 1, [0]
    masks = graph.closed_masks()
    full = (1 << n) - 1
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            covered = 0
            for v in subset:
                covered |= masks[v]
            if covered != full:
                continue
            if graph.subgraph_is_connected(subset):
                return size, list(subset)
    raise DomainError("unreachable: a connected graph's node set qualifies")
