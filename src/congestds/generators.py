"""Deterministic graph generators for tests and the CLI."""

from __future__ import annotations

import random
from typing import Dict, Optional

from .errors import DomainError
from .graph import Graph

#: rejection-sampling attempts before gnp_connected gives up
GNP_MAX_TRIES = 10000


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise DomainError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def gnp_connected(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi graph conditioned on connectivity by rejection sampling."""
    if n < 1:
        raise DomainError("gnp needs n >= 1")
    if not 0 <= p <= 1:
        raise DomainError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    for _ in range(GNP_MAX_TRIES):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        if g.is_connected():
            return g
    raise DomainError(
        f"no connected G({n}, {p}) sample within {GNP_MAX_TRIES} tries (p too small?)"
    )


def generate_graph(
    kind: str, params: Optional[Dict] = None, seed: int = 0
) -> Graph:
    """Named families: path | cycle | star | grid | gnp | petersen."""
    params = dict(params or {})
    if kind == "path":
        n = int(params.get("n", 2))
        if n < 1:
            raise DomainError("path needs n >= 1")
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        n = int(params.get("n", 3))
        if n < 3:
            raise DomainError("cycle needs n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "star":
        m = int(params.get("m", params.get("n", 2) - 1))
        if m < 1:
            raise DomainError("star needs at least one leaf")
        return Graph(m + 1, [(0, i) for i in range(1, m + 1)])
    if kind == "grid":
        return grid(int(params.get("rows", 2)), int(params.get("cols", 2)))
    if kind == "gnp":
        return gnp_connected(
            int(params.get("n", 8)), float(params.get("p", 0.4)), seed
        )
    if kind == "petersen":
        return petersen()
    raise DomainError(f"unknown graph kind {kind!r}")


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
