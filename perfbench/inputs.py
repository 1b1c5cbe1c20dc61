"""Seeded workload inputs: edge lists the benchmark builds graphs from.

Graph ``i`` of pass ``k`` is drawn from
``random.Random(f"{workload}:{seed}:{k}:{i}:{attempt}")`` (string seeds hash
with SHA-512, so ``PYTHONHASHSEED`` does not matter) and randomly relabelled.  The recipe of each workload -- which family, which size,
which pipeline -- is fixed in this file; the seed and the pass index only
choose the random edges and the labelling.  That keeps the amount of work in a
pass nearly the same for every seed while no graph ever repeats in a process.
"""

from __future__ import annotations

import math
import random
from typing import List, NamedTuple, Tuple

Edges = List[Tuple[int, int]]


class Op(NamedTuple):
    """One pipeline call: which pipeline, on which graph."""

    pipeline: str  # "n" | "delta" | "cds"
    family: str
    n: int
    edges: Edges


# -- graph families (unlabelled shapes; relabel() randomizes ids) ------------


def path(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def cycle(n: int) -> Edges:
    return path(n) + [(n - 1, 0)]


def grid(rows: int, cols: int) -> Edges:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def comb(n: int) -> Edges:
    """A path of n//2 spine nodes, each with one pendant tooth (n even)."""
    k = n // 2
    return path(k) + [(i, k + i) for i in range(k)]


def random_tree(rng: random.Random, n: int) -> Edges:
    """Random recursive tree: node i attaches to a uniform earlier node."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def caterpillar(rng: random.Random, n: int) -> Edges:
    """A spine of about n/3 nodes; every other node hangs off a random spine node."""
    k = max(2, n // 3)
    return path(k) + [(rng.randrange(k), v) for v in range(k, n)]


def sparse_random(rng: random.Random, n: int, avg_extra_degree: float) -> Edges:
    """A random recursive tree united with G(n, p), p = avg_extra_degree/(n-1).

    The tree keeps the graph connected, which a sparse G(n, p) alone almost
    never is.  The G(n, p) part skips geometrically over the pairs
    (Batagelj and Brandes), so it costs O(n + m) draws instead of O(n^2).
    """
    edges = set(random_tree(rng, n))
    log_q = math.log1p(-avg_extra_degree / (n - 1))
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log1p(-rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.add((w, v))
    return sorted(edges)


def dense_random(rng: random.Random, n: int, p: float) -> Edges:
    """G(n, p) united with a random recursive tree, so it is connected."""
    edges = set(random_tree(rng, n))
    edges.update(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return sorted(edges)


def relabel(rng: random.Random, n: int, edges: Edges) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    )


# -- workload recipes ----------------------------------------------------------
#
# Entries are (pipeline, family, shape arguments).  Sizes are fixed so that the
# work per pass, and with it the run-to-run spread, stays put.

_SHAPES = {
    "path": lambda rng, n: path(n),
    "cycle": lambda rng, n: cycle(n),
    "comb": lambda rng, n: comb(n),
    "grid": lambda rng, rows, cols: grid(rows, cols),
    "tree": random_tree,
    "caterpillar": caterpillar,
    "dense": dense_random,
    "sparse": sparse_random,
}

# Smallest sizes have at least 2520 labellings (a 7-node path, an 8-node
# cycle), so that a run of a hundred passes still finds a new one each time.
_CORPUS_GRAPHS = (
    [("dense", (n, p)) for n in range(6, 18) for p in (0.2, 0.35, 0.5, 0.7)]
    + [("tree", (n,)) for n in range(6, 19)]
    + [("caterpillar", (n,)) for n in range(7, 20, 2)]
    + [("path", (n,)) for n in range(7, 20, 3)]
    + [("cycle", (n,)) for n in range(8, 17, 2)]
    + [("grid", dims) for dims in ((2, 4), (2, 5), (3, 3), (3, 4), (4, 4), (3, 5))]
    + [("comb", (20,)), ("path", (22,)), ("tree", (22,))]
)

# run_cds raises InvariantViolation or StructuralError on some labellings of
# trees, grids and sparse random graphs (see CHANGES.md).  Neither can happen
# on a graph of maximum degree 2, so run_cds gets only paths and cycles.
_CDS_GRAPHS = [("path", (n,)) for n in range(7, 22, 2)] + [
    ("cycle", (n,)) for n in range(8, 23, 2)
]

RECIPES = {
    "corpus-small": [
        (pipeline, family, args)
        for pipeline in ("n", "delta")
        for family, args in _CORPUS_GRAPHS
    ]
    + [("cds", family, args) for family, args in _CDS_GRAPHS],
    "sparse-n": [
        ("n", "grid", (15, 15)),
        ("n", "grid", (12, 20)),
        ("n", "grid", (10, 22)),
        ("n", "sparse", (300, 2.0)),
        ("n", "sparse", (260, 2.0)),
        ("n", "sparse", (220, 3.0)),
        ("n", "cycle", (400,)),
        ("n", "cycle", (300,)),
        ("cds", "path", (300,)),
        ("cds", "path", (400,)),
        ("cds", "cycle", (250,)),
        ("cds", "cycle", (350,)),
        # the calls above split into a group under 460 ms and one over 550 ms
        # (nominal speed); this call, of about 500 ms, is the median call
        ("cds", "cycle", (275,)),
    ],
    # Two sparse random graphs, whose cost varies by tens of percent with the
    # seed, and three 900-node grids, whose cost hardly varies with the
    # labelling: the median call is one of the grids.  The 1600-node graph
    # sets the peak memory; it runs first, on a fresh heap, because after
    # other calls the peak varies with the seed by up to 10%.
    "sparse-delta": [
        ("delta", "sparse", (1600, 3.0)),
        ("delta", "sparse", (1500, 4.0)),
        ("delta", "grid", (30, 30)),
        ("delta", "grid", (25, 36)),
        ("delta", "grid", (20, 45)),
    ],
}


def make_pass(workload: str, seed: int, pass_index: int, seen: set) -> List[Op]:
    """The operations of one pass; ``seen`` holds every edge list used so far.

    A graph equal to one already used in this process is redrawn with the
    next labelling, so a Graph-keyed cache in the program never sees a repeat.
    """
    ops = []
    for i, (pipeline, family, args) in enumerate(RECIPES[workload]):
        attempt = 0
        while True:
            rng = random.Random(f"{workload}:{seed}:{pass_index}:{i}:{attempt}")
            edges = _SHAPES[family](rng, *args)
            n = 1 + max(max(e) for e in edges)
            edges = relabel(rng, n, edges)
            key = (n, tuple(edges))
            if key not in seen:
                seen.add(key)
                break
            attempt += 1
            if attempt == 1000:
                raise RuntimeError(f"{workload}: no fresh labelling of {family}{args}")
        ops.append(Op(pipeline, family, n, edges))
    return ops
