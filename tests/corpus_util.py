"""Graph corpora for property and acceptance tests, builders of rounding
instances and fractional dominating sets in integer units from plain values,
a replay of coin fixes, and two exact references for conditional
expectations: a rescan of each closed neighborhood and a coin enumeration.

Connected graphs up to 7 nodes come from the networkx atlas; the 8-node
connected graphs are produced by augmenting every connected 7-node graph
with one new node over all nonempty neighbor subsets, deduplicated by a
strong invariant bucket followed by exact isomorphism checks.  The labelled
corpora are exhaustive and need no isomorphism test: trees from their Pruefer
sequences, connected graphs from masks over the possible edges.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from functools import lru_cache
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

from congestds.graph import Graph
from congestds.rounding import RoundingInstance, expected_output_size
from congestds.values import ONE, iota_for

ZERO = Fraction(0)


def _to_graph(g: nx.Graph) -> Graph:
    mapping = {v: i for i, v in enumerate(sorted(g.nodes()))}
    return Graph(len(mapping), [(mapping[u], mapping[v]) for u, v in g.edges()])


@lru_cache(maxsize=None)
def connected_atlas(max_n: int = 7) -> Tuple[Graph, ...]:
    """All non-isomorphic connected graphs with 1 <= n <= max_n (max_n <= 7)."""
    if max_n > 7:
        raise ValueError("atlas only covers up to 7 nodes")
    out: List[Graph] = []
    for g in nx.graph_atlas_g()[1:]:
        if 1 <= g.number_of_nodes() <= max_n and nx.is_connected(g):
            out.append(_to_graph(g))
    return tuple(out)


def _invariant(g: nx.Graph):
    degs = sorted(d for _, d in g.degree())
    nbr_degs = tuple(
        sorted(tuple(sorted(g.degree(u) for u in g[v])) for v in g.nodes())
    )
    tri = sorted(nx.triangles(g).values())
    return (g.number_of_edges(), tuple(degs), nbr_degs, tuple(tri))


@lru_cache(maxsize=None)
def connected_eight() -> Tuple[Graph, ...]:
    """All non-isomorphic connected graphs on exactly 8 nodes (disk-cached)."""
    import pathlib

    cache = pathlib.Path(__file__).parent / "_cache" / "connected8.txt"
    if cache.exists():
        out = []
        for line in cache.read_text().splitlines():
            if not line:
                continue
            edges = [
                (int(a), int(b))
                for a, b in (pair.split("-") for pair in line.split())
            ]
            out.append(Graph(8, edges))
        if len(out) == 11117:
            return tuple(out)
    graphs = _build_connected_eight()
    cache.parent.mkdir(exist_ok=True)
    with cache.open("w") as fh:
        for g in graphs:
            fh.write(" ".join(f"{u}-{v}" for u, v in g.edges()) + "\n")
    return graphs


def _build_connected_eight() -> Tuple[Graph, ...]:
    sevens = [
        g
        for g in nx.graph_atlas_g()[1:]
        if g.number_of_nodes() == 7 and nx.is_connected(g)
    ]
    buckets: Dict[object, List[nx.Graph]] = {}
    for base in sevens:
        base = nx.convert_node_labels_to_integers(base)
        for mask in range(1, 1 << 7):
            g = base.copy()
            g.add_node(7)
            for u in range(7):
                if mask & (1 << u):
                    g.add_edge(7, u)
            key = _invariant(g)
            bucket = buckets.setdefault(key, [])
            if not any(nx.is_isomorphic(g, h) for h in bucket):
                bucket.append(g)
    out = [_to_graph(g) for bucket in buckets.values() for g in bucket]
    out.sort(key=lambda g: (g.num_edges, tuple(tuple(a) for a in g.adj)))
    return tuple(out)


@lru_cache(maxsize=None)
def connected_corpus(max_n: int = 8) -> Tuple[Graph, ...]:
    out = list(connected_atlas(min(max_n, 7)))
    if max_n >= 8:
        out.extend(connected_eight())
    return tuple(out)


def random_connected(
    count: int, max_n: int = 16, seed: int = 2024, min_n: int = 4
) -> Tuple[Graph, ...]:
    """Deterministic sample of random connected graphs with n <= max_n."""
    rng = random.Random(seed)
    out: List[Graph] = []
    while len(out) < count:
        n = rng.randint(min_n, max_n)
        p = rng.uniform(1.5 / n, 0.7)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        if g.is_connected():
            out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def _benchmark_inputs():
    """The benchmark's graph builders, ``perfbench/inputs.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def relabelled_sparse(seed: str, n: int, avg_extra_degree: float) -> Graph:
    """The benchmark's connected sparse random graph on n nodes, relabelled,
    drawn from ``random.Random(seed)``."""
    inputs = _benchmark_inputs()
    rng = random.Random(seed)
    edges = inputs.sparse_random(rng, n, avg_extra_degree)
    return Graph(n, inputs.relabel(rng, n, edges))


def relabelled_tree(seed: str) -> Graph:
    """A random recursive tree of 5-60 nodes (node v's parent drawn from
    0..v-1), relabelled as the benchmark relabels, drawn from
    ``random.Random(seed)``."""
    rng = random.Random(seed)
    n = rng.randint(5, 60)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph(n, _benchmark_inputs().relabel(rng, n, edges))


def unit_instance(
    graph: Graph, x: Dict[int, Fraction], c: Optional[Dict[int, Fraction]] = None
) -> RoundingInstance:
    """The rounding instance of values and constraints given as numbers in
    [0, 1] (every constraint 1 unless *c* is given), each converted to units
    of 2**-iota at the host's width; it must be a multiple of one unit."""
    one = 1 << iota_for(max(graph.n, 2))

    def units(values):
        out = {}
        for v, val in values.items():
            scaled = Fraction(val) * one
            assert scaled.denominator == 1, f"{val} is not a multiple of 2**-iota"
            out[v] = int(scaled)
        return out

    if c is None:
        c = {v: ONE for v in range(graph.n)}
    return RoundingInstance(graph=graph, x=units(x), c=units(c))


def to_units(values: Sequence) -> Tuple[int, ...]:
    """Values in [0, 1], one per node of an n-node graph with n = len(values),
    each rounded up to a whole number of units 2**-iota(n): the form in
    which the pipeline hands on a fractional dominating set."""
    one = 1 << iota_for(len(values))
    return tuple(-((-Fraction(val) * one) // 1) for val in values)


def labelled_trees(max_n: int) -> Iterator[Graph]:
    """Every labelled tree on 1..max_n nodes: n**(n-2) of them on n nodes,
    decoded from their Pruefer sequences in lexicographic order."""
    for n in range(1, max_n + 1):
        if n <= 2:
            yield Graph(n, [(0, 1)] if n == 2 else [])
            continue
        for seq in itertools.product(range(n), repeat=n - 2):
            degree = [1] * n
            for v in seq:
                degree[v] += 1
            edges = []
            for v in seq:
                leaf = degree.index(1)
                edges.append((leaf, v))
                degree[leaf] -= 1
                degree[v] -= 1
            u, w = (v for v in range(n) if degree[v] == 1)
            edges.append((u, w))
            yield Graph(n, edges)


def connected_labelled(max_n: int) -> Iterator[Graph]:
    """Every connected labelled graph on 1..max_n nodes, one per mask over
    the n(n-1)/2 possible edges whose graph is connected."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            if g.is_connected():
                yield g


def replay_expectations(
    inst: RoundingInstance, fixes: Sequence[Tuple[int, int]]
) -> List[Fraction]:
    """Fix the coins in order, one ``(node, coin)`` at a time, and return
    the exact expected output size after each fix."""
    fixed: Dict[int, int] = {}
    out: List[Fraction] = []
    for v, coin in fixes:
        fixed[v] = coin
        out.append(expected_output_size(inst, fixed))
    return out


def scan_expected_value(
    inst: RoundingInstance, fixed: Dict[int, int], u: int
) -> Tuple[int, int]:
    """E[Z_u] given the coins in *fixed*, as ``(numerator, denominator)``,
    by a fresh scan of N[u]: the closed form that
    :class:`congestds.rounding.CoinState` keeps incrementally.

    A node absent from *fixed* holds a live coin iff 0 < x < one.  u is
    uncovered exactly when c(u) > 0, no resolved node of N[u] is 1 and every
    live coin of N[u] fails; the denominator is one to the power of N[u]'s
    live coins.
    """
    x, one, get = inst.x, inst.one, fixed.get
    covered = not inst.c[u]
    # Pr(every live coin fails) = miss / den
    miss = den = 1
    for w in inst.graph.closed_neighbors(u):
        coin = get(w)
        if coin is None:
            xw = x[w]
            if xw == one:
                covered = True
            elif xw:
                miss *= one - xw
                den *= one
        elif coin:
            covered = True
    # an uncovered u counts 1, a covered one X_u
    uncovered = 0 if covered else miss
    coin = get(u)
    if coin is None:
        xu = x[u]
        if 0 < xu < one:
            # a live u is covered whenever its own coin succeeds
            return uncovered + xu * (den // one), den
        coin = xu == one
    return (den if coin else uncovered), den


def enumerate_coins(
    inst: RoundingInstance, fixed: Dict[int, int], u: int
) -> Tuple[Fraction, Fraction]:
    """``(E[Z_u], Pr(u uncovered))`` by enumerating the live coins of N[u].

    Z_u is 1 if u's inclusive-neighborhood phase-1 sum falls short of c(u),
    else u's phase-1 value.  A node in *fixed* has phase-1 value equal to
    its coin.  Any other node keeps its x if that is 0 or 1, and otherwise
    holds a live coin that succeeds, setting it to 1, with probability x.
    Each outcome of the live coins weighs the product of x or 1 - x over
    them.  Values and constraints are read as Fractions of the instance's
    units.
    """
    x = {w: Fraction(inst.x[w], inst.one) for w in inst.graph.closed_neighbors(u)}
    known: Dict[int, Fraction] = {}
    live: List[int] = []
    for w in inst.graph.closed_neighbors(u):
        if w in fixed:
            known[w] = ONE if fixed[w] else ZERO
        elif 0 < x[w] < 1:
            live.append(w)
        else:
            known[w] = x[w]
    expect = uncover = ZERO
    for bits in itertools.product((0, 1), repeat=len(live)):
        weight = ONE
        X = dict(known)
        for w, bit in zip(live, bits):
            weight *= x[w] if bit else 1 - x[w]
            X[w] = ONE if bit else ZERO
        if sum(X.values()) < Fraction(inst.c[u], inst.one):
            uncover += weight
            expect += weight
        else:
            expect += weight * X[u]
    return expect, uncover
