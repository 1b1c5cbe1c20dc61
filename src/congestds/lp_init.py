"""Initial fractional dominating sets via a centrally solved covering LP.

The distributed LP approximation this stands in for is cited work; here the
covering LP min sum(x) s.t. sum over inclusive neighborhoods >= 1 is solved
centrally and its round cost charged.  The constraint matrix is sparse
(one row per inclusive neighborhood, built from the adjacency lists).  HiGHS
solves it by dual simplex below ``IPM_MIN_NODES`` nodes, handed the dense
form there, and by interior point from there on, where simplex is much
slower; the two may return different optimal vertices.  The float solution
is repaired into an exactly feasible one on integers at the floats' common
dyadic scale: scale up by the worst constraint slack, cap at 1, round up to
whole units of 2**-iota(n), check every inclusive-neighborhood sum reaches
one unit's worth of 1.  Every fractional dominating set here is a tuple of
those integer units, one per node.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .errors import DomainError, StructuralError
from .graph import Graph
from .values import ONE, iota_for

#: Graphs with at least this many nodes solve the LP by interior point;
#: smaller ones by dual simplex, which is faster there (crossover measured on
#: sparse random graphs and grids of 16-400 nodes).
IPM_MIN_NODES = 150


def lp_round_charge(eps: Fraction, delta: int) -> int:
    """Charged rounds of the cited distributed LP solver for
    :func:`initial_fds` at *eps*: it runs at tolerance tol = eps/2 and takes
    tol^-4 * log2^2(Delta+2) rounds."""
    return math.ceil(float(eps / 2) ** -4 * math.log2(delta + 2) ** 2)


def lp_fractional_opt(graph: Graph) -> Tuple[int, ...]:
    """An optimal fractional dominating set, repaired to exact feasibility,
    in units of 2**-iota(n).

    The solver's float output is repaired upward, which can only grow the
    objective by a vanishing amount at desk scale.  The repaired solution
    depends only on the graph, so it is solved once per ``Graph`` object and
    kept on it.
    """
    n = graph.n
    if n == 0:
        raise DomainError("empty graph")
    if graph.max_degree == 0:
        return (1 << iota_for(n),) * n
    if graph.lp_solution is None:
        graph.lp_solution = _lp_solution(graph)
    return graph.lp_solution


def _lp_solution(graph: Graph) -> Tuple[int, ...]:
    """Repaired, exactly feasible LP solution (depends only on the graph)."""
    n = graph.n
    # Row v of -A holds -1 at each node of N[v].
    indptr = [0]
    indices: List[int] = []
    for v in range(n):
        indices.extend(graph.closed_neighbors(v))
        indptr.append(len(indices))
    neg_a = csr_matrix(
        (np.full(len(indices), -1.0), indices, indptr), shape=(n, n)
    )
    res = linprog(
        c=np.ones(n),
        # scipy's sparse-input handling costs more than a small LP's solve
        A_ub=neg_a if n >= IPM_MIN_NODES else neg_a.toarray(),
        b_ub=-np.ones(n),
        bounds=(0.0, 1.0),
        method="highs-ipm" if n >= IPM_MIN_NODES else "highs",
    )
    if not res.success:
        raise StructuralError(f"covering LP failed: {res.message}")
    # the clipped floats as integers at their common dyadic scale
    ratios = [min(max(float(val), 0.0), 1.0).as_integer_ratio() for val in res.x]
    scale = max(den for _, den in ratios)
    units = [num * (scale // den) for num, den in ratios]
    min_sum = min(
        units[v] + sum(units[u] for u in graph.adj[v]) for v in range(n)
    )
    if min_sum <= 0:
        raise StructuralError("LP produced an all-zero neighborhood")
    # divide by the worst neighborhood sum if it is below 1, cap at 1 and
    # round up to the grid of 2**-iota
    div = min(min_sum, scale)
    one = 1 << iota_for(n)
    x = tuple(one if u >= div else -((-u * one) // div) for u in units)
    bad = [
        v for v in range(n) if sum(x[u] for u in graph.closed_neighbors(v)) < one
    ]
    if bad:
        raise StructuralError(f"repaired LP solution infeasible at {bad}")
    return x


def initial_fds(graph: Graph, eps) -> Tuple[int, ...]:
    """An (1+eps)-approximate fractional dominating set, eps/(2*Delta)-fractional,
    in units of 2**-iota(n).

    Takes the LP optimum in place of the cited solver's output (its rounds
    are :func:`lp_round_charge`), then lifts every value below eps/(2*Delta)
    up to it so later rounding stages get the fractionality they need; the
    lift costs at most n * eps/(2*Delta) <= eps/2 * OPT extra.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    n = graph.n
    one = 1 << iota_for(n)
    delta = graph.max_degree
    if delta == 0:
        return (one,) * n
    # min(1, eps/(2*Delta)), rounded up to a whole unit
    lift = min(ONE, eps / (2 * delta))
    floor = -((-lift.numerator * one) // lift.denominator)
    return tuple(max(u, floor) for u in lp_fractional_opt(graph))
