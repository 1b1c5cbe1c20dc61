"""Initial fractional dominating sets via a centrally solved covering LP.

The cited distributed LP approximation is replaced by one central solve of
min sum(x) s.t. sum over every inclusive neighborhood >= 1, its rounds
charged.  HiGHS is called directly on the adjacency lists, by dual simplex
below ``IPM_MIN_NODES`` nodes and interior point from there on (the two may
return different optimal vertices).  The floats are repaired into an exactly
feasible solution in integer units of 2**-iota(n), one per node: scale up by
the worst constraint slack, cap at 1, round up, check every neighborhood sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import List, Tuple

# scipy's HiGHS binding, called directly: scipy's LP wrapper costs 4x a solve
from scipy.optimize._highspy import _core as highs

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

    The repair of the solver's floats grows the objective by a vanishing
    amount at desk scale.  The solution depends only on the graph, so it is
    solved once per ``Graph`` object and kept on it.
    """
    n = graph.n
    if n == 0:
        raise DomainError("empty graph")
    if graph.max_degree == 0:
        return (1 << iota_for(n),) * n
    if graph.lp_solution is None:
        graph.lp_solution = _lp_solution(graph)
    return graph.lp_solution


def _solve_covering_lp(graph: Graph) -> List[float]:
    """HiGHS's optimal x for min sum(x) s.t. -A x <= -1 and 0 <= x <= 1, A
    the inclusive-neighborhood matrix, set up as scipy's LP wrapper sets it."""
    n = graph.n
    lp = highs.HighsLp()
    matrix = lp.a_matrix_
    lp.num_col_ = lp.num_row_ = matrix.num_col_ = matrix.num_row_ = n
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = [1.0] * n, [0.0] * n, [1.0] * n
    lp.row_lower_, lp.row_upper_ = [-highs.kHighsInf] * n, [-1.0] * n
    # -A is symmetric: column v (column-wise is the default) is -1 on N[v]
    index = [u for v in range(n) for u in graph.closed_neighbors(v)]
    matrix.start_ = [0, *accumulate(graph.degree(v) + 1 for v in range(n))]
    matrix.index_, matrix.value_ = index, [-1.0] * len(index)
    options = highs.HighsOptions()
    options.presolve, options.highs_debug_level = "on", 0
    options.output_flag = options.log_to_console = False
    options.simplex_strategy = 1  # kSimplexStrategyDual
    options.solver = "ipm" if n >= IPM_MIN_NODES else "choose"
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    solver.run()
    if solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
        status = solver.modelStatusToString(solver.getModelStatus())
        raise StructuralError(f"covering LP failed: {status}")
    return solver.getSolution().col_value


def _lp_solution(graph: Graph) -> Tuple[int, ...]:
    """Repaired, exactly feasible LP solution (depends only on the graph)."""
    closed = [graph.closed_neighbors(v) for v in range(graph.n)]
    # the clipped floats as integers at their common dyadic scale
    floats = _solve_covering_lp(graph)
    ratios = [min(max(val, 0.0), 1.0).as_integer_ratio() for val in floats]
    scale = max(den for _, den in ratios)
    units = [num * (scale // den) for num, den in ratios]
    min_sum = min(sum(units[u] for u in nb) for nb in closed)
    if min_sum <= 0:
        raise StructuralError("LP produced an all-zero neighborhood")
    # divide by the worst neighborhood sum if it is below 1, cap at 1 and
    # round up to the grid of 2**-iota
    div = min(min_sum, scale)
    one = 1 << iota_for(graph.n)
    x = tuple(one if u >= div else -((-u * one) // div) for u in units)
    bad = [v for v, nb in enumerate(closed) if sum(x[u] for u in nb) < one]
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
