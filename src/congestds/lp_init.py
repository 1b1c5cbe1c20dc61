"""Initial fractional dominating sets via a centrally solved covering LP.

The cited distributed LP approximation is replaced by one central solve of
min sum(x) s.t. sum over every inclusive neighborhood >= 1, its rounds
charged.  HiGHS is called directly on the adjacency lists, by dual simplex
below ``IPM_MIN_NODES`` nodes and interior point from there on (the two may
return different optimal vertices).  The floats are repaired into an exactly
feasible solution in integer units of 2**-iota(n), one per node: scale up by
the worst constraint slack, cap at 1, round up, check every neighborhood sum.

HiGHS is scipy's bundled binding, loaded from its file in scipy's install
tree under its own module name, so that none of scipy's package imports run
(they cost four times the rest of ``import congestds``); a later
``import scipy.optimize`` reuses the loaded module.  Where the file cannot
be loaded on its own, the binding comes from the ordinary import.  The
model is built through the binding's scalar- and list-typed calls only:
its array-typed ones (the ``col_cost_`` property, ``addCols``,
``changeColsCost`` and the like) import numpy on first use, even when given
a list, and numpy would then cost more than the rest of the import.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from types import ModuleType
from typing import List, Tuple

from .errors import DomainError, StructuralError
from .graph import Graph
from .values import ONE, iota_for

HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_extension(name: str) -> ModuleType:
    """The extension module *name*, a submodule of scipy, loaded from its
    file without importing the packages above it."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not installed")
    stem = Path(scipy.submodule_search_locations[0], *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(f"no extension file for {name} at {stem}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def _load_highs() -> ModuleType:
    """scipy's HiGHS binding, called directly (scipy's LP wrapper costs 4x a
    solve) and loaded without scipy's package imports where it can be."""
    if HIGHS_MODULE in sys.modules:
        return sys.modules[HIGHS_MODULE]
    try:
        return _load_extension(HIGHS_MODULE)
    except ImportError:
        # e.g. where scipy's __init__ must first add DLL directories
        from scipy.optimize._highspy import _core
        return _core


highs = _load_highs()

#: Graphs with at least this many nodes solve the LP by interior point;
#: smaller ones by dual simplex, which is faster there (crossover measured on
#: sparse random graphs and grids of 16-400 nodes).
IPM_MIN_NODES = 150


def _options(solver: str):
    """Silent HiGHS options with presolve and dual simplex, for *solver*."""
    options = highs.HighsOptions()
    options.presolve, options.highs_debug_level = "on", 0
    options.output_flag = options.log_to_console = False
    options.simplex_strategy = 1  # kSimplexStrategyDual
    options.solver = solver
    return options


#: options of the two sides of IPM_MIN_NODES, built once; each solve passes
#: one of them to its own fresh solver
SIMPLEX_OPTIONS, IPM_OPTIONS = _options("choose"), _options("ipm")


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
    solver = highs._Highs()
    solver.passOptions(IPM_OPTIONS if n >= IPM_MIN_NODES else SIMPLEX_OPTIONS)
    # the columns with their bounds one at a time (the array-typed addVars
    # would import numpy), then the rows and -A into the model HiGHS hands
    # back, as lists, which the binding copies fastest
    for _ in range(n):
        solver.addVar(0.0, 1.0)
    lp = solver.getLp()
    matrix = lp.a_matrix_
    lp.num_row_ = matrix.num_row_ = n
    lp.row_lower_, lp.row_upper_ = [-highs.kHighsInf] * n, [-1.0] * n
    # -A is symmetric: column v (column-wise is the default) is -1 on N[v]
    index = [u for v in range(n) for u in graph.closed_neighbors(v)]
    matrix.start_ = [0, *accumulate(graph.degree(v) + 1 for v in range(n))]
    matrix.index_, matrix.value_ = index, [-1.0] * len(index)
    _check("passModel", solver.passModel(lp))
    # the all-ones cost as the one linear objective, which HiGHS copies
    # into the model's col_cost_ when it runs
    cost = highs.HighsLinearObjective()
    cost.weight, cost.coefficients = 1.0, [1.0] * n
    _check("addLinearObjective", solver.addLinearObjective(cost))
    _check("run", solver.run())
    if solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
        status = solver.modelStatusToString(solver.getModelStatus())
        raise StructuralError(f"covering LP failed: {status}")
    return solver.getSolution().col_value


def _check(call: str, status) -> None:
    """Raise unless the binding's *call* returned ``kOk``."""
    if status != highs.HighsStatus.kOk:
        raise StructuralError(f"covering LP: HiGHS {call} returned {status.name}")


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
