"""Color-class-ordered derandomization and its degree-parameterized wrapper.

Nodes with undetermined coins are processed color class by color class over a
distance-2 coloring; each node compares the quantized conditional
expectations of its two coin branches and keeps the cheaper one.  Distance-2
separation makes same-colored decisions commute, so a class costs a constant
number of communication rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .bipartite import (
    Coloring,
    coloring_round_cost,
    coloring_violations,
    greedy_distance2_coloring,
)
from .errors import InvariantViolation, PreconditionError
from .graph import Graph
from .rounding import RoundingInstance, _check_stage, derandomize, scale_values
from .values import CFDS, iota_for, ln_upper, validate_cfds


@dataclass
class DecisionRecord:
    """One node's branch comparison: keep the scaled value iff a1 < a0."""

    node: int
    color: int
    a0: Fraction
    a1: Fraction
    coin: int


@dataclass
class DerandOutcome:
    """Result of a derandomized rounding run plus its replayable decision log."""

    result: CFDS
    decisions: List[DecisionRecord]
    simulated_rounds: int
    initial_expectation: Fraction
    charged_rounds: int = 0


def derandomize_colorwise(
    inst: RoundingInstance, coloring: Coloring
) -> DerandOutcome:
    """Fix every undetermined coin by :func:`derandomize`, color by color.

    The coloring must cover exactly S = {v : x(v) not in {0, 1}} and be a
    proper distance-2 coloring in the host graph.  Per color class the run
    costs 3 rounds (exchange fixed coins, branch expectations, decisions);
    ``simulated_rounds`` is counted by this schedule's formula, 3 per class,
    not by a simulation.
    """
    if set(coloring.color) != set(inst.participating()):
        raise PreconditionError(
            "coloring must cover exactly the nodes with fractional x"
        )
    if coloring_violations(inst.graph, coloring):
        raise PreconditionError("coloring is not a proper distance-2 coloring")
    result, decisions, initial = derandomize(
        inst, [v for members in coloring.classes() for v in members]
    )
    return DerandOutcome(
        result=result,
        decisions=[
            DecisionRecord(node=v, color=coloring.color[v], a0=s0, a1=s1, coin=coin)
            for v, s0, s1, coin in decisions
        ],
        simulated_rounds=3 * coloring.num_colors,
        initial_expectation=initial,
    )


# -- degree-parameterized wrapper -------------------------------------------


def _covering_sets(graph: Graph, xprime: CFDS, cap: int) -> Dict[int, List[int]]:
    """Per node, a <= cap subset of its inclusive neighborhood with x'-mass >= 1."""
    # x' in integer units of the least common denominator
    den = math.lcm(*{val.denominator for val in xprime.x.values()})
    units = {
        u: val.numerator * (den // val.denominator) for u, val in xprime.x.items()
    }
    out: Dict[int, List[int]] = {}
    for v in range(graph.n):
        candidates = sorted(
            graph.closed_neighbors(v), key=lambda u: (-units[u], u)
        )
        picked: List[int] = []
        mass = 0
        for u in candidates:
            if mass >= den:
                break
            picked.append(u)
            mass += units[u]
        if mass < den:
            raise PreconditionError(
                f"input is not a valid fractional dominating set at node {v}"
            )
        if len(picked) > cap:
            raise PreconditionError(
                f"covering set of node {v} needs {len(picked)} > {cap} picks"
            )
        out[v] = sorted(picked)
    return out


def delta_one_shot(
    graph: Graph,
    xprime: CFDS,
    F: int,
) -> Tuple[CFDS, DerandOutcome]:
    """Deterministic one-shot rounding via the bipartite representation.

    Constraint-side degrees are first capped at F by keeping, per node, a
    covering set of at most F value copies (the 1/F-fractionality guarantees
    one exists).  The value side is then distance-2 colored and the scaled
    instance derandomized color by color; mapping each original node to the
    maximum over its copies yields an integral dominating set.
    """
    _check_stage(graph, xprime, F)
    dt = graph.delta_tilde
    n = graph.n
    covering = _covering_sets(graph, xprime, F)
    edges = [(v, n + u) for v in range(n) for u in covering[v]]
    host = Graph(2 * n, edges)
    # in units of 2**-iota at the host's width: constraint copies hold c = 1
    # and no coin, value copies the scaled x' and c = 0
    scaled = scale_values(xprime, ln_upper(dt), 2 * n)
    one = 1 << iota_for(2 * n)
    x = {b: 0 if b < n else scaled[b - n] for b in range(2 * n)}
    c = {b: one if b < n else 0 for b in range(2 * n)}
    inst = RoundingInstance(graph=host, x=x, c=c)
    S = inst.participating()
    coloring = greedy_distance2_coloring(host, S)
    if coloring.num_colors > F * dt:
        raise InvariantViolation(
            f"value-side coloring used {coloring.num_colors} > F*Delta~ colors"
        )
    outcome = derandomize_colorwise(inst, coloring)
    delta_l = max((host.degree(v) for v in range(n)), default=0)
    delta_r = max((host.degree(b) for b in range(n, 2 * n)), default=0)
    outcome.charged_rounds = coloring_round_cost(delta_l, delta_r, n)
    result = CFDS.fds(
        {v: max(outcome.result.x[v], outcome.result.x[n + v]) for v in range(n)}
    )
    if not result.is_integral():
        raise InvariantViolation("one-shot output is not integral")
    bad = validate_cfds(graph, result)
    if bad:
        raise InvariantViolation(f"one-shot output not dominating at {bad}")
    return result, outcome
