"""Color-class-ordered derandomization and its degree-parameterized wrapper.

Nodes with undetermined coins are processed color class by color class over a
distance-2 coloring; each node compares the quantized conditional
expectations of its two coin branches and keeps the cheaper one.  Distance-2
separation makes same-colored decisions commute, so a class costs a constant
number of communication rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .bipartite import (
    Coloring,
    coloring_round_cost,
    coloring_violations,
    greedy_distance2_coloring,
)
from .cds import undominated
from .errors import InvariantViolation, PreconditionError
from .graph import Graph
from .rounding import RoundingInstance, _check_stage, derandomize, scale_values
from .values import iota_for, ln_upper


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
    """Result of a derandomized rounding run plus its replayable decision log;
    ``result`` holds the chosen host nodes, ascending."""

    result: List[int]
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


def _covering_sets(
    graph: Graph, xprime: Sequence[int], cap: int
) -> Dict[int, List[int]]:
    """Per node, a <= cap subset of its inclusive neighborhood with x'-mass >= 1."""
    one = 1 << iota_for(graph.n)
    out: Dict[int, List[int]] = {}
    for v in range(graph.n):
        candidates = sorted(
            graph.closed_neighbors(v), key=lambda u: (-xprime[u], u)
        )
        picked: List[int] = []
        mass = 0
        for u in candidates:
            if mass >= one:
                break
            picked.append(u)
            mass += xprime[u]
        if mass < one:
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
    xprime: Sequence[int],
    F: int,
) -> Tuple[List[int], DerandOutcome]:
    """Deterministic one-shot rounding via the bipartite representation, of
    x' in units of 2**-iota(n) to the chosen nodes, ascending.

    Constraint-side degrees are first capped at F by keeping, per node, a
    covering set of at most F value copies (the 1/F-fractionality guarantees
    one exists).  The value side is then distance-2 colored and the scaled
    instance derandomized color by color; an original node is chosen when
    its constraint copy or its value copy is, which yields a dominating set.
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
    result = sorted({b if b < n else b - n for b in outcome.result})
    bad = undominated(graph, result)
    if bad:
        raise InvariantViolation(f"one-shot output not dominating at {bad}")
    return result, outcome
