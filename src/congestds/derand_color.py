"""Color-class-ordered derandomization and its degree-parameterized wrappers.

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
    split_left_nodes,
)
from .errors import InvariantViolation, PreconditionError
from .graph import Graph
from .rounding import RoundingInstance, _check_stage, derandomize, scale_values
from .values import CFDS, ONE, ZERO, fractionality, ln_upper, validate_cfds


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

    The coloring must cover exactly S = {v : p(v) not in {0, 1}} and be a
    proper distance-2 coloring in the host graph.  Per color class the run
    costs 3 rounds (exchange fixed coins, branch expectations, decisions);
    ``simulated_rounds`` is counted by this schedule's formula, 3 per class,
    not by a simulation.
    """
    if set(coloring.color) != set(inst.participating()):
        raise PreconditionError(
            "coloring must cover exactly the nodes with fractional p"
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


# -- degree-parameterized wrappers ------------------------------------------


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
    _check_stage(graph, xprime, F, "one-shot")
    dt = graph.delta_tilde
    n = graph.n
    covering = _covering_sets(graph, xprime, F)
    edges = [(v, n + u) for v in range(n) for u in covering[v]]
    host = Graph(2 * n, edges)
    scaled, _ = scale_values(xprime, ln_upper(dt), 2 * n)
    x = {b: ZERO for b in range(2 * n)}
    p = {b: ZERO for b in range(2 * n)}
    c = {b: ZERO for b in range(2 * n)}
    for v in range(n):
        x[n + v] = scaled[v]
        p[n + v] = scaled[v]
        c[v] = ONE
    inst = RoundingInstance(graph=host, x=x, p=p, c=c)
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
    # the lift of values phase 2 produced: Fractions in [0, 1]
    mapped = {
        v: max(outcome.result.x[v], outcome.result.x[n + v]) for v in range(n)
    }
    result = CFDS._trusted(mapped, {v: ONE for v in range(n)})
    if not result.is_integral():
        raise InvariantViolation("one-shot output is not integral")
    bad = validate_cfds(graph, result)
    if bad:
        raise InvariantViolation(f"one-shot output not dominating at {bad}")
    return result, outcome


def delta_factor_two(
    graph: Graph,
    xprime: CFDS,
    eps,
    r: int,
) -> Tuple[CFDS, DerandOutcome]:
    """Deterministic factor-two rounding via constraint-node splitting.

    Nodes below 2/r after the (1+eps) scaling either double or drop to zero;
    constraint nodes split their participating edges into chunks of size
    [s, 2s) with s = ceil(64 * eps^-2 * ln Delta~) so that each split
    constraint sees enough independent mass.  Split constraints use
    c = min{1, sum of incident x'}.
    """
    eps = Fraction(eps)
    if eps <= 0 or eps > 1:
        raise PreconditionError(f"eps must be in (0, 1], got {eps}")
    _check_stage(graph, xprime, r, "factor-two")
    dt = graph.delta_tilde
    ln_dt = ln_upper(dt)
    if Fraction(r) < 256 * eps**-3 * ln_dt:
        raise PreconditionError(
            f"need r >= 256 * eps^-3 * ln Delta~ = {float(256 * eps**-3 * ln_dt):.1f}, got {r}"
        )
    n = graph.n
    x_orig, p_orig = scale_values(xprime, 1 + eps, 2 * n, r)
    part_nodes = {v for v in range(n) if p_orig[v] == Fraction(1, 2)}
    s = math.ceil(64 * eps**-2 * ln_dt)
    participating = {
        v: [u for u in graph.closed_neighbors(v) if u in part_nodes]
        for v in range(n)
    }
    kept = {
        v: [u for u in graph.closed_neighbors(v) if u not in part_nodes]
        for v in range(n)
    }
    split = split_left_nodes(graph, participating, kept, s)
    host = split.graph
    x = {b: ZERO for b in range(host.n)}
    p = {b: ZERO for b in range(host.n)}
    c = {b: ZERO for b in range(host.n)}
    for v in range(n):
        x[v] = x_orig[v]
        p[v] = p_orig[v]
    for b in split.left_origin:
        mass = sum((xprime.x[u] for u in host.adj[b]), ZERO)
        c[b] = min(ONE, mass)
    inst = RoundingInstance(graph=host, x=x, p=p, c=c)
    S = inst.participating()
    coloring = greedy_distance2_coloring(host, S)
    if coloring.num_colors > 2 * s * dt:
        raise InvariantViolation(
            f"split coloring used {coloring.num_colors} > 2*s*Delta~ colors"
        )
    outcome = derandomize_colorwise(inst, coloring)
    delta_l = max((host.degree(b) for b in split.left_origin), default=0)
    delta_r = max((host.degree(v) for v in range(n)), default=0)
    outcome.charged_rounds = coloring_round_cost(delta_l, delta_r, n)
    mapped: Dict[int, Fraction] = {}
    for v in range(n):
        best = outcome.result.x[v]
        for b in split.left_copies[v]:
            best = max(best, outcome.result.x[b])
        mapped[v] = best
    result = CFDS.fds(mapped)
    bad = validate_cfds(graph, result)
    if bad:
        raise InvariantViolation(f"factor-two output not dominating at {bad}")
    floor = min(Fraction(2, r), Fraction(1, math.ceil(256 * eps**-3 * ln_dt)))
    if fractionality(result) < floor:
        raise InvariantViolation(
            f"factor-two output fractionality {fractionality(result)} below {floor}"
        )
    return result, outcome
