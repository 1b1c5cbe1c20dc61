"""Cluster-ordered derandomization over a 2-hop network decomposition.

Each participating node owns a private coin string, and its cluster fixes
the string bit by bit; clusters of the same decomposition color have disjoint
2-hop neighborhoods, so they fix their members' bits in parallel, with the
leader comparing aggregated quantized conditional expectations of the two
branch values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Tuple

from .decomp import (
    Cluster,
    NetworkDecomposition,
    compute_decomposition,
    validate_decomposition,
)
from .errors import InvariantViolation, PreconditionError
from .graph import Graph
from .rounding import (
    IndependentCoinLaw,
    RoundingInstance,
    _check_fractional,
    branch_sum,
    expected_output_size,
    factor_two_instance,
    one_shot_instance,
    run_phases,
)
from .values import (
    CFDS,
    fractionality,
    iota_for,
    ln_upper,
    validate_cfds,
)


@dataclass
class BitFixRecord:
    """One coin-string bit decision: compare branch sums, keep the cheaper one.

    ``skipped`` marks bits whose coin was already determined by earlier
    fixes; they change no expectation and cost no communication.
    """

    cluster: int
    color: int
    group: Hashable
    bit_index: int
    s0: Optional[Fraction]
    s1: Optional[Fraction]
    value: Optional[int]
    skipped: bool = False


@dataclass
class ClusterOutcome:
    """Result of a cluster-ordered derandomization run."""

    result: CFDS
    fixes: List[BitFixRecord]
    simulated_rounds: int
    initial_expectation: Fraction
    charged_rounds: int = 0
    expectation_log: List[Fraction] = field(default_factory=list)
    round_bound: int = 0


def derandomize_clusterwise(
    inst: RoundingInstance,
    decomp: NetworkDecomposition,
    log_expectations: bool = False,
) -> ClusterOutcome:
    """Fix all coin-string bits color by color, then run both phases.

    Every participating node owns a private b-bit string, fixed
    most-significant first.  Colors are processed in order; within a color
    every cluster fixes its members' bits independently (their 2-hop
    neighborhoods are disjoint, so the iteration order between same-colored
    clusters is immaterial).  Each aggregated bit costs 2*depth+2 rounds;
    bits of parallel clusters overlap.  ``simulated_rounds`` and
    ``round_bound`` are counted by this schedule's formula, not by a
    simulation.
    """
    if decomp.k < 2:
        raise PreconditionError(
            f"decomposition must be at least 2-hop separated, got k={decomp.k}"
        )
    validate_decomposition(inst.graph, decomp)
    n = max(inst.ambient_n, 2)
    unit = Fraction(1, n**10)
    b = iota_for(n)
    law = IndependentCoinLaw({v: inst.p[v] for v in inst.participating()}, b=b)
    initial = expected_output_size(inst, law)
    # per color, each cluster with its participating members, ascending
    by_color: Dict[int, List[Tuple[Cluster, List[int]]]] = {}
    for cl in decomp.clusters:
        members = [v for v in cl.members if v in law.heads]
        if members:
            by_color.setdefault(decomp.color[cl.leader], []).append((cl, members))
    fixes: List[BitFixRecord] = []
    expectation_log: List[Fraction] = []
    round_bound = 0
    simulated = 0
    for color in sorted(by_color):
        clusters_here = sorted(by_color[color], key=lambda cm: cm[0].leader)
        color_rounds = 0
        for cl, members in clusters_here:
            depth = cl.tree.depth()
            aggregated = 0
            for v in members:
                group = ("coin", v)
                affected = inst.graph.closed_neighbors(v)
                for bit_index in range(b):
                    if law.resolved_coin(v) is not None:
                        # the remaining bits change nothing: log them skipped
                        fixes.extend(
                            BitFixRecord(
                                cluster=cl.leader,
                                color=color,
                                group=group,
                                bit_index=rest,
                                s0=None,
                                s1=None,
                                value=None,
                                skipped=True,
                            )
                            for rest in range(bit_index, b)
                        )
                        break
                    saved = law.state(v)
                    sums = {}
                    for branch in (0, 1):
                        law.fix_bit(v, bit_index, branch)
                        sums[branch] = branch_sum(inst, law, affected, unit)
                        law.restore(v, saved)
                    value = 0 if sums[0] < sums[1] else 1
                    law.fix_bit(v, bit_index, value)
                    aggregated += 1
                    if log_expectations:
                        expectation_log.append(expected_output_size(inst, law))
                    fixes.append(
                        BitFixRecord(
                            cluster=cl.leader,
                            color=color,
                            group=group,
                            bit_index=bit_index,
                            s0=sums[0],
                            s1=sums[1],
                            value=value,
                        )
                    )
            color_rounds = max(color_rounds, aggregated * (2 * depth + 2))
        simulated += color_rounds
        round_bound += max(
            (
                len(members) * b * (2 * cl.tree.depth() + 2)
                for cl, members in clusters_here
            ),
            default=0,
        )
    simulated += 2  # final phase-1 / phase-2 value exchange
    round_bound += 2
    result = run_phases(inst, law)
    bad = validate_cfds(inst.graph, result)
    if bad:
        raise InvariantViolation(f"clusterwise output violates constraints at {bad}")
    if result.size > initial + Fraction(1, n**6):
        raise InvariantViolation(
            f"output size {result.size} exceeds expectation {initial} + 1/n^6"
        )
    return ClusterOutcome(
        result=result,
        fixes=fixes,
        simulated_rounds=simulated,
        initial_expectation=initial,
        charged_rounds=decomp.charged_rounds,
        expectation_log=expectation_log,
        round_bound=round_bound,
    )


# -- n-parameterized wrappers ------------------------------------------------


def n_one_shot(
    graph: Graph,
    xprime: CFDS,
    F: int,
) -> Tuple[CFDS, ClusterOutcome]:
    """Deterministic one-shot rounding of a 1/F-fractional dominating set.

    Fully independent coins meet the F-wise independence that the
    uncover-probability bound needs; the scaled instance is derandomized
    cluster by cluster over a 2-hop decomposition.
    """
    _check_fractional(xprime, F, "one-shot")
    if graph.delta_tilde < 2:
        raise PreconditionError("one-shot rounding needs at least one edge")
    inst = one_shot_instance(graph, xprime)
    outcome = derandomize_clusterwise(inst, compute_decomposition(graph, 2))
    result = outcome.result
    if not result.is_integral():
        raise InvariantViolation("one-shot output is not integral")
    bad = validate_cfds(graph, result)
    if bad:
        raise InvariantViolation(f"one-shot output not dominating at {bad}")
    return CFDS.fds(dict(result.x)), outcome


def n_factor_two(
    graph: Graph,
    xprime: CFDS,
    eps,
    r: int,
) -> Tuple[CFDS, ClusterOutcome]:
    """Deterministic factor-two rounding of a 1/r-fractional dominating set.

    Fully independent coins meet the ceil(8 ln Delta~)-wise independence that
    the uncover-probability bound needs; the output is 2/r-fractional (values
    either double or vanish).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    _check_fractional(xprime, r, "factor-two")
    dt = graph.delta_tilde
    if dt < 2:
        raise PreconditionError("factor-two rounding needs at least one edge")
    ln_dt = ln_upper(dt)
    if Fraction(r) < 256 * eps**-3 * ln_dt:
        raise PreconditionError(
            f"need r >= 256 * eps^-3 * ln Delta~, got {r}"
        )
    inst = factor_two_instance(graph, xprime, eps, r)
    outcome = derandomize_clusterwise(inst, compute_decomposition(graph, 2))
    result = outcome.result
    bad = validate_cfds(graph, result)
    if bad:
        raise InvariantViolation(f"factor-two output not dominating at {bad}")
    floor = Fraction(2, r)
    if fractionality(result) < floor:
        raise InvariantViolation(
            f"factor-two output fractionality {fractionality(result)} below 2/{r}"
        )
    return CFDS.fds(dict(result.x)), outcome
