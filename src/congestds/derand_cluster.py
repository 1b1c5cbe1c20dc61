"""Cluster-ordered derandomization over a 2-hop network decomposition.

Each participating node owns a private coin, and its cluster fixes it in
one decision: clusters of the same decomposition color have disjoint 2-hop
neighborhoods, so they fix their members' coins in parallel, with the leader
comparing aggregated quantized conditional expectations of the two branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, List, Tuple

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
    ONE,
    fractionality,
    iota_for,
    ln_upper,
    validate_cfds,
)


@dataclass
class CoinFixRecord:
    """One coin decision: compare branch sums, keep coin 1 iff s1 < s0.

    ``group`` is ``("coin", v)`` for the coin of node v, and ``skipped`` is
    always False; both stay only because the benchmark's trace reads them.
    """

    cluster: int
    color: int
    group: Hashable
    s0: Fraction
    s1: Fraction
    value: int
    skipped: bool = False


@dataclass
class ClusterOutcome:
    """Result of a cluster-ordered derandomization run."""

    result: CFDS
    fixes: List[CoinFixRecord]
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
    """Fix every participating coin color by color, then run both phases.

    Coins are private and independent, so E = q*E1 + (1-q)*E0 and fixing a
    coin to its cheaper branch is the method of conditional expectations.
    Colors are processed in order; within a color every cluster fixes its
    members' coins independently (their 2-hop neighborhoods are disjoint, so
    the iteration order between same-colored clusters is immaterial).  Each
    aggregated coin costs 2*depth+2 rounds; coins of parallel clusters
    overlap.  ``simulated_rounds`` is counted by this schedule's formula, not
    by a simulation; every member decides exactly one coin, so
    ``round_bound`` equals it.
    """
    if decomp.k < 2:
        raise PreconditionError(
            f"decomposition must be at least 2-hop separated, got k={decomp.k}"
        )
    validate_decomposition(inst.graph, decomp)
    n = max(inst.ambient_n, 2)
    unit = Fraction(1, n**10)
    law = IndependentCoinLaw(
        {v: inst.p[v] for v in inst.participating()}, b=iota_for(n)
    )
    initial = expected_output_size(inst, law)
    # per color, each cluster with its participating members, ascending
    by_color: Dict[int, List[Tuple[Cluster, List[int]]]] = {}
    for cl in decomp.clusters:
        members = [v for v in cl.members if v in law.heads]
        if members:
            by_color.setdefault(decomp.color[cl.leader], []).append((cl, members))
    fixes: List[CoinFixRecord] = []
    expectation_log: List[Fraction] = []
    simulated = 0
    for color in sorted(by_color):
        clusters_here = sorted(by_color[color], key=lambda cm: cm[0].leader)
        for cl, members in clusters_here:
            for v in members:
                affected = inst.graph.closed_neighbors(v)
                saved = law.state(v)
                sums = {}
                for branch in (0, 1):
                    law.fix_coin(v, branch)
                    sums[branch] = branch_sum(inst, law, affected, unit)
                    law.restore(v, saved)
                value = 1 if sums[1] < sums[0] else 0
                law.fix_coin(v, value)
                if log_expectations:
                    expectation_log.append(expected_output_size(inst, law))
                fixes.append(
                    CoinFixRecord(
                        cluster=cl.leader,
                        color=color,
                        group=("coin", v),
                        s0=sums[0],
                        s1=sums[1],
                        value=value,
                    )
                )
        simulated += max(
            len(members) * (2 * cl.tree.depth() + 2)
            for cl, members in clusters_here
        )
    simulated += 2  # final phase-1 / phase-2 value exchange
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
        round_bound=simulated,
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
    return CFDS._trusted(dict(result.x), {v: ONE for v in result.x}), outcome


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
