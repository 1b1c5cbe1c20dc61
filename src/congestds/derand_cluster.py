"""Cluster-ordered derandomization over a 2-hop network decomposition.

Each cluster owns the randomness of its members' coins; clusters of the same
decomposition color have disjoint 2-hop neighborhoods, so they can fix their
seed bits in parallel, bit by bit, with the leader comparing aggregated
quantized conditional expectations of the two branch values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Tuple

from .coins import CoinSource
from .decomp import (
    Cluster,
    NetworkDecomposition,
    compute_decomposition,
    validate_decomposition,
)
from .errors import InvariantViolation, PreconditionError
from .graph import Graph
from .rounding import (
    DEFAULT_ENUM_BUDGET,
    CoinLaw,
    CompositeCoinLaw,
    IndependentCoinLaw,
    PartialAssignment,
    RoundingInstance,
    SeededCoinLaw,
    _check_fractional,
    branch_sum,
    expected_output_size,
    factor_two_instance,
    one_shot_instance,
    run_phases,
)
from .values import (
    CFDS,
    ceil_to_multiple,
    fractionality,
    iota_for,
    ln_upper,
    validate_cfds,
)


@dataclass
class BitFixRecord:
    """One seed-bit decision: compare branch sums, keep the cheaper branch.

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
    initial_expectation: Optional[Fraction] = None
    charged_rounds: int = 0
    expectation_log: List[Fraction] = field(default_factory=list)
    round_bound: int = 0


@dataclass
class _ClusterPlan:
    cluster: Cluster
    law: CoinLaw
    # each entry: (group key, bit index, node whose coin the bit feeds or None)
    bits: List[Tuple[Hashable, int, Optional[int]]]


def _build_plans(
    inst: RoundingInstance,
    decomp: NetworkDecomposition,
    indep: int,
    poly_width: Optional[int],
) -> List[_ClusterPlan]:
    S = set(inst.participating())
    n = max(inst.ambient_n, 2)
    plans: List[_ClusterPlan] = []
    for cl in decomp.clusters:
        members = [v for v in cl.members if v in S]
        if not members:
            continue
        k_eff = min(indep, len(members))
        if k_eff >= len(members):
            # full independence: one private bit string per coin, fixed
            # most-significant first with closed-form conditional marginals
            b = iota_for(n)
            law: CoinLaw = IndependentCoinLaw(
                {v: inst.p[v] for v in members}, b=b
            )
            bits = [
                (("coin", v), j, v) for v in sorted(members) for j in range(b)
            ]
        else:
            b = poly_width or max(
                2, (max(members)).bit_length(), 4
            )
            if max(members) >= (1 << b):
                b = max(members).bit_length()
            key = ("cluster", cl.leader)
            source = CoinSource(k=k_eff, b=b, points={v: v for v in members})
            # probabilities re-quantized upward to the field width
            p_draw = {
                v: ceil_to_multiple(inst.p[v], Fraction(1, 1 << b))
                for v in members
            }
            law = SeededCoinLaw(key, source, p_draw)
            bits = [(key, j, None) for j in range(source.K)]
        plans.append(_ClusterPlan(cluster=cl, law=law, bits=bits))
    return plans


def derandomize_clusterwise(
    inst: RoundingInstance,
    decomp: NetworkDecomposition,
    indep: int,
    budget: int = DEFAULT_ENUM_BUDGET,
    verify: bool = True,
    poly_width: Optional[int] = None,
    cluster_order: str = "ascending",
    log_expectations: bool = False,
) -> ClusterOutcome:
    """Fix all per-cluster seed bits color by color, then run both phases.

    Colors are processed in order; within a color every cluster fixes its
    bits independently (their 2-hop neighborhoods are disjoint, so the
    iteration order between same-colored clusters is immaterial — exposed
    via ``cluster_order`` for testing exactly that).  Each aggregated bit
    costs 2*depth+2 simulated rounds; bits of parallel clusters overlap.
    """
    if decomp.k < 2:
        raise PreconditionError(
            f"decomposition must be at least 2-hop separated, got k={decomp.k}"
        )
    validate_decomposition(inst.graph, decomp)
    if indep < 1:
        raise PreconditionError(f"independence parameter must be >= 1, got {indep}")
    n = max(inst.ambient_n, 2)
    unit = Fraction(1, n**10)
    plans = _build_plans(inst, decomp, indep, poly_width)
    law = CompositeCoinLaw([pl.law for pl in plans])
    assignment = PartialAssignment()
    initial = (
        expected_output_size(inst, law, assignment, budget) if verify else None
    )
    by_color: Dict[int, List[_ClusterPlan]] = {}
    for pl in plans:
        by_color.setdefault(decomp.color[pl.cluster.leader], []).append(pl)
    fixes: List[BitFixRecord] = []
    expectation_log: List[Fraction] = []
    round_bound = 0
    simulated = 0
    for color in sorted(by_color):
        plans_here = sorted(
            by_color[color],
            key=lambda pl: pl.cluster.leader,
            reverse=(cluster_order == "descending"),
        )
        color_rounds = 0
        for pl in plans_here:
            depth = pl.cluster.tree.depth()
            aggregated = 0
            for group, bit_index, coin_node in pl.bits:
                if coin_node is not None:
                    resolved = law.resolved_coin(coin_node, assignment)
                    if resolved is not None:
                        fixes.append(
                            BitFixRecord(
                                cluster=pl.cluster.leader,
                                color=color,
                                group=group,
                                bit_index=bit_index,
                                s0=None,
                                s1=None,
                                value=None,
                                skipped=True,
                            )
                        )
                        continue
                influenced = (
                    [coin_node] if coin_node is not None else pl.law.nodes()
                )
                affected = sorted(
                    {
                        u
                        for w in influenced
                        for u in inst.graph.closed_neighbors(w)
                    }
                )
                sums = {}
                for branch in (0, 1):
                    trial = assignment.copy()
                    trial.fix_bit(group, bit_index, branch)
                    sums[branch] = branch_sum(inst, law, affected, trial, unit, budget)
                value = 0 if sums[0] < sums[1] else 1
                assignment.fix_bit(group, bit_index, value)
                aggregated += 1
                if log_expectations:
                    expectation_log.append(
                        expected_output_size(inst, law, assignment, budget)
                    )
                fixes.append(
                    BitFixRecord(
                        cluster=pl.cluster.leader,
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
            (len(pl.bits) * (2 * pl.cluster.tree.depth() + 2) for pl in plans_here),
            default=0,
        )
    simulated += 2  # final phase-1 / phase-2 value exchange
    round_bound += 2
    result = run_phases(inst, law, assignment)
    bad = validate_cfds(inst.graph, result)
    if bad:
        raise InvariantViolation(f"clusterwise output violates constraints at {bad}")
    if verify and initial is not None:
        slack = Fraction(1, n**6)
        if result.size > initial + slack:
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
    decomp: Optional[NetworkDecomposition] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    verify: bool = True,
) -> Tuple[CFDS, ClusterOutcome]:
    """Deterministic one-shot rounding of a 1/F-fractional dominating set.

    Uses independence F per the uncover-probability requirement; the scaled
    instance is derandomized cluster by cluster over a 2-hop decomposition.
    """
    _check_fractional(xprime, F, "one-shot")
    if graph.delta_tilde < 2:
        raise PreconditionError("one-shot rounding needs at least one edge")
    inst = one_shot_instance(graph, xprime)
    if decomp is None:
        decomp = compute_decomposition(graph, 2)
    # any k >= F suffices; k = n covers every cluster, which selects the
    # closed-form per-coin law instead of shared-seed enumeration
    outcome = derandomize_clusterwise(
        inst, decomp, indep=graph.n, budget=budget, verify=verify
    )
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
    decomp: Optional[NetworkDecomposition] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    verify: bool = True,
) -> Tuple[CFDS, ClusterOutcome]:
    """Deterministic factor-two rounding of a 1/r-fractional dominating set.

    Independence ceil(8 ln Delta~) suffices for the uncover-probability
    bound; the output is 2/r-fractional (values either double or vanish).
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
    if decomp is None:
        decomp = compute_decomposition(graph, 2)
    # any k >= 8 ln Delta~ suffices; k = n covers every cluster, which
    # keeps expectations in closed form
    outcome = derandomize_clusterwise(
        inst, decomp, indep=graph.n, budget=budget, verify=verify
    )
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
