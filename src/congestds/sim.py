"""Synchronous round-based execution with message-size accounting.

Rounds that are genuinely simulated (lockstep message exchange) are counted
separately from rounds *charged* for externally-cited subroutines that run
centrally.  Message sizes are measured in bits of a canonical JSON
serialization and checked against ``beta * ceil(log2 n)`` in the CONGEST
cost model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Protocol, Tuple

from .errors import (
    DomainError,
    MessageSizeError,
    PrecisionError,
    RoundBudgetError,
)
from .graph import Graph


class NodeProgram(Protocol):
    """Per-node behavior: consume the inbox, emit an outbox, optionally halt."""

    def step(
        self, round_no: int, inbox: Dict[int, Any]
    ) -> Tuple[Dict[int, Any], bool]: ...


def message_bits(msg: Any) -> int:
    """Bit size of the canonical serialization of a message."""
    return 8 * len(json.dumps(msg, sort_keys=True, separators=(",", ":")).encode())


@dataclass
class RoundStats:
    """Round and message accounting for one run."""

    simulated_rounds: int = 0
    charged_rounds: int = 0
    max_message_bits: int = 0
    cost_model: str = "congest"
    beta: int = 32
    charges: List[Tuple[str, int]] = field(default_factory=list)

    def bit_limit(self, n: int) -> Optional[int]:
        if self.cost_model == "local":
            return None
        return self.beta * max(1, math.ceil(math.log2(max(n, 2))))


def charge_oracle(stats: RoundStats, rounds: int, label: str) -> RoundStats:
    """Book *rounds* charged rounds for an externally-cited subroutine."""
    if rounds < 0:
        raise DomainError(f"cannot charge negative rounds ({rounds})")
    stats.charged_rounds += rounds
    stats.charges.append((label, rounds))
    return stats


def run(
    network: Graph,
    programs: Dict[int, NodeProgram],
    limit: int,
    cost_model: str = "congest",
    beta: int = 32,
) -> RoundStats:
    """Execute lockstep rounds until every node halts or the budget runs out.

    Outboxes may address only neighbors; delivery is merged deterministically
    by (sender, receiver) order.  Deterministic given inputs.
    """
    if set(programs) != set(range(network.n)):
        raise DomainError("need exactly one program per node")
    stats = RoundStats(cost_model=cost_model, beta=beta)
    limit_bits = stats.bit_limit(network.n)
    halted = {v: False for v in programs}
    inboxes: Dict[int, Dict[int, Any]] = {v: {} for v in programs}
    round_no = 0
    while not all(halted.values()):
        if round_no >= limit:
            raise RoundBudgetError(
                f"round budget {limit} exhausted with "
                f"{sum(not h for h in halted.values())} nodes still running"
            )
        next_inboxes: Dict[int, Dict[int, Any]] = {v: {} for v in programs}
        any_message = False
        for v in sorted(programs):
            if halted[v]:
                continue
            outbox, done = programs[v].step(round_no, inboxes[v])
            halted[v] = done
            for dest in sorted(outbox):
                if dest not in network.adj[v]:
                    raise DomainError(
                        f"node {v} addressed non-neighbor {dest} in round {round_no}"
                    )
                bits = message_bits(outbox[dest])
                stats.max_message_bits = max(stats.max_message_bits, bits)
                if limit_bits is not None and bits > limit_bits:
                    raise MessageSizeError(v, round_no, bits, limit_bits)
                next_inboxes[dest][v] = outbox[dest]
                any_message = True
        inboxes = next_inboxes
        # a final step in which every node halts without sending is free
        if all(halted.values()) and not any_message:
            break
        stats.simulated_rounds += 1
        round_no += 1
    return stats


@dataclass
class ClusterTree:
    """A rooted spanning tree of a cluster, plus fringe attachment points.

    ``parent`` maps each non-root member to its tree parent; fringe nodes
    (outside the cluster but adjacent to it) forward through their designated
    in-cluster neighbor.
    """

    root: int
    parent: Dict[int, int]
    fringe_parent: Dict[int, int] = field(default_factory=dict)

    @property
    def members(self) -> List[int]:
        return sorted(set(self.parent) | {self.root})

    def depth(self) -> int:
        memo: Dict[int, int] = {self.root: 0}

        def d(v: int) -> int:
            if v not in memo:
                memo[v] = d(self.parent[v]) + 1
            return memo[v]

        return max((d(v) for v in self.parent), default=0)


def tree_aggregate_sum(
    tree: ClusterTree,
    values: Dict[int, Fraction],
    n: int,
    stats: Optional[RoundStats] = None,
) -> Fraction:
    """Aggregate the exact sum of *values* at the tree root.

    Values must be transmittable (multiples of 2**-iota, the fixed-point
    unit at or below 1/n**10) so partial sums fit in O(log n)-bit messages.
    Fringe nodes first forward their value to their in-cluster neighbor;
    then the sum travels up level by level.  Consumes at most 2*depth+2
    simulated rounds.
    """
    from .values import iota_for

    unit = Fraction(1, 1 << iota_for(max(n, 1)))
    for v, val in values.items():
        if (Fraction(val) / unit).denominator != 1:
            raise PrecisionError(
                f"value {val} at node {v} is not transmittable for n={n}"
            )
    members = set(tree.members)
    for v in values:
        if v not in members and v not in tree.fringe_parent:
            raise DomainError(f"node {v} is neither a member nor a fringe node")
    totals: Dict[int, Fraction] = {v: Fraction(0) for v in members}
    rounds = 0
    fringe_used = False
    for v, val in values.items():
        if v in tree.fringe_parent:
            totals[tree.fringe_parent[v]] += Fraction(val)
            fringe_used = True
        else:
            totals[v] += Fraction(val)
    if fringe_used:
        rounds += 1
    # bottom-up by depth
    depth_of: Dict[int, int] = {tree.root: 0}

    def d(v: int) -> int:
        if v not in depth_of:
            depth_of[v] = d(tree.parent[v]) + 1
        return depth_of[v]

    order = sorted(members, key=d, reverse=True)
    max_depth = d(order[0]) if order else 0
    for v in order:
        if v == tree.root:
            continue
        totals[tree.parent[v]] += totals[v]
    rounds += max_depth
    if stats is not None:
        stats.simulated_rounds += rounds
        assert rounds <= 2 * tree.depth() + 2
    return totals[tree.root]
