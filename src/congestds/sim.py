"""Charged-round accounting.

A subroutine that runs centrally but stands for a cited distributed
algorithm (the LP solver, the ruling subset, the cluster spanner) books the
rounds that algorithm takes as *charged* rounds.  The rounds of the stages
implemented here are not charged: each stage computes them from its own
schedule and reports them in its outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .errors import DomainError


@dataclass
class RoundStats:
    """Charged rounds of one run, with one labelled entry per charge."""

    charged_rounds: int = 0
    charges: List[Tuple[str, int]] = field(default_factory=list)


def charge_oracle(stats: RoundStats, rounds: int, label: str) -> RoundStats:
    """Book *rounds* charged rounds for an externally-cited subroutine."""
    if rounds < 0:
        raise DomainError(f"cannot charge negative rounds ({rounds})")
    stats.charged_rounds += rounds
    stats.charges.append((label, rounds))
    return stats
