"""Exception hierarchy shared by all subsystems."""


class CongestDSError(Exception):
    """Base class for all library errors."""


class DomainError(CongestDSError, ValueError):
    """An argument is outside the operation's domain."""


class PreconditionError(CongestDSError):
    """A documented precondition of an algorithm stage was violated."""


class PrecisionError(CongestDSError):
    """A value is not representable at the required fixed-point width."""


class EnumerationBudgetError(CongestDSError):
    """An exact expectation would need more DP states than its budget allows."""


class MessageSizeError(CongestDSError):
    """A simulated message exceeded the per-round bit budget."""

    def __init__(self, node: int, round_no: int, bits: int, limit: int):
        super().__init__(
            f"node {node} sent a {bits}-bit message in round {round_no} "
            f"(limit {limit} bits)"
        )
        self.node = node
        self.round_no = round_no
        self.bits = bits
        self.limit = limit


class RoundBudgetError(CongestDSError):
    """The simulation exhausted its round budget before all nodes halted."""


class StructuralError(CongestDSError):
    """An internal structural invariant failed (e.g. non-terminating clustering)."""


class InvariantViolation(CongestDSError):
    """A verified output violated a guaranteed bound."""
