"""Exception hierarchy shared by all subsystems."""


class CongestDSError(Exception):
    """Base class for all library errors."""


class DomainError(CongestDSError, ValueError):
    """An argument is outside the operation's domain."""


class PreconditionError(CongestDSError):
    """A documented precondition of an algorithm stage was violated."""


class PrecisionError(CongestDSError):
    """A value is not representable at the required fixed-point width."""


class StructuralError(CongestDSError):
    """An internal structural invariant failed (e.g. non-terminating clustering)."""


class InvariantViolation(CongestDSError):
    """A verified output violated a guaranteed bound."""
