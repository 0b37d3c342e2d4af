"""Exception types shared across the package."""


class ModfactorError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ModfactorError):
    """Operands have incompatible shapes or ambient dimensions."""


class ToleranceAmbiguity(ModfactorError):
    """A rank decision fell within a factor of ten of its cut."""


class NotPSD(ModfactorError):
    """Matrix is not positive semidefinite (or not Hermitian) within tolerance."""


class NonFiniteInput(ModfactorError, ValueError):
    """An input matrix has NaN or Inf entries."""


class ValidationError(ModfactorError):
    """A structural invariant failed numerical validation."""


class PreconditionError(ModfactorError):
    """An operation was called outside its stated preconditions."""


class NotInModule(ModfactorError):
    """Element does not lie in the span of the module or algebra."""


class StallError(ModfactorError):
    """Greedy quasi-orthonormalization made no progress (defensive)."""


class UnsupportedPair(ModfactorError):
    """No direct comparison formula exists for this ordered method pair."""


class ParseError(ModfactorError):
    """Malformed instance file."""


class InfeasibleSpec(ModfactorError):
    """Random-instance specification cannot be realized."""
