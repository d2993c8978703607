"""Exception types shared across the package."""


class CodeSpectraError(Exception):
    pass


class NonPrimeP(CodeSpectraError):
    pass


class ReducibleModulus(CodeSpectraError):
    pass


class FieldTooLarge(CodeSpectraError):
    pass


class TooLarge(CodeSpectraError):
    pass


class EmptySequence(CodeSpectraError):
    pass


class EmptySet(CodeSpectraError):
    pass


class ZeroMarginal(CodeSpectraError):
    pass


class DimensionMismatch(CodeSpectraError):
    pass


class NotARefinement(CodeSpectraError):
    pass


class NotStochastic(CodeSpectraError):
    pass


class SupportExplosion(CodeSpectraError):
    pass


class SupportViolation(CodeSpectraError):
    pass


class DomainError(CodeSpectraError):
    pass


class NotSCCGood(CodeSpectraError):
    """Raised (or reported) with a witness (x, y, probability)."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"ensemble is not SCC-good, witness {witness}")
