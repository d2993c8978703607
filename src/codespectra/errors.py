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
    """An enumeration refused before it starts: `needed` items of `what`
    exceed `limit`."""

    def __init__(self, what, needed, limit):
        super().__init__(what, needed, limit)
        self.what, self.needed, self.limit = what, needed, limit

    def __str__(self):
        return f"{self.what}: {self.needed} exceeds limit {self.limit}"


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


class SupportViolation(CodeSpectraError):
    pass


class DomainError(CodeSpectraError):
    pass


class NotSCCGood(CodeSpectraError):
    """Raised (or reported) with a witness (x, y, probability)."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"ensemble is not SCC-good, witness {witness}")
