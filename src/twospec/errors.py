"""Exception types with stable machine-readable codes.

Every error the library raises carries a ``code`` string that the CLI
surfaces verbatim in its JSON error objects, so callers can dispatch on
codes instead of parsing messages.
"""


class TwospecError(Exception):
    """Base class for all library errors."""

    code = "ERROR"


class SharedPointError(TwospecError):
    code = "SHARED_POINT"


class NotUnitModulusError(TwospecError):
    code = "NOT_UNIT_MODULUS"


class DegenerateAngleError(TwospecError):
    code = "DEGENERATE_ANGLE"


class LengthMismatchError(TwospecError):
    code = "LENGTH_MISMATCH"


class ZeroNormError(TwospecError):
    code = "ZERO_NORM"


class NotCoveredError(TwospecError):
    code = "NOT_COVERED"


class NegativeCoefficientError(TwospecError):
    code = "NEGATIVE_COEFFICIENT"


class NonpositiveWeightError(TwospecError):
    code = "NONPOSITIVE_WEIGHT"


class AlphaOutOfDiskError(TwospecError):
    code = "ALPHA_OUT_OF_DISK"


class ZeroDenominatorError(TwospecError):
    code = "ZERO_DENOMINATOR"


class ProblemFormatError(TwospecError):
    code = "BAD_PROBLEM"


class UnsupportedArithmeticError(ProblemFormatError):
    code = "UNSUPPORTED_ARITHMETIC"


class InterlacingRejectedError(TwospecError):
    """Raised by the pipeline when the prescribed sets fail interlacing.

    Carries the full verdict; ``code`` is the verdict's violation code.
    """

    code = "INTERLACING_REJECTED"

    def __init__(self, verdict):
        super().__init__(verdict.detail or "interlacing rejected")
        self.verdict = verdict
        if verdict.code:
            self.code = verdict.code
