"""Exception types shared across the package."""


class QexError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(QexError, ValueError):
    """Operands have incompatible shapes or sizes."""


class DenseCapExceeded(QexError, ValueError):
    """Materializing the superoperator would exceed the configured dense cap.

    Callers hitting this should switch to the matrix-free path
    (``operator_norm(..., method="lanczos")``).
    """


class TupleFormatError(QexError, ValueError):
    """A tuple file failed to parse or violated the schema."""


class UnitarityError(TupleFormatError):
    """A tuple flagged unitary contains a member that is not unitary."""


class InfeasibleOverlap(QexError, ValueError):
    """The overlap precondition of the cb-distance bound is violated."""


class BoundViolation(QexError, AssertionError):
    """A measured quantity exceeded a bound that should hold for the inputs."""


class NormingOrbitError(QexError, AssertionError):
    """A norming witness for a gapped tuple failed the orbit-membership check."""


class ConfigError(QexError, ValueError):
    """An experiment configuration is malformed."""
