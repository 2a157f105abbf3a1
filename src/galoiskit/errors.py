"""Exception types shared across the engine, and the default degree cap."""


class GaloisKitError(Exception):
    """Base class for all engine errors."""


class FieldMismatchError(GaloisKitError):
    """Operands belong to different coefficient fields."""


DEFAULT_DEGREE_CAP = 64  # field degree beyond which constructions are refused by default


class DegreeCapError(GaloisKitError):
    """A construction would exceed the configured field-degree cap."""

    def __init__(self, message, attempted=None, cap=None):
        super().__init__(message)
        self.attempted = attempted
        self.cap = cap


class EngineLimitError(GaloisKitError):
    """The engine reached one of its own fixed limits (never a user error)."""


class PrimitiveSearchError(EngineLimitError):
    """Primitive-element search exhausted its integer coefficient range."""


class GroupOrderLimitError(EngineLimitError, ValueError):
    """Permutation-group enumeration passed its order bound.

    Also a ValueError, which ``closure`` raised for this before.
    """


class SoundnessError(GaloisKitError):
    """An internal consistency assertion failed.

    Signals an engine bug, never a user error: every place this is raised
    corresponds to a mathematical identity that must hold for correct code.
    """

    def __init__(self, check_name, detail=""):
        super().__init__(f"soundness check failed: {check_name}" + (f" ({detail})" if detail else ""))
        self.check_name = check_name
        self.detail = detail


class ChainFormatError(GaloisKitError):
    """A radical-chain description is malformed or mathematically empty."""


class ParseError(GaloisKitError):
    """Syntax error in a polynomial or radicand expression.

    ``column`` is 1-based.
    """

    def __init__(self, message, column):
        super().__init__(f"{message} at column {column}")
        self.reason = message
        self.column = column
