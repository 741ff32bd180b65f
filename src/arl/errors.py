"""Exception types shared across the library."""


class ArlError(Exception):
    """Base class for all library errors."""


class InfiniteGroup(ArlError):
    """A presentation has positive free rank where a finite group was required."""


class CompositionMismatch(ArlError):
    """Two morphisms were composed but their endpoints do not match."""


class PrimeMismatch(ArlError):
    """Two l-local objects with different primes were combined."""


class TruncatedTower(ArlError):
    """A level beyond the represented prefix of a truncated tower was requested."""


class NotARladic(ArlError):
    """The tower could not be certified as Artin-Rees l-adic."""


class NonStabilizing(ArlError):
    """The represented prefix is too short to read off the inverse limit.

    Carries the deepest level that was inspected in ``level_reached``.
    """

    def __init__(self, message: str, level_reached: int):
        super().__init__(message)
        self.level_reached = level_reached


class NotLAdic(ArlError):
    """An operation required an l-adic tower but the certificate check failed."""


class FiniteIndex(ArlError):
    """A hypernatural index was required to be infinite but is finite."""


class UndeclaredSymbol(ArlError):
    """An index term names a symbol that its tower file does not declare."""


class NegativeResult(ArlError):
    """Hypernatural subtraction left the valid term domain."""


class PreconditionViolated(ArlError):
    """A stated precondition failed; the message carries the failing witness."""


class TowerFileError(ArlError):
    """A tower description file failed to parse or validate."""


class BadSetting(ArlError, ValueError):
    """An environment setting, such as ARL_DEFAULT_BOUND, has an invalid value."""
