"""Exception hierarchy shared across the package.

Every library error derives from SunflowerError so callers (and the CLI)
can map any domain failure to a single exit code while still matching on
the specific condition.
"""


class SunflowerError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateMember(SunflowerError):
    """A family contained the same member twice."""


class EmptySet(SunflowerError):
    """An empty member was read where empty members are not allowed."""


class OutOfRange(SunflowerError):
    """A coordinate or rank fell outside its modulus or class."""


class ArityMismatch(SunflowerError):
    """A vector had the wrong number of coordinates."""


class BadArity(SunflowerError):
    """An operation received the wrong number of (distinct) arguments."""


class DomainError(SunflowerError):
    """A numeric argument was outside the operation's domain."""


class NotPrimePower(SunflowerError):
    """A modulus that must be a prime power is not one."""


class NotPartite(SunflowerError):
    """A family was not partite with respect to the given partition."""


class TooLarge(SunflowerError):
    """An instance exceeded a documented size ceiling."""


class UsageError(SunflowerError):
    """Command line arguments were malformed or inconsistent."""


class InputHasSunflower(SunflowerError):
    """An operation requiring a sunflower-free input found a sunflower.

    Carries the witness so the caller can report which members fail.
    """

    def __init__(self, witness, family=None):
        super().__init__(
            "input family contains a sunflower: members %s" % (list(witness.indices),)
        )
        self.witness = witness
        # kept so reporters can render the kernel with original labels
        self.family = family
