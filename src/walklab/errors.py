"""Exception types shared across the package.

Everything raised on purpose derives from WalklabError so the CLI can
distinguish "our" errors (exit code 1) from genuine bugs.
"""


class WalklabError(Exception):
    """Base class for all errors raised deliberately by this package."""


class NotAProbability(WalklabError):
    """Atom masses are negative or do not sum to one."""


class DegenerateDimension(WalklabError):
    """Support of the step law does not span the ambient dimension."""


class DuplicateAtom(WalklabError):
    """The same lattice point appears twice in an atom list."""


class UnknownFamily(WalklabError):
    """Requested builtin step-law family does not exist."""


class BadParam(WalklabError):
    """Builtin family parameter outside its legal range."""


class ResourceLimit(WalklabError):
    """A computation would exceed a fixed size limit.

    The limits are gamma.CELL_BUDGET, the cells of any pmf evolution box,
    and the 64-bit time-site keys of the path kernel.
    """


class SuspectedRecurrence(WalklabError):
    """Green's series shows no sign of converging; the law looks recurrent."""


class BadGamma(WalklabError):
    """Escape probability outside (0, 1]."""


class HorizonTooShort(WalklabError):
    """A ReturnLaw does not extend far enough for the requested horizon."""


class BudgetExceeded(WalklabError):
    """Exhaustive enumeration would exceed oracle.PATH_BUDGET."""


class FloatLawRejected(WalklabError):
    """The exact oracle only accepts step laws with rational masses."""


class NotALaw(WalklabError):
    """A map claimed to be a probability law is not one."""


class TooFewPoints(WalklabError):
    """A fit needs at least three data points."""


class NonPositiveValue(WalklabError):
    """Log-log fitting needs strictly positive values."""


class InvariantViolation(WalklabError):
    """A result object breaks an invariant that its type guarantees."""


class ConfigError(WalklabError):
    """Malformed configuration (JSON config file or law descriptor)."""
