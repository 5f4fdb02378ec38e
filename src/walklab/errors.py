"""Exception types shared across the package.

Everything raised on purpose derives from WalklabError, so the CLI can
tell "our" errors (exit code 1) from genuine bugs.  There is one class
per kind of failure a caller could handle differently:

* BadParam: bad input to an API call (an illegal step law, parameter,
  horizon, gamma or data set),
* ConfigError: a bad config file, law descriptor or CLI flag,
* ResourceLimit: a computation would exceed a fixed budget,
* SuspectedRecurrence: a Green or DP gamma estimate asked of a recurrent
  law (gamma = 0), refused from the law before any work,
* InvariantViolation: a result breaks an invariant of its type (a bug).
"""


class WalklabError(Exception):
    """Base class for all errors raised deliberately by this package."""


class BadParam(WalklabError):
    """An argument of an API call is outside its legal range: a step law
    that is not a genuinely d-dimensional probability law, a parameter,
    horizon or gamma out of range or not integral, a float law given to
    the exact oracle, or data a fit or a distance cannot use."""


class ConfigError(WalklabError):
    """Malformed configuration: JSON config file, law descriptor or CLI flag."""


class ResourceLimit(WalklabError):
    """A computation would exceed a fixed size limit.

    The limits are gamma.CELL_BUDGET, the cells of any pmf evolution box,
    oracle.PATH_BUDGET, the paths enumerate_paths enumerates and its
    horizon, and path.STEP_BUDGET, the steps of one simulated path, which
    bounds the horizon of each mc_escape replica too.
    """


class SuspectedRecurrence(WalklabError):
    """A Green or DP gamma estimate was asked of a recurrent law.

    A genuinely d-dimensional walk with finite support is recurrent iff
    d <= 2 and its mean is zero (Chung & Fuchs 1951), exactly for a
    rational law and within FLOAT_MASS_TOL for a float one.  Its gamma is
    0 and Green's series diverges, so the estimate is refused from the law
    alone, before any series or DP runs.
    """


class InvariantViolation(WalklabError):
    """A result object breaks an invariant that its type guarantees."""
