"""Exception types shared across the package.

Two families matter to the CLI: ``InputError`` maps to exit code 2,
``NumericError`` to exit code 3. An input is checked once, where it enters.
"""


class AdiabaticSearchError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AdiabaticSearchError, ValueError):
    """Invalid user input: malformed database, bad parameters, wrong lengths."""


class NumericError(AdiabaticSearchError, RuntimeError):
    """Numerical failure during simulation (no convergence, overflow, step ceiling)."""


class NotPowerOfTwo(InputError):
    """Database row count is not a power of two."""


class DuplicateKey(InputError):
    """Two database rows share the same key."""


class UnparseableValueLabel(InputError):
    """A value label does not parse as a decimal integer or real."""


class TargetNotInDatabase(InputError):
    """Strict mode rejected a target label absent from the database."""


class LengthMismatch(InputError):
    """A problem diagonal has the wrong length for its register."""


class SOutOfRange(InputError):
    """Interpolation parameter outside [0, 1]."""


class WrongQubitCount(InputError):
    """Operation supports a fixed qubit count (the pulse compiler needs n=2)."""


class NotConverged(NumericError):
    """Step doubling reached its step ceiling before two passes agreed."""


class SweepTimeout(NumericError):
    """A scaling-sweep instance reached no success on its ladder, or a probe
    pass would exceed the step ceiling of its size."""


class NonFiniteResult(NumericError):
    """A float overflowed: a level, state or report value is not finite."""


class NotNormalized(NumericError):
    """An evolved state's norm deviates from 1 beyond tolerance."""


class PhaseBeyondResolution(NumericError):
    """A step phase is so large that float64 cannot resolve it to a radian."""


def tolerance_text(tol: float) -> str:
    """A tolerance as messages quote it: 1e-9, not 1e-09."""
    mantissa, exponent = f"{tol:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"
