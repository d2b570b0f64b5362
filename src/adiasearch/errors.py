"""Exception types shared across the package.

The package raises two families: ``InputError`` (a ``ValueError``) for bad
input, which the CLI maps to exit code 2, and ``NumericError`` (a
``RuntimeError``) for a numerical failure, which it maps to exit code 3.
``SweepTimeout`` is the one ``NumericError`` named apart: a sweep instance
that never reaches success. An input is checked once, where it enters; an
unreadable table is refused by its loader, naming the file. Any other
exception is a bug, and the CLI lets it propagate.
"""


class AdiabaticSearchError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AdiabaticSearchError, ValueError):
    """Invalid user input: malformed database, bad parameters, wrong lengths."""


class NumericError(AdiabaticSearchError, RuntimeError):
    """Numerical failure during simulation (no convergence, overflow, step ceiling)."""


class SweepTimeout(NumericError):
    """A scaling-sweep instance reached no success on its ladder, or a probe
    pass would exceed the step ceiling of its size."""


def tolerance_text(tol: float) -> str:
    """A tolerance as messages quote it: 1e-9, not 1e-09."""
    mantissa, exponent = f"{tol:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"
