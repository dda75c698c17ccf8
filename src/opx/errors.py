"""Exception types raised by the library."""

__all__ = [
    "OpxError",
    "ParameterOutOfRange",
    "NotPositiveDefinite",
    "ShiftInsideSupport",
    "KernelUndefined",
    "IteratedUndefined",
    "DegenerateDenominator",
    "EvalAtShift",
    "PoleAtSample",
    "InvalidAlphas",
    "ZeroDenominator",
    "NonConvergent",
    "Divergent",
    "TableTooShort",
]


class OpxError(Exception):
    """Base class for all library-specific errors."""


class ParameterOutOfRange(OpxError):
    """A family parameter lies outside its positive-definite range, or a
    value asked for lies outside the double range."""


class NotPositiveDefinite(OpxError):
    """A recurrence coefficient lambda_n <= 0 where positivity is required."""


class ShiftInsideSupport(OpxError):
    """A shift point sits inside the support where the integrand is singular."""


class KernelUndefined(OpxError):
    """Some P_j(k) vanishes, so the kernel sequence at k does not exist."""


class IteratedUndefined(OpxError):
    """A cross sum of the iterated kernel construction vanishes."""


class DegenerateDenominator(OpxError):
    """A transformation coefficient has a vanishing denominator."""


class EvalAtShift(OpxError):
    """Evaluation point coincides with the shift where no stable branch exists."""


class PoleAtSample(OpxError):
    """A sample point hits a pole of a rational recovery combination."""


class InvalidAlphas(OpxError):
    """The trailing mixing coefficient alpha_l is zero."""


class ZeroDenominator(OpxError):
    """A continued-fraction denominator vanished beyond the tiny-floor rescue,
    or a chain sequence's minimal parameter reached 1, so that
    m_n = l_n / (1 - m_{n-1}) has no next term."""


class NonConvergent(OpxError):
    """An iteration did not settle before its cap.

    Raised when two continued-fraction passes disagree at the depth cap;
    when a closed-form Cauchy mass does not settle next to the support (the
    Laguerre fraction at its term cap, the Jacobi Gauss fraction at its
    depth); and when node-doubling quadrature, which custom families' Cauchy
    masses and far-from-support Geronimus Gram entries still use, reaches its
    order cap or its successive differences grow before they are small.
    """


class Divergent(OpxError):
    """A non-terminating hypergeometric series was requested outside |z| < 1."""


class TableTooShort(OpxError):
    """A finite coefficient table has no row for an index asked for."""
