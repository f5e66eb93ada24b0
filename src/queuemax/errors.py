"""Exception types shared across the library."""


class QueueMaxError(Exception):
    """Base class for all queuemax-specific errors."""


class RangeError(QueueMaxError, ValueError):
    """A numeric input lies outside its admissible range."""


class StabilityError(QueueMaxError, ValueError):
    """Offered load meets or exceeds capacity; no stationary regime exists."""


class UnsupportedError(QueueMaxError, ValueError):
    """Requested configuration is outside the implemented range."""


class NumericError(QueueMaxError):
    """A numeric kernel failed its own check on valid input; the CLI exits 3."""


class ConvergenceError(NumericError, ArithmeticError):
    """A kernel's result failed its tolerance (root residual, stalled bisection,
    a simulated queue length past its sanity cap)."""


class SingularError(NumericError, ArithmeticError):
    """A linear system is singular or too ill-conditioned to solve reliably."""


class BracketError(NumericError, ValueError):
    """Bracketing endpoints do not straddle a sign change."""


class DegenerateRootsError(NumericError, ArithmeticError):
    """Root configuration violates the assumptions of the hitting-probability solve."""


class DegenerateSampleError(QueueMaxError, ValueError):
    """Sample is too small or too flat for the requested fit."""


class HeuristicRangeWarning(UserWarning):
    """An asymptotic approximation is being evaluated below its comfort range.

    Warning rather than error: values remain well defined, accuracy is simply
    not promised there.
    """
