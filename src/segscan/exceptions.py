"""Errors raised across the package, one class per failure condition.

All inherit from SegscanError so callers can catch the package as a whole.
InputError, DetectionError and BreakpointError group them into the families
the CLI maps onto exit codes 3, 4 and 5; see segscan.cli.
"""


class SegscanError(Exception):
    """Base class for every error this package raises on purpose."""


class InputError(SegscanError):
    """The input signal is not usable data."""


class DetectionError(SegscanError):
    """The requested detection or segment cost cannot be computed."""


class BreakpointError(SegscanError):
    """A breakpoint list fails validation against the signal length."""


class NonFiniteValueError(InputError):
    """Signal contains NaN or infinite entries."""


class EmptySignalError(InputError):
    """Signal has zero samples or zero dimensions."""


class RaggedInputError(InputError):
    """Input is not a rectangular 1D or 2D numeric array."""


class NotSortedError(BreakpointError):
    """Breakpoint ends are not in increasing order."""


class DuplicateError(BreakpointError):
    """Breakpoint ends contain a repeated value."""


class OutOfRangeError(BreakpointError):
    """Breakpoint end lies outside [1, n_samples]."""


class MissingTerminalError(BreakpointError):
    """The last breakpoint end does not equal the number of samples."""


class IndexOutOfRangeError(DetectionError):
    """Segment bounds are not 0 <= start < end <= n_samples."""


class SegmentTooShortError(DetectionError):
    """Segment is shorter than the cost family's minimum length."""


class SignalTooShortError(DetectionError):
    """Signal is shorter than the cost family's minimum segment length."""


class BadParamError(SegscanError):
    """Malformed parameter value (cost spec, search config, stopping rule)."""


class MemoryBudgetError(DetectionError):
    """Precomputation would exceed the built-in memory budget."""


class InfeasibleError(DetectionError):
    """No valid segmentation exists under the given constraints."""


class BudgetUnreachableError(DetectionError):
    """No reachable segmentation attains the requested cost budget."""


class WindowTooLargeError(DetectionError):
    """Window width exceeds the signal length."""


class MismatchedLengthError(BreakpointError):
    """Operands refer to signals of different lengths."""


class SpacingInfeasibleError(SegscanError):
    """Requested breakpoints cannot be placed under the spacing floor."""


class DegenerateSignalWarning(UserWarning):
    """All sampled pairwise distances are zero; bandwidth fell back to 1.0."""
