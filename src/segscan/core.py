"""Signals, breakpoint sequences, and the total cost of a segmentation.

Conventions used everywhere in the package: indices are 0-based, segments are
half-open [start, end), and a segmentation is described by its strictly
increasing segment ends in [1, T] whose last entry is exactly T.  A list of
K + 1 ends therefore encodes K change points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import (
    BadParamError,
    DuplicateError,
    EmptySignalError,
    MismatchedLengthError,
    MissingTerminalError,
    NonFiniteValueError,
    NotSortedError,
    OutOfRangeError,
    RaggedInputError,
)


def _checked_int(name: str, value, minimum: int) -> int:
    """value as an int if operator.index takes it (Python and numpy integers,
    bool excepted) and it is >= minimum, else BadParamError."""
    number = None
    if not isinstance(value, (bool, np.bool_)):
        try:
            number = int(operator.index(value))
        except TypeError:
            pass
    if number is None or number < minimum:
        raise BadParamError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return number


def _checked_real(name: str, value, *, positive: bool = False) -> float:
    """value as a float if float() takes it (bool, str and bytes excepted) and
    it is finite and >= 0 (> 0 with positive=True), else BadParamError."""
    number = math.nan
    if not isinstance(value, (bool, np.bool_, str, bytes)):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if not math.isfinite(number) or number < 0.0 or (positive and number == 0.0):
        bound = "> 0" if positive else ">= 0"
        raise BadParamError(f"{name} must be a finite number {bound}, got {value!r}")
    return number


@dataclass(frozen=True)
class Signal:
    """A read-only T x d matrix of finite samples, one row per time step.

    Build instances through validate_signal(), which coerces dtype and shape
    and rejects non-finite input.
    """

    data: np.ndarray
    n_samples: int
    n_dims: int

    def __len__(self) -> int:
        return self.n_samples


def validate_signal(raw) -> Signal:
    """Coerce raw input to a Signal.

    1D input becomes a single-column matrix.  Raises RaggedInputError when the
    input is not a rectangular 1D/2D numeric array, EmptySignalError when it
    has zero samples or dimensions, and NonFiniteValueError on NaN/inf.
    """
    if isinstance(raw, Signal):
        return raw
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise RaggedInputError(f"not a rectangular numeric array: {exc}") from None
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise RaggedInputError(f"expected 1D or 2D input, got {arr.ndim}D")
    n_samples, n_dims = arr.shape
    if n_samples == 0 or n_dims == 0:
        raise EmptySignalError(f"signal has shape {n_samples} x {n_dims}")
    if not np.isfinite(arr).all():
        raise NonFiniteValueError("signal contains NaN or infinite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return Signal(data=arr, n_samples=n_samples, n_dims=n_dims)


@dataclass(frozen=True)
class Breakpoints:
    """Strictly increasing segment ends; the last one equals n_samples."""

    ends: tuple[int, ...]
    n_samples: int

    @property
    def n_bkps(self) -> int:
        """Number of change points; the terminal end does not count."""
        return len(self.ends) - 1

    @property
    def internal(self) -> tuple[int, ...]:
        """The change points proper, i.e. all ends except the terminal one."""
        return self.ends[:-1]

    def segments(self) -> list[tuple[int, int]]:
        """Half-open (start, end) pairs covering [0, n_samples)."""
        out = []
        start = 0
        for end in self.ends:
            out.append((start, end))
            start = end
        return out

    def min_segment_length(self) -> int:
        return min(end - start for start, end in self.segments())

    def complies(self, min_size: int = 1, jump: int = 1) -> bool:
        """True when every segment is >= min_size and every internal end is a
        multiple of jump."""
        if any(end - start < min_size for start, end in self.segments()):
            return False
        return all(end % jump == 0 for end in self.internal)


def validate_breakpoints(ends: Sequence[int], n_samples: int) -> Breakpoints:
    """Check a raw end sequence against a signal length and wrap it.

    Raises OutOfRangeError for entries outside [1, n_samples] or not integral
    (bool, None, NaN and +-inf included; 5.0 and numpy integers pass),
    DuplicateError and NotSortedError for order violations, and
    MissingTerminalError when the sequence is empty or does not end at T.
    """
    if n_samples < 1:
        raise EmptySignalError(f"n_samples must be >= 1, got {n_samples}")
    cleaned = []
    for value in ends:
        try:
            as_int = None if isinstance(value, (bool, np.bool_)) else int(value)
        except (TypeError, ValueError, OverflowError):
            as_int = None
        if as_int is None or as_int != value:
            raise OutOfRangeError(f"breakpoint end {value!r} is not an integer")
        if not 1 <= as_int <= n_samples:
            raise OutOfRangeError(
                f"breakpoint end {as_int} outside [1, {n_samples}]"
            )
        cleaned.append(as_int)
    if not cleaned:
        raise MissingTerminalError("empty breakpoint sequence")
    for prev, cur in zip(cleaned, cleaned[1:]):
        if cur == prev:
            raise DuplicateError(f"breakpoint end {cur} repeated")
        if cur < prev:
            raise NotSortedError(f"breakpoint ends not increasing at {prev} -> {cur}")
    if cleaned[-1] != n_samples:
        raise MissingTerminalError(
            f"last end is {cleaned[-1]}, expected n_samples={n_samples}"
        )
    return Breakpoints(ends=tuple(cleaned), n_samples=n_samples)


def sum_of_costs(fitted, bkps: Breakpoints) -> float:
    """Total cost of a segmentation: the plain sum of per-segment costs.

    `fitted` is any fitted cost (see segscan.costs.fit).  Penalties are never
    included here.  Raises MismatchedLengthError when the breakpoints refer to
    a different signal length, and whatever the cost raises for a segment that
    is too short.
    """
    if fitted.n_samples != bkps.n_samples:
        raise MismatchedLengthError(
            f"cost fitted on {fitted.n_samples} samples, breakpoints on {bkps.n_samples}"
        )
    return _total(fitted.cost, bkps.ends)


def _total(cost, ends) -> float:
    """Sum of cost(start, end) over consecutive ends, accumulated left to right."""
    value = 0.0
    start = 0
    for end in ends:
        end = int(end)
        value += cost(start, end)
        start = end
    return value


@dataclass(frozen=True)
class DetectionResult:
    """Breakpoints found by a search engine plus its work counters.

    contrast is the achieved sum of segment costs (no penalty term);
    n_cost_evals counts the cost evaluations this particular call made (never
    another thread's on a shared fitted cost), so a fully cached repeat
    reports 0; n_pruned counts candidate discards (nonzero only for the
    pruned penalized search).
    """

    bkps: Breakpoints
    contrast: float
    n_cost_evals: int = 0
    n_pruned: int = 0
