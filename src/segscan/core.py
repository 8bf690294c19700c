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


@dataclass(frozen=True, eq=False)
class Signal:
    """A read-only T x d matrix of finite samples, one row per time step.

    Building one coerces data to a private float64 copy, 1D input becoming a
    single column, and raises RaggedInputError when it is not a rectangular
    1D/2D numeric array, EmptySignalError when it has zero samples or
    dimensions, and NonFiniteValueError on NaN/inf.  T and d are read from
    the data's shape.  Signals compare and hash by identity.
    """

    data: np.ndarray

    def __post_init__(self):
        try:
            # np.array always copies, once: asarray and then copy() would copy
            # list, integer and float32 input twice
            arr = np.array(self.data, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise RaggedInputError(f"not a rectangular numeric array: {exc}") from None
        # before any reshape, so that the copy itself is read-only, not a view of it
        arr.setflags(write=False)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise RaggedInputError(f"expected 1D or 2D input, got {arr.ndim}D")
        if arr.size == 0:
            raise EmptySignalError(f"signal has shape {arr.shape[0]} x {arr.shape[1]}")
        # min and max are NaN where any entry is, and infinite where any is:
        # unlike isfinite, the check allocates no mask beside the copy
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise NonFiniteValueError("signal contains NaN or infinite entries")
        object.__setattr__(self, "data", arr)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_dims(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.n_samples


def validate_signal(raw) -> Signal:
    """raw as a Signal: a Signal passes through, anything else is checked
    and coerced by Signal's constructor."""
    return raw if isinstance(raw, Signal) else Signal(raw)


def _integral(value) -> int | None:
    """value as an int if it is an integral number (5.0 and numpy integers
    pass), else None (bool, str, None, NaN, +-inf and 1.9 among others)."""
    try:
        as_int = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return as_int if as_int == value else None


@dataclass(frozen=True)
class Breakpoints:
    """Strictly increasing segment ends; the last one equals n_samples.

    Building one checks the ends against n_samples and stores them as a
    tuple of ints, and n_samples as an int.  Integral means what _integral
    takes: 5.0 and numpy integers pass; bool, None, str, NaN, +-inf and 5.5
    do not.  Raises BadParamError for a non-integral n_samples,
    EmptySignalError for one below 1, OutOfRangeError for entries outside
    [1, n_samples] or not integral, DuplicateError and NotSortedError for
    order violations, and MissingTerminalError when the sequence is empty
    or does not end at T.
    """

    ends: tuple[int, ...]
    n_samples: int

    def __post_init__(self):
        n_samples = _integral(self.n_samples)
        if n_samples is None:
            raise BadParamError(f"n_samples must be an integer, got {self.n_samples!r}")
        if n_samples < 1:
            raise EmptySignalError(f"n_samples must be >= 1, got {self.n_samples}")
        cleaned = []
        for value in self.ends:
            as_int = _integral(value)
            if as_int is None:
                raise OutOfRangeError(f"breakpoint end {value!r} is not an integer")
            if not 1 <= as_int <= n_samples:
                raise OutOfRangeError(f"breakpoint end {as_int} outside [1, {n_samples}]")
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
        object.__setattr__(self, "ends", tuple(cleaned))
        object.__setattr__(self, "n_samples", n_samples)

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
        return list(zip((0, *self.ends), self.ends))

    def min_segment_length(self) -> int:
        return min(end - start for start, end in self.segments())

    def complies(self, min_size: int = 1, jump: int = 1) -> bool:
        """True when every segment is >= min_size and every internal end is a
        multiple of jump."""
        if any(end - start < min_size for start, end in self.segments()):
            return False
        return all(end % jump == 0 for end in self.internal)


def validate_breakpoints(ends: Sequence[int], n_samples: int) -> Breakpoints:
    """A raw end sequence checked against a signal length by Breakpoints's
    constructor, which raises on any violation."""
    return Breakpoints(ends=ends, n_samples=n_samples)


def sum_of_costs(fitted, bkps: Breakpoints) -> float:
    """Total cost of a segmentation: the plain sum of per-segment costs.

    `fitted` is any fitted cost (see segscan.costs.fit).  Penalties are never
    included here.  Raises MismatchedLengthError when the breakpoints refer to
    a different signal length, and whatever the cost raises for a segment that
    is too short.  The ends are named to the fitted cost first, as an engine
    names its grid, so a fresh rbf fit builds image rows for these ends
    alone, and one whose image lacks some of them builds the full image;
    every image has the same bits.
    """
    if fitted.n_samples != bkps.n_samples:
        raise MismatchedLengthError(
            f"cost fitted on {fitted.n_samples} samples, breakpoints on {bkps.n_samples}"
        )
    fitted._cover(bkps.ends)
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
    reports 0; n_pruned counts the candidates pelt discarded (pelt only,
    which prunes where it evaluates costs, every cost family being
    superadditive, and reads dynp's matrix without pruning; its heap step
    discards a doomed candidate when it next pops it).
    """

    bkps: Breakpoints
    contrast: float
    n_cost_evals: int = 0
    n_pruned: int = 0
