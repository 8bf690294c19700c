import tracemalloc

import numpy as np
import pytest

from segscan import (
    Breakpoints,
    CostSpec,
    DetectionResult,
    Signal,
    fit,
    pelt,
    sum_of_costs,
    validate_breakpoints,
    validate_signal,
)
from segscan.exceptions import (
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


def test_validate_signal_promotes_1d():
    sig = validate_signal([1.0, 2.0, 3.0])
    assert isinstance(sig, Signal)
    assert sig.data.shape == (3, 1)
    assert sig.n_samples == 3
    assert sig.n_dims == 1
    assert len(sig) == 3


def test_validate_signal_keeps_2d_shape():
    sig = validate_signal(np.arange(12.0).reshape(6, 2))
    assert sig.data.shape == (6, 2)
    assert sig.n_dims == 2


def test_validate_signal_copies_and_freezes():
    raw = np.ones((4, 1))
    sig = validate_signal(raw)
    raw[0, 0] = 99.0
    assert sig.data[0, 0] == 1.0
    assert not sig.data.flags.writeable
    with pytest.raises(ValueError):
        sig.data[0, 0] = 5.0


@pytest.mark.parametrize("kind", ["list", "int64", "float32", "float64"])
def test_signal_copies_its_input_once(kind):
    """Building a Signal allocates one float64 copy of its input and
    nothing of its size besides: coercing first and copying after took two
    copies of list, integer and float32 input.  The copy is the Signal's
    own: writes to the input do not reach it, and it stays read-only."""
    n = 200_000
    raw = np.arange(n, dtype=np.int64) % 1000
    raw = raw.tolist() if kind == "list" else raw.astype(kind)
    tracemalloc.start()
    try:
        signal = Signal(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    copy_bytes = 8 * n
    assert signal.data.nbytes == copy_bytes
    assert peak < copy_bytes + 4096, f"{peak} bytes at peak for a {copy_bytes}-byte copy"
    raw[0] = 123
    assert signal.data[0, 0] == 0.0
    assert not signal.data.flags.writeable
    assert signal.data.base is None or not signal.data.base.flags.writeable
    with pytest.raises(ValueError):
        signal.data[0, 0] = 1.0


def test_validate_signal_passthrough():
    sig = validate_signal([0.0, 1.0])
    assert validate_signal(sig) is sig


def test_validate_signal_rejects_bad_inputs():
    with pytest.raises(RaggedInputError):
        validate_signal([[1.0, 2.0], [3.0]])
    with pytest.raises(RaggedInputError):
        validate_signal(np.zeros((2, 2, 2)))
    with pytest.raises(EmptySignalError):
        validate_signal([])
    with pytest.raises(EmptySignalError):
        validate_signal(np.empty((0, 3)))
    with pytest.raises(NonFiniteValueError):
        validate_signal([1.0, np.nan])
    with pytest.raises(NonFiniteValueError):
        validate_signal([1.0, np.inf])


def test_signals_compare_and_hash_by_identity():
    """Two signals built from one array are distinct objects: comparing them
    answers False instead of raising numpy's ambiguous-truth ValueError, and
    a signal can key a dict."""
    raw = np.arange(6.0).reshape(3, 2)
    first, second = validate_signal(raw), validate_signal(raw)
    assert first != second
    assert first == first
    assert {first: 1, second: 2}[first] == 1


def test_signal_reads_its_shape_from_its_data():
    """T and d are not fields that could disagree with the data: the old
    Signal(data=np.zeros((5, 1)), n_samples=10, n_dims=1) fitted, then made
    pelt raise a bare IndexError."""
    with pytest.raises(TypeError):
        Signal(data=np.zeros((5, 1)), n_samples=10, n_dims=1)
    sig = Signal(data=np.zeros((5, 1)))
    assert (sig.n_samples, sig.n_dims, len(sig)) == (5, 1, 5)
    with pytest.raises(AttributeError):
        sig.n_samples = 10
    assert pelt(fit(CostSpec(family="l2"), sig), 1.0).bkps.ends == (5,)


def test_hand_built_signal_is_checked_and_frozen():
    """A Signal built directly gets validate_signal's checks: NaN is refused
    as input, not later in fit as an overflow of its summaries."""
    with pytest.raises(NonFiniteValueError, match="NaN or infinite"):
        Signal(data=np.array([[1.0], [np.nan]]))
    with pytest.raises(EmptySignalError):
        Signal(data=np.empty((0, 2)))
    raw = np.arange(4)
    sig = Signal(data=raw)
    raw[0] = 99
    assert sig.data.shape == (4, 1) and sig.data.dtype == np.float64
    assert sig.data[0, 0] == 0.0
    assert not sig.data.flags.writeable


def test_hand_built_breakpoints_are_checked():
    """Unsorted ends built directly used to pass, and hausdorff scored
    (60, 30, 100) 0 against (30, 60, 100)."""
    with pytest.raises(NotSortedError):
        Breakpoints(ends=(60, 30, 100), n_samples=100)
    with pytest.raises(MissingTerminalError):
        Breakpoints(ends=(30, 60), n_samples=100)
    assert Breakpoints(ends=[30.0, np.int64(60), 100], n_samples=100).ends == (30, 60, 100)


def test_validate_breakpoints_good_cases():
    bkps = validate_breakpoints([3, 6], 6)
    assert isinstance(bkps, Breakpoints)
    assert bkps.ends == (3, 6)
    assert bkps.n_samples == 6
    assert bkps.n_bkps == 1
    assert bkps.internal == (3,)
    assert bkps.segments() == [(0, 3), (3, 6)]
    # numpy integers and integral floats coerce cleanly
    assert validate_breakpoints(np.array([3, 6]), 6).ends == (3, 6)
    assert validate_breakpoints([3.0, 6.0], 6).ends == (3, 6)
    assert validate_breakpoints([np.uint8(3), np.float64(6.0)], 6).ends == (3, 6)
    assert validate_breakpoints((6,), 6).n_bkps == 0
    # n_samples follows the ends' rule and is stored as an int
    for n_samples in (6.0, np.float64(6.0), np.int64(6)):
        stored = validate_breakpoints([3, 6], n_samples).n_samples
        assert type(stored) is int and stored == 6


def test_validate_breakpoints_rejections():
    with pytest.raises(OutOfRangeError):
        validate_breakpoints([2.5, 6], 6)
    with pytest.raises(OutOfRangeError):
        validate_breakpoints([0, 6], 6)
    with pytest.raises(OutOfRangeError):
        validate_breakpoints([-1, 6], 6)
    with pytest.raises(OutOfRangeError):
        validate_breakpoints([7], 6)
    with pytest.raises(DuplicateError):
        validate_breakpoints([3, 3, 6], 6)
    with pytest.raises(NotSortedError):
        validate_breakpoints([4, 2, 6], 6)
    with pytest.raises(MissingTerminalError):
        validate_breakpoints([], 6)
    for n_samples in (0, -3):
        with pytest.raises(EmptySignalError, match=f"n_samples must be >= 1, got {n_samples}"):
            validate_breakpoints([1], n_samples)
    for n_samples in (None, "5", True, np.True_, 5.5, np.nan, np.inf, -np.inf):
        with pytest.raises(BadParamError, match="n_samples"):
            validate_breakpoints([5], n_samples)
    with pytest.raises(MissingTerminalError):
        validate_breakpoints([3, 5], 6)


@pytest.mark.parametrize(
    "end",
    [True, np.True_, None, np.nan, np.inf, -np.inf, np.float64("nan"), "three", [3], {}],
    ids=repr,
)
def test_validate_breakpoints_refuses_what_is_not_an_integral_number(end):
    """bool is not read as 0 or 1, and None, NaN, +-inf and non-numbers raise
    OutOfRangeError rather than escaping as TypeError or ValueError."""
    with pytest.raises(OutOfRangeError):
        validate_breakpoints([end, 6], 6)


def test_breakpoints_helpers():
    bkps = validate_breakpoints([2, 4, 8], 8)
    assert bkps.min_segment_length() == 2
    assert bkps.complies(min_size=2, jump=2)
    assert not bkps.complies(min_size=3, jump=1)
    assert not bkps.complies(min_size=1, jump=3)


def test_sum_of_costs_matches_manual_total():
    rng = np.random.default_rng(0)
    signal = validate_signal(rng.normal(size=(40, 2)))
    fitted = fit(CostSpec(family="l2"), signal)
    bkps = validate_breakpoints([10, 25, 40], 40)
    total = sum_of_costs(fitted, bkps)
    manual = fitted.cost(0, 10) + fitted.cost(10, 25)
    manual = manual + fitted.cost(25, 40)
    assert total == manual


def test_sum_of_costs_checks_length():
    signal = validate_signal(np.zeros(10))
    fitted = fit(CostSpec(family="l2"), signal)
    other = validate_breakpoints([5, 12], 12)
    with pytest.raises(MismatchedLengthError):
        sum_of_costs(fitted, other)


def test_detection_result_is_frozen():
    bkps = validate_breakpoints([5], 5)
    result = DetectionResult(bkps=bkps, contrast=1.5)
    assert result.n_cost_evals == 0
    assert result.n_pruned == 0
    with pytest.raises(AttributeError):
        result.contrast = 2.0
