"""Segment cost families with precomputed summaries.

Six families are available, selected by CostSpec.family:

- "l2": squared deviation from the segment mean (mean shifts)
- "normal": (b - a) * log det of the biased segment covariance plus a ridge
  on each variance (mean and scale shifts)
- "linear": residual sum of squares of the first column regressed on the
  remaining columns plus an intercept, with a ridge per sample on the slopes
  (shifts in a linear relation)
- "ar": per-dimension autoregression on `order` lags plus an intercept, using
  only lags inside the segment, with the same ridge on the lag coefficients
  (shifts in autoregressive coefficients)
- "kernel": squared distance to the segment mean in the feature space of a
  linear or Gaussian kernel
- "mahalanobis": squared Mahalanobis deviation from the segment mean, either
  with an explicit PSD metric or one derived from the whole signal

Every ridge follows one rule, _ridge: a base per family (1e-6 for normal and
mahalanobis, 1e-8 for linear and ar) plus 2^-48 times the magnitude its
rounding is relative to, so constant or collinear columns stay finite.

fit() binds a spec to one signal and lays out its summaries, so that every
cost(start, end) is one prefix difference plus at most one LAPACK call.  The
six families use four layouts:

- l2, mahalanobis and the linear kernel: one class, PrefixCost, keeps prefix
  sums of the centred rows, column by column, and of their squared norms,
  read through zero-copy float memoryviews: one evaluation is O(d) plain
  float arithmetic with no numpy call.  The rows are the signal, or for
  mahalanobis the signal mapped by the metric's factor;
- normal: prefix sums of the outer products of [x, 1], with the ridge folded
  into the x diagonal, and one slogdet;
- linear and ar: one class, RegressionCost, keeps prefix sums of the outer
  products of the centred [x, 1, y] per group of rows, with the ridge
  folded into the x diagonal, then one solve and one np.vecdot stacked over
  the groups: linear has one group, x being columns 1..d-1 and y column 0;
  ar has one per dimension, x being its lags;
- rbf kernel: the integral image of the upper triangle of the Gram matrix,
  built band by band, so a query reads two corners: O(1) instead of
  O(end - start).  Each row band is stored as one contiguous rectangle
  from its first row's diagonal column rightwards, so the image holds about
  half of n x n entries and has no page for the lower triangle.  Whole
  bands are split into pieces of about equal size, at most 16 MiB each, and
  a per-row piece and base offset locate an entry: glibc serves blocks that
  small from its heap once its mmap threshold has risen, so a later fit
  reuses an earlier fit's freed pieces instead of mapping a new image
  beside them.

Every family is superadditive: splitting a segment never raises its cost
(up to rounding; test_costs_are_superadditive in tests/test_costs.py checks
it on plain, near-constant, badly scaled, offset and collinear signals), so
pelt always prunes.  Every layout but normal's is also monotone
(FittedCost.monotone), so pelt may take a candidate's last cost as a lower
bound: its cost is the minimum, over a mean or regression coefficients, of
a sum of non-negative terms per row, so a segment grown at its end never
costs less.  normal's cost is a log-determinant, which falls freely.

The LAPACK calls of normal, linear and ar go straight to the gufuncs behind
np.linalg.slogdet and np.linalg.solve (numpy.linalg._umath_linalg), with the
same inner loops.  Those wrappers convert, check and promote their operands
and set an errstate on every call, which costs more than LAPACK does on
these small systems; the summaries are float64 and shaped once, at fit, so
none of that work is needed per query.  The wrapper's one contract kept by
hand is that a singular system raises np.linalg.LinAlgError: the gufunc
solves it to NaN instead (with numpy's invalid-value RuntimeWarning), and
linear and ar raise on a NaN cost.  fit refuses summaries that overflow
float64 with NonFiniteValueError, so a NaN cannot come from anywhere else.

Every cost() call that returns advances eval_counter by one, after the
evaluation, so a call that raises is not counted; the count is an
itertools.count, exact under concurrent callers without a lock.
"""

from __future__ import annotations

import itertools
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import slogdet as _slogdet
from numpy.linalg._umath_linalg import solve1 as _solve1

from .core import Signal, _checked_int, _checked_real, _integral, validate_signal
from .exceptions import (
    BadParamError,
    DegenerateSignalWarning,
    IndexOutOfRangeError,
    MemoryBudgetError,
    NonFiniteValueError,
    SegmentTooShortError,
    SignalTooShortError,
)

MEDIAN_HEURISTIC = "median-heuristic"
AUTO_METRIC = "auto"

_FAMILIES = ("l2", "normal", "linear", "ar", "kernel", "mahalanobis")
_KERNELS = ("linear", "rbf")
# the largest side of a dense float64 matrix (3.2 GB); see _check_dense
_DENSE_SIDE_LIMIT = 20_000
_MEDIAN_PAIR_CAP = 10_000
_MEDIAN_SEED = 12345
# float64 entries in one row band of the rbf integral image or of the copy
# a dynp layer permutes (512 kB)
_BAND_ENTRIES = 1 << 16
# float64 entries in one piece of the rbf integral image (16 MiB), half of
# glibc's 32 MiB ceiling on its mmap threshold; see KernelCost
_PIECE_ENTRIES = 1 << 21


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Chooses a cost family and its parameters.

    order applies to "ar" (number of lags, >= 1).  kernel ("linear" or "rbf")
    and gamma (finite bandwidth > 0 or "median-heuristic") apply to "kernel".
    metric applies to "mahalanobis": a symmetric PSD matrix or "auto" to
    derive one from the whole signal.  Every family is superadditive, which
    pelt's pruning rests on (see the module docstring).
    """

    family: str = "l2"
    order: int = 4
    kernel: str = "rbf"
    gamma: float | str = MEDIAN_HEURISTIC
    metric: object = AUTO_METRIC

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise BadParamError(f"unknown cost family {self.family!r}")
        object.__setattr__(self, "order", _checked_int("order", self.order, 1))
        if self.kernel not in _KERNELS:
            raise BadParamError(f"unknown kernel {self.kernel!r}")
        if isinstance(self.gamma, str):
            if self.gamma != MEDIAN_HEURISTIC:
                raise BadParamError(f"gamma must be a positive number or {MEDIAN_HEURISTIC!r}")
        else:
            object.__setattr__(self, "gamma", _checked_real("gamma", self.gamma, positive=True))
        if isinstance(self.metric, str):
            if self.metric != AUTO_METRIC:
                raise BadParamError(f"metric must be a PSD matrix or {AUTO_METRIC!r}")
        else:
            try:
                metric = np.asarray(self.metric)
                if metric.dtype.kind == "c":
                    raise TypeError
                metric = metric.astype(np.float64)
            except (TypeError, ValueError, OverflowError):
                raise BadParamError(f"metric must be a PSD matrix or {AUTO_METRIC!r}") from None
            if metric.ndim != 2 or metric.shape[0] != metric.shape[1]:
                raise BadParamError(f"metric must be square, got shape {metric.shape}")
            if not np.isfinite(metric).all():
                raise BadParamError("metric must be finite")
            scale = max(1.0, float(np.abs(metric).max()))
            if not np.allclose(metric, metric.T, atol=1e-8 * scale):
                raise BadParamError("metric must be symmetric")
            eigvals = np.linalg.eigvalsh((metric + metric.T) / 2.0)
            if eigvals.min() < -1e-8 * scale:
                raise BadParamError("metric must be positive semidefinite")
            metric.setflags(write=False)
            object.__setattr__(self, "metric", metric)


def _check_dense(side: int, what: str, entries=lambda side: side * side) -> None:
    """The one guard on the dense float64 structures a side indexes (the rbf
    integral image and dynp's cost matrix): MemoryBudgetError, before anything
    is allocated, for a side over 20,000.  entries(side) is the number of
    float64 entries the structure allocates, side x side by default, so the
    message names the bytes it would really take."""
    if side > _DENSE_SIDE_LIMIT:
        raise MemoryBudgetError(
            f"{what} needs {entries(side):,} float64 entries for a side of {side}, "
            f"{8 * entries(side):,} bytes; the limit is {_DENSE_SIDE_LIMIT} per side, "
            f"{8 * entries(_DENSE_SIDE_LIMIT):,} bytes"
        )


def _band_rows(n: int) -> int:
    """Rows per band of an n-column pass (the rbf integral image of n
    samples, a dynp layer over n positions): about _BAND_ENTRIES entries
    each, and at most n, so the step x step mask of the image's second sweep
    stays band-sized."""
    return min(n, max(1, _BAND_ENTRIES // n))


def _image_entries(n: int) -> int:
    """float64 entries of the packed rbf integral image of n samples: band b
    of the full ones holds step rows of n - b * step entries, and the last
    n % step rows form one shorter band."""
    step = _band_rows(n)
    full, rest = divmod(n, step)
    return step * (full * n - step * full * (full - 1) // 2) + rest * (n - full * step)


def median_heuristic(signal) -> float:
    """Bandwidth 1 / median of pairwise squared distances.

    With more than 10,000 pairs the median is taken over 10,000 random pairs
    drawn from a fixed-seed PCG64 generator, so the value is deterministic for
    a given signal.  When every sampled distance is zero the bandwidth falls
    back to 1.0 and a DegenerateSignalWarning is emitted.
    """
    sig = validate_signal(signal)
    n = sig.n_samples
    if n < 2:
        raise SignalTooShortError("median heuristic needs at least 2 samples")
    data = sig.data
    n_pairs = n * (n - 1) // 2
    if n_pairs <= _MEDIAN_PAIR_CAP:
        diffs = data[:, None, :] - data[None, :, :]
        sq = np.einsum("ijd,ijd->ij", diffs, diffs)
        iu = np.triu_indices(n, k=1)
        sq = sq[iu]
    else:
        rng = np.random.default_rng(_MEDIAN_SEED)
        left = rng.integers(0, n, size=_MEDIAN_PAIR_CAP)
        right = rng.integers(0, n - 1, size=_MEDIAN_PAIR_CAP)
        right = np.where(right >= left, right + 1, right)
        delta = data[left] - data[right]
        sq = np.einsum("pd,pd->p", delta, delta)
    med = _median(sq)
    if med <= 0.0:
        return _fallback_gamma("all sampled pairwise distances are zero")
    return 1.0 / med


def _fallback_gamma(reason: str) -> float:
    """The median heuristic's bandwidth when there is no distance to take the
    median of: 1.0, with a DegenerateSignalWarning naming the reason."""
    warnings.warn(
        f"{reason}; falling back to gamma=1.0", DegenerateSignalWarning, stacklevel=3
    )
    return 1.0


def _median(values: np.ndarray) -> float:
    """np.median of a 1D array, bit for bit (the mean of the two middle values
    for an even count), from np.partition: np.median imports numpy.ma on first
    use, about 2 MB of resident memory."""
    half = values.size // 2
    if values.size % 2:
        return float(np.partition(values, half)[half])
    low, high = np.partition(values, (half - 1, half))[half - 1 : half + 1]
    return float((low + high) / 2.0)


def _centred(data: np.ndarray) -> np.ndarray:
    """The signal minus its column (lower) medians, for shift-invariant costs.

    Summaries of an offset signal (1e6 + noise, say) would otherwise cancel
    away the variation they are taken for.  A median sample rather than the
    mean keeps integer data integral, so their sums stay exact.  np.partition
    rather than np.median, which imports numpy.ma on first use.
    """
    middle = (len(data) - 1) // 2
    return data - np.partition(data, middle, axis=0)[middle]


def _ridge(base: float, magnitude):
    """The one ridge rule of normal, linear, ar and mahalanobis: the family's
    base plus 2^-48 times the magnitude that the rounding of what the ridge
    is added to is relative to.  That is a ridged column's sum of squares
    over the whole signal (_prefix_outer), or the largest eigenvalue of the
    covariance mahalanobis inverts.  Rounding is 2^-53 of the magnitude, so
    the ridge outweighs it 32 times at any scale, where the base alone is
    lost past about 1e16 times itself.  On unit-scale signals the second term
    is 3.6e-15 per sample: under 4% of linear's base up to 100,000 samples.
    """
    return base + 2.0**-48 * magnitude


def _prefix_outer(rows: np.ndarray, base: float, ridged: int) -> np.ndarray:
    """Prefix sums of the outer products of the last axis of `rows`, with a
    per-row ridge folded into the first `ridged` diagonal entries.

    out[t] sums rows[:t] outer rows[:t] over the first axis, plus t * r_j on
    diagonal entry j < ridged, r_j = _ridge(base, the sum of rows[..., j]^2)
    being one value per entry of rows[0, ..., :ridged].  A prefix difference
    over m rows then carries m * r_j there: a ridge per sample, which keeps
    the families' costs sums of per-row terms and so exactly superadditive.
    The products are written into the output and accumulated in place.
    """
    out = np.zeros((rows.shape[0] + 1,) + rows.shape[1:] + rows.shape[-1:])
    np.einsum("...i,...j->...ij", rows, rows, out=out[1:])
    np.cumsum(out[1:], axis=0, out=out[1:])
    columns = rows[..., :ridged]
    counts = np.arange(len(out), dtype=np.float64).reshape((-1,) + (1,) * (out.ndim - 2))
    diag = np.arange(ridged)
    out[..., diag, diag] += _ridge(base, np.einsum("t...,t...->...", columns, columns)) * counts
    _check_totals(out[-1])
    return out


def _check_totals(*totals) -> None:
    """NonFiniteValueError unless the last rows of a fit's prefix summaries
    are finite.  A running sum that overflows stays inf or NaN, so the whole
    summary is finite when its last row is.  fit names the family."""
    if not all(np.isfinite(total).all() for total in totals):
        raise NonFiniteValueError("its summaries overflow float64; rescale the signal")


class FittedCost:
    """A cost family bound to one signal, answering segment queries.

    Subclasses precompute their summaries in __init__ and supply the method
    _segment_cost.  cost() checks bounds and the family's minimum segment
    length, delegates to _segment_cost, then counts the evaluation; no
    subclass overrides it, so the count and a wrapper see every evaluation.
    The instance also carries a private cache slot where dynp stashes its
    cost matrix and value table keyed by their grid parameters.
    """

    family: str = ""
    # c(s, t) >= c(s, u) for every u <= t: see the module docstring
    monotone: bool = True

    def __init__(self, spec: CostSpec, signal: Signal, min_seg_len: int):
        self.spec = spec
        self.signal = signal
        self.n_samples = signal.n_samples
        self.min_seg_len = int(min_seg_len)
        self._evals = itertools.count()
        self._state_lock = threading.Lock()
        self._search_state: dict = {}

    @property
    def eval_counter(self) -> int:
        """The evaluations counted so far, read from repr "count(N)"."""
        return int(repr(self._evals)[6:-1])

    def cost(self, start: int, end: int) -> float:
        """Cost of the half-open segment [start, end).  Bounds that are not
        integral by validate_breakpoints's rule raise IndexOutOfRangeError."""
        if type(start) is not int or type(end) is not int:
            bounds = (_integral(start), _integral(end))
            if None in bounds:
                raise IndexOutOfRangeError(f"segment bounds {start!r}, {end!r} must be integers")
            start, end = bounds
        n = self.n_samples
        # min_seg_len >= 1, so passing this one test implies start < end
        if start < 0 or end > n or end - start < self.min_seg_len:
            if not 0 <= start < end <= n:
                raise IndexOutOfRangeError(
                    f"segment [{start}, {end}) outside a signal of length {n}"
                )
            raise SegmentTooShortError(
                f"segment [{start}, {end}) shorter than min_seg_len={self.min_seg_len}"
            )
        value = float(self._segment_cost(start, end))
        next(self._evals)
        return value

    def _segment_cost(self, start: int, end: int) -> float:
        raise NotImplementedError


class PrefixCost(FittedCost):
    """Within-segment sum of squared deviations of the rows fit hands it:
    the signal for l2 and the linear kernel (whose Gram matrix is x x'), the
    signal mapped by the metric's factor for mahalanobis (_mahalanobis_rows).
    family is the spec's.  The sums are taken of the centred rows (the cost
    is shift-invariant) and kept as one (d, n + 1) array, whose transpose is
    sums; _segment_cost reads each column and sq through zero-copy float
    memoryviews: d subtractions and products in plain Python, no numpy call.
    """

    gamma = None  # the linear kernel has no bandwidth

    def __init__(self, spec, signal, rows: np.ndarray):
        super().__init__(spec, signal, min_seg_len=1)
        self.family = spec.family
        n, d = rows.shape
        centred = _centred(rows)
        columns = np.zeros((d, n + 1))
        np.cumsum(centred.T, axis=1, out=columns[:, 1:])
        self.sums = columns.T
        self.sq = np.zeros(n + 1)
        np.cumsum(np.einsum("td,td->t", centred, centred), out=self.sq[1:])
        _check_totals(self.sums[-1], self.sq[-1])
        self._columns = [memoryview(column).cast("B").cast("d") for column in columns]
        self._flat_sq = memoryview(self.sq).cast("B").cast("d")

    def _segment_cost(self, start, end):
        sq_dev = 0.0
        for column in self._columns:
            diff = column[end] - column[start]
            sq_dev += diff * diff
        value = (self._flat_sq[end] - self._flat_sq[start]) - sq_dev / (end - start)
        return value if value > 0.0 else 0.0


class NormalCost(FittedCost):
    """Gaussian likelihood cost: length times log det of the segment covariance.

    The covariance is the biased estimate plus a ridge r_j on each variance,
    _ridge(1e-6, the sum of squares of column j, less its median, over the
    whole signal), which keeps the determinant positive, so short, constant
    or collinear segments stay finite at any scale.  Note the value can be
    negative when the covariance determinant is below one.

    The fit keeps prefix sums of the outer products of [x, 1], x centred
    (the covariance is shift-invariant), plus t * r_j on the x diagonal at
    row t.  For a segment of length m the prefix difference is then
    B + m * diag(r_1, ..., r_d, 0), where B holds the scatter, the sums and
    m, and its determinant is m^(d+1) det(cov + diag(r)): one slogdet per
    query gives the cost, from the gufunc itself (see the module docstring).
    """

    family = "normal"
    # a log-determinant falls freely as the segment grows
    monotone = False

    def __init__(self, spec, signal):
        super().__init__(spec, signal, min_seg_len=signal.n_dims + 1)
        data = signal.data
        n, d = data.shape
        aug = np.empty((n, d + 1))
        aug[:, :d] = _centred(data)
        aug[:, d] = 1.0
        self._prod = _prefix_outer(aug, 1e-6, d)
        self._n_aug = d + 1

    def _segment_cost(self, start, end):
        length = end - start
        logdet = _slogdet(self._prod[end] - self._prod[start])[1]
        return length * (logdet - self._n_aug * math.log(length))


class RegressionCost(FittedCost):
    """Penalised RSS of a response regressed on k - 1 regressors plus an
    intercept, summed over g groups of rows: "linear" regresses column 0 on
    the remaining columns (g = 1, k = d), "ar" each dimension on its own
    `order` lags (g = d, k = order + 1).

    The cost of a segment is, per group, the minimum over coefficients b of
    |y - X b|^2 + m * sum_j r_j b_j^2 over the regressors j, never the
    intercept, for the m rows of the segment whose regressors lie inside
    it: all end - start rows for linear, end - start - order for ar.  The
    ridge per sample r_j is _ridge(1e-8, the sum of squares of regressor j,
    less the median of the signal column it comes from, over the whole
    signal), so segments with a constant or collinear regressor stay
    solvable at any scale.  The intercept absorbs any shift of the columns,
    so the cost is shift-invariant and the fit summarises the centred
    signal.  Each row adds its own squared residual plus the same ridge
    term, so the cost is exactly superadditive.  min_seg_len is k + 1:
    d + 1 for linear, and order + 2 (two residual rows) for ar.

    rows, from _linear_rows or _ar_rows, holds one (g, k + 1) array
    [regressors, 1, y] per row, and the row of response t is at t - lag
    (lag is 0 for linear, order for ar).  The fit keeps prefix sums of their
    outer products with the ridge folded into the regressor diagonal, so a
    prefix difference is each group's penalised normal equations: a query
    is one solve stacked over the groups and one np.vecdot, yy - xy . coef
    per group.  The solve is the gufunc itself (see the module docstring);
    a singular system solves to NaN, and the query raises
    np.linalg.LinAlgError for it, as np.linalg.solve does.
    """

    def __init__(self, spec, signal, rows: np.ndarray, lag: int):
        k = rows.shape[-1] - 1
        super().__init__(spec, signal, min_seg_len=k + 1)
        self.family = spec.family
        self._prod = _prefix_outer(rows, 1e-8, k - 1)
        self._k = k
        self._lag = lag

    def _segment_cost(self, start, end):
        k = self._k
        block = self._prod[end - self._lag] - self._prod[start]
        xy = block[:, :k, k]
        rss = block[:, k, k] - np.vecdot(xy, _solve1(block[:, :k, :k], xy))
        total = 0.0
        for value in rss.tolist():
            if value > 0.0:
                total += value
            elif value != value:
                raise np.linalg.LinAlgError("Singular matrix")
        return total


class KernelCost(FittedCost):
    """Feature-space spread around the segment mean, for the rbf kernel (the
    linear kernel's is the l2 cost, which PrefixCost answers).

    c(a, b) = sum of diagonal entries over [a, b) minus the mean of the
    (b - a)^2 Gram block.  The fit builds an integral image of the upper
    triangle of the Gram matrix K: entry (i, j), i <= j, holds the sum of
    K(a, b) over a <= i and a < b <= j.  The pairs a < b inside [s, e) then sum to
    image[e-1, e-1] - image[s-1, e-1], the block sum is the diagonal sum plus
    twice that, and a query reads two corners through zero-copy float
    memoryviews: O(1).  Adding f(a) + f(b) to every entry leaves the cost
    unchanged, so K is double-centred first, which keeps the corner values
    small.

    The image is packed by row bands of a few hundred kB: band [lo, hi) is
    a contiguous (hi - lo) x (n - lo) rectangle holding columns lo..n-1 of
    its rows.  The columns left of a band, most of the lower triangle, get
    no storage, so the image takes about n^2 / 2 + n * step / 2 entries
    (step rows per band) instead of n^2, and every page of it is written:
    an n x n buffer with only its upper triangle written still becomes
    resident almost whole once numpy advises huge pages.

    The bands are split, whole and in order, into pieces of at most
    _PIECE_ENTRIES entries (16 MiB): as few pieces as keep one equal share
    of the entries plus one band under that cap, piece k taking the bands
    that start in the k-th share, each band where the one before it in its
    piece ends.  Entry (i, j), j >= the first row of i's band, sits at
    pieces[i][base[i] + j]: pieces holds, per row, a memoryview of the piece
    the row lies in, and base the row's offset inside it.  The reason is
    glibc's malloc: a block above its dynamic mmap threshold gets a fresh
    mapping, and freeing one raises that threshold up to a 32 MiB ceiling,
    after which smaller blocks come from the heap and stay resident once
    freed, until the free top of the heap passes twice the threshold.  An
    image of one block left the smaller images of earlier fits on the heap
    and, above 32 MiB, was mapped on top of them.  Pieces of at most half
    that ceiling are served from the heap and reuse the freed ones, and
    equal shares keep them near the image's size divided by their count
    (about 11 MiB at 2,931 samples), so the threshold stays low enough that
    freeing a long image returns the heap's top to the system.

    The bands are swept twice: the first computes the kernel and its row
    sums (the band's own row sums plus, by symmetry, the column sums of the
    bands above it); the second centres each band, takes its row prefix sums
    and adds each row onto the one above, which for a band's first row is
    the last row of the band above, read from column lo on, in its own piece
    or the one before.  rbf signals over 20,000 samples fail the
    dense-matrix guard (_check_dense) up front.
    """

    family = "kernel"

    def __init__(self, spec, signal):
        super().__init__(spec, signal, min_seg_len=1)
        n = signal.n_samples
        _check_dense(n, "the rbf kernel's integral image", _image_entries)
        if spec.gamma == MEDIAN_HEURISTIC:
            # a single sample has no pair, and every cost is 0 whatever gamma is
            self.gamma = (
                median_heuristic(signal) if n > 1 else _fallback_gamma("one sample has no pairs")
            )
        else:
            self.gamma = float(spec.gamma)
        self._row_pieces, self._base, self._diag_prefix = self._upper_image(
            _centred(signal.data)
        )
        self._flat_diag = memoryview(self._diag_prefix).cast("B").cast("d")

    def _upper_image(self, data: np.ndarray):
        """The packed integral image of the double-centred rbf Gram matrix's
        upper triangle, as a memoryview of each row's piece and each row's
        base offset in it, and the prefix sums of its diagonal."""
        n, d = data.shape
        gamma = self.gamma
        sq = np.einsum("td,td->t", data, data)
        # left[a] . right[:, b] = -gamma * |x_a - x_b|^2 in one product
        left = np.empty((n, d + 2))
        left[:, :d] = data
        left[:, d] = sq
        left[:, d + 1] = 1.0
        right = np.empty((d + 2, n))
        right[:d] = (2.0 * gamma) * data.T
        right[d] = -gamma
        right[d + 1] = -gamma * sq
        step = _band_rows(n)
        # piece k takes the bands that start in its k-th share of the entries,
        # so it holds at most that share plus one band: _PIECE_ENTRIES
        entries = _image_entries(n)
        count = -(-entries // (_PIECE_ENTRIES - _BAND_ENTRIES))
        groups = [[] for _ in range(count)]
        total = 0
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            size = (hi - lo) * (n - lo)
            groups[total * count // entries].append((lo, hi, size))
            total += size
        pieces = [None] * n
        base = [0] * n
        bands = []
        for group in groups:
            piece = np.empty(sum(size for _, _, size in group))
            view = memoryview(piece)
            offset = 0
            for lo, hi, size in group:
                bands.append((lo, hi, piece[offset : offset + size].reshape(hi - lo, n - lo)))
                pieces[lo:hi] = [view] * (hi - lo)
                base[lo:hi] = range(offset - lo, offset - lo + size, n - lo)
                offset += size
        ones = np.ones(n)
        sums = np.zeros(n)
        diag = np.empty(n)
        # first sweep: the kernel values and the full row sums
        for lo, hi, band in bands:
            np.matmul(left[lo:hi], right[:, lo:], out=band)
            # the product rounds to about gamma |x_a|^2 2^-52 at a = b, not 0
            np.fill_diagonal(band[:, : hi - lo], 0.0)
            np.minimum(band, 0.0, out=band)
            np.exp(band, out=band)
            diag[lo:hi] = band[:, : hi - lo].diagonal()
            sums[lo:hi] += band @ ones[lo:]
            sums[hi:] += ones[lo:hi] @ band[:, hi - lo :]
        means = sums / n
        grand = float(means.mean())
        shift = means - grand
        diag_prefix = np.zeros(n + 1)
        np.cumsum(diag - 2.0 * means + grand, out=diag_prefix[1:])
        # second sweep: centre, clear the diagonal and below (only pairs a < b
        # are summed), prefix sums along each row, then down the rows
        lower = np.tri(step, dtype=bool)
        above = None
        for lo, hi, band in bands:
            band -= shift[lo:hi, None]
            band -= means[lo:]
            band[:, : hi - lo][lower[: hi - lo, : hi - lo]] = 0.0
            np.cumsum(band, axis=1, out=band)
            if above is not None:
                np.add(band[0], above[-1, lo - n :], out=band[0])
            for r in range(1, hi - lo):
                np.add(band[r, r:], band[r - 1, r:], out=band[r, r:])
            above = band
        # a NaN kernel value reaches the grand mean, which the centring takes
        # from every entry, so the last corner shows it
        _check_totals(pieces[-1][base[-1] + n - 1], diag_prefix[-1])
        return pieces, base, diag_prefix

    def _segment_cost(self, start, end):
        pieces = self._row_pieces
        base = self._base
        last = end - 1
        pairs = pieces[last][base[last] + last]
        if start:
            pairs -= pieces[start - 1][base[start - 1] + last]
        diag = self._flat_diag[end] - self._flat_diag[start]
        value = diag - (diag + 2.0 * pairs) / (end - start)
        return value if value > 0.0 else 0.0


def _mahalanobis_rows(spec: CostSpec, signal: Signal) -> np.ndarray:
    """The signal mapped by the factor L of the metric M = L L', whose l2
    cost is the Mahalanobis cost (y - mean)' M (y - mean).

    One eigen decomposition gives L.  An explicit metric V diag(w) V' gives
    L = V diag(w)^1/2.  With metric="auto", M inverts the whole-signal biased
    covariance V diag(w) V' plus a ridge r = _ridge(1e-6, max w), so
    L = V diag(w + r)^-1/2 (w clipped at 0): the ridge stays above the
    decomposition's rounding, which is relative to max w, at any scale.
    """
    d = signal.n_dims
    if isinstance(spec.metric, str):
        centered = signal.data - signal.data.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / signal.n_samples)
        eigvals = np.clip(eigvals, 0.0, None)
        scales = (eigvals + _ridge(1e-6, eigvals[-1])) ** -0.5
    else:
        metric = np.asarray(spec.metric, dtype=np.float64)
        if metric.shape != (d, d):
            raise BadParamError(
                f"metric shape {metric.shape} does not match signal dimension {d}"
            )
        eigvals, eigvecs = np.linalg.eigh((metric + metric.T) / 2.0)
        scales = np.sqrt(np.clip(eigvals, 0.0, None))
    return signal.data @ eigvecs * scales


def _linear_rows(signal: Signal) -> np.ndarray:
    """linear's one group of rows [x, 1, y]: the centred columns 1..d-1, an
    intercept and the centred column 0, shaped (n, 1, d + 1)."""
    n, d = signal.data.shape
    centred = _centred(signal.data)
    rows = np.empty((n, 1, d + 1))
    rows[:, 0, : d - 1] = centred[:, 1:]
    rows[:, 0, d - 1] = 1.0
    rows[:, 0, d] = centred[:, 0]
    return rows


def _ar_rows(spec: CostSpec, signal: Signal) -> np.ndarray:
    """ar's rows [lag_1, ..., lag_order, 1, y] of each centred dimension, for
    the responses order..n-1, shaped (n - order, d, order + 2).  An order at
    least the signal's length leaves no response: BadParamError."""
    order = spec.order
    if order >= signal.n_samples:
        raise BadParamError(
            f"ar order {order} must be smaller than the signal length {signal.n_samples}"
        )
    data = _centred(signal.data)
    n, d = data.shape
    rows = np.empty((n - order, d, order + 2))
    for lag in range(1, order + 1):
        rows[:, :, lag - 1] = data[order - lag : n - lag, :]
    rows[:, :, order] = 1.0
    rows[:, :, order + 1] = data[order:, :]
    return rows


def fit(spec: CostSpec, signal) -> FittedCost:
    """Bind a cost spec to a signal and precompute its summaries.

    Raises BadParamError for malformed parameters (e.g. an AR order at least
    as large as the signal), SignalTooShortError when even one segment of the
    family's minimum length does not fit, and MemoryBudgetError from the
    dense-matrix guard (_check_dense) for rbf signals over 20,000 samples.
    Raises NonFiniteValueError, naming the family (a kernel fit by its
    kernel: "rbf kernel cost: ..."), when the summaries overflow float64
    (squares of values beyond about 1e154, say): the queries would otherwise
    answer 0.0 or NaN.  The summaries are built under one np.errstate, so
    such an overflow emits no numpy RuntimeWarning.
    """
    if not isinstance(spec, CostSpec):
        raise BadParamError(f"expected a CostSpec, got {type(spec).__name__}")
    sig = validate_signal(signal)
    try:
        with np.errstate(all="ignore"):
            if spec.family == "mahalanobis":
                fitted = PrefixCost(spec, sig, _mahalanobis_rows(spec, sig))
            elif spec.family == "l2" or (spec.family, spec.kernel) == ("kernel", "linear"):
                fitted = PrefixCost(spec, sig, sig.data)
            elif spec.family == "linear":
                fitted = RegressionCost(spec, sig, _linear_rows(sig), lag=0)
            elif spec.family == "ar":
                fitted = RegressionCost(spec, sig, _ar_rows(spec, sig), lag=spec.order)
            elif spec.family == "normal":
                fitted = NormalCost(spec, sig)
            else:
                fitted = KernelCost(spec, sig)
    except NonFiniteValueError as exc:
        name = f"{spec.kernel} kernel" if spec.family == "kernel" else spec.family
        raise NonFiniteValueError(f"{name} cost: {exc}") from None
    if sig.n_samples < fitted.min_seg_len:
        raise SignalTooShortError(
            f"signal length {sig.n_samples} below the family minimum {fitted.min_seg_len}"
        )
    return fitted
