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
cost(start, end) is one prefix difference plus at most one LAPACK call:

- l2, mahalanobis and the linear kernel: prefix sums of the centred signal
  and of its squared norms, read through zero-copy float memoryviews, so one
  evaluation is O(d) plain float arithmetic with no numpy call;
- normal: prefix sums of the outer products of [x, 1], with the ridge folded
  into the x diagonal, and one slogdet;
- linear: prefix sums of the outer products of the centred [x, 1, y], with
  the ridge folded into the slope diagonal, then one solve and one product;
- ar: per-dimension prefix sums of the outer products of the centred
  [lags, 1, y], with the ridge folded into the lag diagonal, then one
  batched solve over the dimensions and one batched product;
- rbf kernel: the integral image of the upper triangle of the Gram matrix,
  built band by band, so a query reads two corners: O(1) instead of
  O(end - start).  Each row band is stored as one contiguous rectangle
  from its first row's diagonal column rightwards, and a per-row base
  offset locates an entry, so the image holds about half of n x n
  entries and has no page for the lower triangle.

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

Every completed cost() call bumps eval_counter by exactly one; increments are
lock-protected so concurrent callers read exact totals.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import slogdet as _slogdet
from numpy.linalg._umath_linalg import solve as _solve
from numpy.linalg._umath_linalg import solve1 as _solve1

from .core import Signal, _checked_int, _checked_real, validate_signal
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
# float64 entries in one row band of the rbf integral image (512 kB)
_BAND_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Chooses a cost family and its parameters.

    order applies to "ar" (number of lags, >= 1).  kernel ("linear" or "rbf")
    and gamma (finite bandwidth > 0 or "median-heuristic") apply to "kernel".
    metric applies to "mahalanobis": a symmetric PSD matrix or "auto" to
    derive one from the whole signal.  superadditive declares that splitting a
    segment never increases total cost; all shipped families satisfy it (up to
    rounding, checked on plain, near-constant, badly scaled and offset signals
    by test_costs_are_superadditive in tests/test_costs.py), and setting it
    False disables pruning in the penalized search.  It must be a Python or
    numpy bool, stored as bool; anything else raises BadParamError.
    """

    family: str = "l2"
    order: int = 4
    kernel: str = "rbf"
    gamma: float | str = MEDIAN_HEURISTIC
    metric: object = AUTO_METRIC
    superadditive: bool = True

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise BadParamError(f"unknown cost family {self.family!r}")
        object.__setattr__(self, "order", _checked_int("order", self.order, 1))
        if not isinstance(self.superadditive, (bool, np.bool_)):
            raise BadParamError(f"superadditive must be a bool, got {self.superadditive!r}")
        object.__setattr__(self, "superadditive", bool(self.superadditive))
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
            metric = np.asarray(self.metric, dtype=np.float64)
            if metric.ndim != 2 or metric.shape[0] != metric.shape[1]:
                raise BadParamError(f"metric must be square, got shape {metric.shape}")
            scale = max(1.0, float(np.abs(metric).max()))
            if not np.allclose(metric, metric.T, atol=1e-8 * scale):
                raise BadParamError("metric must be symmetric")
            eigvals = np.linalg.eigvalsh((metric + metric.T) / 2.0)
            if eigvals.min() < -1e-8 * scale:
                raise BadParamError("metric must be positive semidefinite")
            metric = metric.copy()
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
    """Rows per band of the rbf integral image of n samples: about
    _BAND_ENTRIES entries each, and at most n, so the step x step mask of the
    second sweep stays band-sized."""
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


class _PrefixL2:
    """Cumulative sums giving the within-segment sum of squared deviations.

    The sums are taken of the centred signal (the cost is shift-invariant).
    cost() reads sums (flat, at row * d + k) and sq through zero-copy float
    memoryviews: d subtractions and products in plain Python, no numpy call.
    """

    def __init__(self, data: np.ndarray):
        n, d = data.shape
        centred = _centred(data)
        self.sums = np.zeros((n + 1, d))
        np.cumsum(centred, axis=0, out=self.sums[1:])
        self.sq = np.zeros(n + 1)
        np.cumsum(np.einsum("td,td->t", centred, centred), out=self.sq[1:])
        _check_totals(self.sums[-1], self.sq[-1])
        self._d = d
        self._flat_sums = memoryview(self.sums).cast("B").cast("d")
        self._flat_sq = memoryview(self.sq).cast("B").cast("d")

    def cost(self, start: int, end: int) -> float:
        d = self._d
        sums = self._flat_sums
        lo = start * d
        hi = end * d
        sq_dev = 0.0
        for k in range(d):
            diff = sums[hi + k] - sums[lo + k]
            sq_dev += diff * diff
        value = (self._flat_sq[end] - self._flat_sq[start]) - sq_dev / (end - start)
        return value if value > 0.0 else 0.0


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

    Subclasses precompute their summaries in __init__ and supply
    _segment_cost, as a method or a bound callable.  cost() checks bounds and
    the family's minimum segment length, counts the evaluation, then delegates
    to _segment_cost; subclasses do not override it.
    The instance also carries a private cache slot where dynp stashes its
    cost matrix and value table keyed by their grid parameters.
    """

    family: str = ""

    def __init__(self, spec: CostSpec, signal: Signal, min_seg_len: int):
        self.spec = spec
        self.signal = signal
        self.min_seg_len = int(min_seg_len)
        self.eval_counter = 0
        self._counter_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._search_state: dict = {}

    @property
    def n_samples(self) -> int:
        return self.signal.n_samples

    def cost(self, start: int, end: int) -> float:
        """Cost of the half-open segment [start, end)."""
        start = int(start)
        end = int(end)
        n = self.signal.n_samples
        # min_seg_len >= 1, so passing this one test implies start < end
        if start < 0 or end > n or end - start < self.min_seg_len:
            if not 0 <= start < end <= n:
                raise IndexOutOfRangeError(
                    f"segment [{start}, {end}) outside a signal of length {n}"
                )
            raise SegmentTooShortError(
                f"segment [{start}, {end}) shorter than min_seg_len={self.min_seg_len}"
            )
        with self._counter_lock:
            self.eval_counter += 1
        return float(self._segment_cost(start, end))

    def _segment_cost(self, start: int, end: int) -> float:
        raise NotImplementedError


class L2Cost(FittedCost):
    family = "l2"

    def __init__(self, spec, signal):
        super().__init__(spec, signal, min_seg_len=1)
        self._prefix = _PrefixL2(signal.data)
        self._segment_cost = self._prefix.cost


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


class LinearCost(FittedCost):
    """Penalised RSS of column 0 regressed on the remaining columns plus an
    intercept.

    The cost of a segment of m rows is the minimum over coefficients b of
    |y - X b|^2 + m * sum_j r_j b_j^2 over the slopes j, never the
    intercept.  The ridge per sample r_j is _ridge(1e-8, the sum of squares
    of regressor j, less its median, over the whole signal), so segments
    with a constant or collinear regressor stay solvable at any scale.  The
    intercept absorbs any shift of the columns, so the cost is
    shift-invariant and the fit summarises the centred signal.  Each row
    adds its own squared residual plus the same ridge term, so the cost is
    exactly superadditive.

    The fit keeps prefix sums of the outer products of [x, 1, y] with the
    ridge folded into the slope diagonal, so a prefix difference is the
    penalised normal equations of the segment: a query is one solve and one
    product, yy - xy . coef.  The solve is the gufunc itself (see the module
    docstring); a singular system solves to NaN, and the query raises
    np.linalg.LinAlgError for it, as np.linalg.solve does.
    """

    family = "linear"

    def __init__(self, spec, signal):
        d = signal.n_dims
        super().__init__(spec, signal, min_seg_len=d + 1)
        n = signal.n_samples
        centred = _centred(signal.data)
        aug = np.empty((n, d + 1))
        aug[:, : d - 1] = centred[:, 1:]
        aug[:, d - 1] = 1.0
        aug[:, d] = centred[:, 0]
        self._prod = _prefix_outer(aug, 1e-8, d - 1)
        self._n_reg = d

    def _segment_cost(self, start, end):
        k = self._n_reg
        block = self._prod[end] - self._prod[start]
        xy = block[:k, k]
        rss = block[k, k] - xy.dot(_solve1(block[:k, :k], xy))
        if rss != rss:
            raise np.linalg.LinAlgError("Singular matrix")
        return rss if rss > 0.0 else 0.0


class ARCost(FittedCost):
    """Per-dimension autoregression cost, total penalised RSS over dimensions.

    Each dimension is regressed on its own `order` lags plus an intercept.
    Only rows whose lags lie inside the segment contribute, so a segment
    [start, end) yields m = end - start - order residuals per dimension.  As
    for "linear", each dimension's cost is the minimum of its RSS plus m
    times a ridge per sample on each squared lag coefficient, by the same
    rule over that lag column (the intercept is not penalised):
    shift-invariant, computed from the centred signal, and exactly
    superadditive.

    The fit keeps, per dimension, prefix sums of the outer products of
    [lag_1, ..., lag_order, 1, y] with the ridge folded into the lag
    diagonal; a query takes one prefix difference, one batched solve over
    the dimensions and one batched product.  As for "linear", the solve is
    the gufunc itself, and a singular system in any dimension raises
    np.linalg.LinAlgError.
    """

    family = "ar"

    def __init__(self, spec, signal):
        order = spec.order
        if order >= signal.n_samples:
            raise BadParamError(
                f"ar order {order} must be smaller than the signal length {signal.n_samples}"
            )
        super().__init__(spec, signal, min_seg_len=order + 2)
        data = _centred(signal.data)
        n, d = data.shape
        aug = np.empty((n - order, d, order + 2))
        for lag in range(1, order + 1):
            aug[:, :, lag - 1] = data[order - lag : n - lag, :]
        aug[:, :, order] = 1.0
        aug[:, :, order + 1] = data[order:, :]
        self._prod = _prefix_outer(aug, 1e-8, order)
        self._order = order

    def _segment_cost(self, start, end):
        k = self._order + 1
        block = self._prod[end - self._order] - self._prod[start]
        # the (d, k, 1) right-hand side is a stack of column vectors, as the
        # (m,m),(m,n)->(m,n) gufunc takes them; the block is symmetric, so
        # its (d, 1, k) row slice is the same vectors transposed
        coef = _solve(block[:, :k, :k], block[:, :k, k:])
        rss = block[:, k, k] - (block[:, k:, :k] @ coef).ravel()
        total = 0.0
        for value in rss.tolist():
            if value > 0.0:
                total += value
            elif value != value:
                raise np.linalg.LinAlgError("Singular matrix")
        return total


class KernelCost(FittedCost):
    """Feature-space spread around the segment mean.

    c(a, b) = sum of diagonal entries over [a, b) minus the mean of the
    (b - a)^2 Gram block.  For the linear kernel the Gram matrix is x x', so
    the cost is the l2 cost and the l2 prefix sums answer it without any
    n x n matrix.

    For the rbf kernel the fit builds an integral image of the upper triangle
    of the Gram matrix K: entry (i, j), i <= j, holds the sum of K(a, b) over
    a <= i and a < b <= j.  The pairs a < b inside [s, e) then sum to
    image[e-1, e-1] - image[s-1, e-1], the block sum is the diagonal sum plus
    twice that, and a query reads two corners through a zero-copy float
    memoryview: O(1).  Adding f(a) + f(b) to every entry leaves the cost
    unchanged, so K is double-centred first, which keeps the corner values
    small.

    The image is packed by row bands of a few hundred kB: band [lo, hi) is
    a contiguous (hi - lo) x (n - lo) rectangle holding columns lo..n-1 of
    its rows, and each band starts where the one above ends.  Entry (i, j),
    j >= the first row of i's band, sits at flat[base[i] + j], base being one
    offset per row.  The columns left of a band, most of the lower triangle,
    get no storage, so the image takes about n^2 / 2 + n * step / 2 entries
    (step rows per band) instead of n^2, and every page of it is written:
    an n x n buffer with only its upper triangle written still becomes
    resident almost whole once numpy advises huge pages.  The bands are swept
    twice: the first computes the kernel and its row sums (the band's own
    row sums plus, by symmetry, the column sums of the bands above it); the
    second centres each band, takes its row prefix sums and adds each row
    onto the one above, which for a band's first row is the last row of the
    band above, read from column lo on.  rbf signals over 20,000 samples fail
    the dense-matrix guard (_check_dense) up front.
    """

    family = "kernel"

    def __init__(self, spec, signal):
        super().__init__(spec, signal, min_seg_len=1)
        self.gamma = None
        if spec.kernel == "linear":
            self._prefix = _PrefixL2(signal.data)
            self._segment_cost = self._prefix.cost
            return
        n = signal.n_samples
        _check_dense(n, "the rbf kernel's integral image", _image_entries)
        if spec.gamma == MEDIAN_HEURISTIC:
            # a single sample has no pair, and every cost is 0 whatever gamma is
            self.gamma = (
                median_heuristic(signal) if n > 1 else _fallback_gamma("one sample has no pairs")
            )
        else:
            self.gamma = float(spec.gamma)
        image, self._base, self._diag_prefix = self._upper_image(_centred(signal.data))
        self._flat_image = memoryview(image).cast("B").cast("d")
        self._flat_diag = memoryview(self._diag_prefix).cast("B").cast("d")

    def _upper_image(self, data: np.ndarray):
        """The packed integral image of the double-centred rbf Gram matrix's
        upper triangle, its per-row base offsets, and the prefix sums of its
        diagonal."""
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
        image = np.empty(_image_entries(n))
        base = [0] * n
        bands = []
        step = _band_rows(n)
        offset = 0
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            size = (hi - lo) * (n - lo)
            bands.append((lo, hi, image[offset : offset + size].reshape(hi - lo, n - lo)))
            base[lo:hi] = range(offset - lo, offset - lo + size, n - lo)
            offset += size
        ones = np.ones(n)
        sums = np.zeros(n)
        diag = np.empty(n)
        # first sweep: the kernel values and the full row sums
        for lo, hi, band in bands:
            np.matmul(left[lo:hi], right[:, lo:], out=band)
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
        for lo, hi, band in bands:
            band -= shift[lo:hi, None]
            band -= means[lo:]
            band[:, : hi - lo][lower[: hi - lo, : hi - lo]] = 0.0
            np.cumsum(band, axis=1, out=band)
            for a in range(max(lo, 1), hi):
                row = image[base[a] + a : base[a] + n]
                np.add(row, image[base[a - 1] + a : base[a - 1] + n], out=row)
        # a NaN kernel value reaches the grand mean, which the centring takes
        # from every entry, so the last corner shows it
        _check_totals(image[base[-1] + n - 1], diag_prefix[-1])
        return image, base, diag_prefix

    def _segment_cost(self, start, end):
        image = self._flat_image
        base = self._base
        last = end - 1
        pairs = image[base[last] + last]
        if start:
            pairs -= image[base[start - 1] + last]
        diag = self._flat_diag[end] - self._flat_diag[start]
        value = diag - (diag + 2.0 * pairs) / (end - start)
        return value if value > 0.0 else 0.0


class MahalanobisCost(FittedCost):
    """L2 cost after a metric transform: (y - mean)' M (y - mean).

    One eigen decomposition gives the factor L with M = L L', and the
    transformed signal y L reuses the plain L2 summaries.  An explicit metric
    V diag(w) V' gives L = V diag(w)^1/2.  With metric="auto", M inverts the
    whole-signal biased covariance V diag(w) V' plus a ridge r = _ridge(1e-6,
    max w), so L = V diag(w + r)^-1/2 (w clipped at 0): the ridge stays above
    the decomposition's rounding, which is relative to max w, at any scale.
    """

    family = "mahalanobis"

    def __init__(self, spec, signal):
        super().__init__(spec, signal, min_seg_len=1)
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
        self._prefix = _PrefixL2(signal.data @ eigvecs * scales)
        self._segment_cost = self._prefix.cost


_FAMILY_CLASSES = {
    "l2": L2Cost,
    "normal": NormalCost,
    "linear": LinearCost,
    "ar": ARCost,
    "kernel": KernelCost,
    "mahalanobis": MahalanobisCost,
}


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
            fitted = _FAMILY_CLASSES[spec.family](spec, sig)
    except NonFiniteValueError as exc:
        name = f"{spec.kernel} kernel" if spec.family == "kernel" else spec.family
        raise NonFiniteValueError(f"{name} cost: {exc}") from None
    if sig.n_samples < fitted.min_seg_len:
        raise SignalTooShortError(
            f"signal length {sig.n_samples} below the family minimum {fitted.min_seg_len}"
        )
    return fitted
