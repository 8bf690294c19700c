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
linear and ar also fold a response ridge into their summaries, 2^-40 times
the response's sum of squares and no base, which each query subtracts back
out of its cost (see RegressionCost).

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
  folded into the x diagonal and the response ridge into the y diagonal,
  then one Cholesky factorisation stacked over the groups, whose last pivot
  squared is each group's residual sum of squares plus that ridge: linear
  has one group, x being columns 1..d-1 and y column 0; ar has one per
  dimension, x being its lags;
- rbf kernel: an integral image of the lower triangle of the Gram matrix,
  so a query reads two entries: O(1) instead of O(end - start).  fit builds
  no image.  Each engine, and sum_of_costs, names the segment ends it will
  read through FittedCost._cover.  The first ends named to a fit get an
  image of their own, one row per end, read at any start; any end that
  image lacks, named later or read by a cost() call, has the full image
  built, one row per sample, so a fit sweeps its Gram matrix at most twice.
  Every image holds the same bits for the same entry, so a cost never
  depends on which image answers it: the full image adds its Gram rows
  down each column one row at a time, and an image over chosen ends makes
  the same additions in the same order with one np.add.reduce per kept row,
  written straight into that row.  Each row band of an image is one
  block of at most _BAND_ENTRIES entries, which glibc serves from its heap,
  so a later fit reuses an earlier fit's freed blocks (see KernelCost).
  dynp's segment-cost matrix is packed the same way, every row kept: both
  allocate through _band_blocks, and one guard, _check_dense, refuses
  either above 20,000 rows.

A fit holds only what it keeps and what it multiplies.  It subtracts the
column medians (_medians) as it writes the signal into the buffers it keeps
or multiplies: the prefix sums' columns and the rbf factors one row band of
about _BAND_ENTRIES entries at a time, and the rows of normal, linear and
ar in place.  mahalanobis scales its mapped rows in place, and every ridge
is added one diagonal entry and one row band at a time (_add_ridge).  So a
fit allocates its summaries, the rows its layout multiplies (the mapped
rows, normal's [x, 1], the regression rows) and one band, and its
summaries are bit for bit those of the whole-array expressions: each band
is reduced as a contiguous block, and each ridge magnitude still reduces
its whole column.

Every family is superadditive: splitting a segment never raises its cost
(up to rounding; test_costs_are_superadditive in tests/test_costs.py checks
it on plain, near-constant, badly scaled, offset and collinear signals), so
pelt prunes wherever it evaluates costs (over dynp's matrix it reads them
and prunes nothing).  Every layout but normal's is also monotone
(FittedCost.monotone), so pelt may take a candidate's last cost as a lower
bound: its cost is the minimum, over a mean or regression coefficients, of
a sum of non-negative terms per row, so a segment grown at its end never
costs less, and its query clips it at 0.0, so 0 bounds a candidate not yet
evaluated.  normal's cost is a log-determinant, which falls freely.

The LAPACK calls of normal, linear and ar go straight to the gufuncs behind
np.linalg.slogdet and np.linalg.cholesky (numpy.linalg._umath_linalg), with
the same inner loops.  Those wrappers convert, check and promote their
operands and set an errstate on every call, which costs more than LAPACK
does on these small systems; the summaries are float64 and shaped once, at
fit, so none of that work is needed per query.  The wrapper's one contract
kept by hand is that a singular system raises np.linalg.LinAlgError: the
Cholesky gufunc fills a block it cannot factor with NaN instead (with
numpy's invalid-value RuntimeWarning), and linear and ar raise on a NaN
pivot.  The response ridge keeps the last pivot positive, so a NaN pivot
means that the regressors' own block is singular.  fit refuses summaries
that overflow float64 with NonFiniteValueError, so a NaN cannot come from
anywhere else.

Every cost() call that returns advances eval_counter by one, after the
evaluation, so a call that raises is not counted; the count is an
itertools.count, exact under concurrent callers without a lock.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky
from numpy.linalg._umath_linalg import slogdet as _slogdet

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
# the largest side of a packed dense structure (about 1.6 GB); see _check_dense
_DENSE_SIDE_LIMIT = 20_000
_MEDIAN_PAIR_CAP = 10_000
_MEDIAN_SEED = 12345
# float64 entries in one row band of a packed triangle (_band_blocks), and
# so at most in one block of the rbf integral image or of dynp's matrix, or
# of the copy a dynp layer permutes (512 KiB); see KernelCost
_BAND_ENTRIES = 1 << 16
# the rbf image's row means are rounded to multiples of this; see KernelCost
_CENTRING_UNIT = 2.0**-24


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


def _check_dense(side: int, what: str) -> None:
    """The one guard on the dense float64 structures a side indexes (the rbf
    integral image and dynp's cost matrix): MemoryBudgetError, before anything
    is allocated, for a side over 20,000.  Both are packed lower triangles of
    _image_entries(side) entries, so the message names the bytes the
    structure would really take: about 1.6 GB at the limit."""
    if side > _DENSE_SIDE_LIMIT:
        raise MemoryBudgetError(
            f"{what} needs {_image_entries(side):,} float64 entries for a side of {side}, "
            f"{8 * _image_entries(side):,} bytes; the limit is {_DENSE_SIDE_LIMIT} per side, "
            f"{8 * _image_entries(_DENSE_SIDE_LIMIT):,} bytes"
        )


def _band_rows(n: int) -> int:
    """Rows per band of an n-column pass (the rbf integral image of n
    samples, a dynp layer over n positions): about _BAND_ENTRIES entries
    each, and at most n, so the step x step mask of the image's sweep stays
    band-sized."""
    return min(n, max(1, _BAND_ENTRIES // n))


def _image_entries(n: int) -> int:
    """float64 entries of a packed lower triangle with n rows, every row kept
    (_band_blocks): the full rbf integral image of n samples, or dynp's
    matrix over n positions.  Band b of the full ones holds step rows of
    (b + 1) * step entries, and the last n % step rows hold n each."""
    step = _band_rows(n)
    full, rest = divmod(n, step)
    return step * step * full * (full + 1) // 2 + rest * n


def _band_blocks(n: int, rows, fill=None):
    """The one layout of a packed lower triangle of n rows, over the kept
    rows (ascending, each in [0, n)): row r keeps columns 0..r, and the kept
    rows of each band of _band_rows(n) rows form one block as wide as the
    band's last kept row, its entries set to fill (left unset for None); a
    band that keeps none gets an empty one.  Returns the bands (lo, hi),
    each band's kept rows as offsets from lo, one rectangle per band, and
    per kept row pieces, a memoryview of its band's block, and base, its
    offset there: the r-th kept row's column i is pieces[r][base[r] + i]."""
    step = _band_rows(n)
    bands = [(lo, min(n, lo + step)) for lo in range(0, n, step)]
    # band k keeps rows[cuts[k]:cuts[k + 1]], at offsets chosen[k] from lo
    cuts = np.searchsorted(rows, [lo for lo, _ in bands] + [n]).tolist()
    chosen = [rows[k0:k1] - lo for (lo, _), k0, k1 in zip(bands, cuts, cuts[1:])]
    rects, pieces, base = [], [], []
    for (lo, _), sel in zip(bands, chosen):
        width = lo + int(sel[-1]) + 1 if len(sel) else 1
        block = np.empty(len(sel) * width) if fill is None else np.full(len(sel) * width, fill)
        rects.append(block.reshape(len(sel), width))
        pieces += [memoryview(block)] * len(sel)
        base += range(0, block.size, width)
    return bands, chosen, rects, pieces, base


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
    median of: 1.0, with a DegenerateSignalWarning naming the reason and
    attributed to the first caller outside segscan."""
    level, frame = 1, sys._getframe()
    while frame.f_globals.get("__package__") == __package__ and frame.f_back is not None:
        frame = frame.f_back
        level += 1
    warnings.warn(
        f"{reason}; falling back to gamma=1.0", DegenerateSignalWarning, stacklevel=level
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


def _medians(data: np.ndarray) -> np.ndarray:
    """The column (lower) medians that every fit subtracts from the signal,
    for shift-invariant costs.

    Summaries of an offset signal (1e6 + noise, say) would otherwise cancel
    away the variation they are taken for.  A median sample rather than the
    mean keeps integer data integral, so their sums stay exact.  np.partition
    rather than np.median, which imports numpy.ma on first use.  The row is
    copied: a view of it would keep the whole partitioned copy alive.  Each
    fit writes data minus these medians straight into the buffers it keeps
    or multiplies, so no centred copy of the signal is made.
    """
    middle = (len(data) - 1) // 2
    return np.partition(data, middle, axis=0)[middle].copy()


def _centred_bands(data: np.ndarray, medians: np.ndarray):
    """(lo, band) for the row bands of data minus medians, about
    _BAND_ENTRIES entries each, written in turn into one contiguous buffer
    that each yield overwrites.  A fit reduces |x_t|^2 over such bands: over
    a contiguous block einsum("td,td->t") does not add a row's d >= 3
    products in sequence, so its bits depend on the layout, and contiguous
    rows are the layout the summaries have always been reduced in."""
    step = max(1, _BAND_ENTRIES // data.shape[1])
    buffer = np.empty((min(step, len(data)), data.shape[1]))
    for lo in range(0, len(data), step):
        band = buffer[: len(data) - lo]
        np.subtract(data[lo : lo + step], medians, out=band)
        yield lo, band


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
    The products are written into the output and accumulated in place, and
    the ridges are added one diagonal entry and one row band at a time
    (_add_ridge), so the only other allocation is a band; each r_j still
    reduces its whole column at once.
    """
    out = np.zeros((rows.shape[0] + 1,) + rows.shape[1:] + rows.shape[-1:])
    np.einsum("...i,...j->...ij", rows, rows, out=out[1:])
    np.cumsum(out[1:], axis=0, out=out[1:])
    columns = rows[..., :ridged]
    ridges = _ridge(base, np.einsum("t...,t...->...", columns, columns))
    for j in range(ridged):
        _add_ridge(out, j, ridges[..., j])
    _check_totals(out[-1])
    return out


def _add_ridge(prod: np.ndarray, j: int, ridge) -> None:
    """Add t * ridge to diagonal entry j of every prefix row prod[t], ridge
    holding one value per entry of prod[0, ..., j, j], one row band at a
    time."""
    step = max(1, _BAND_ENTRIES // (np.size(ridge) + 1))
    for lo in range(0, len(prod), step):
        counts = np.arange(lo, min(len(prod), lo + step), dtype=np.float64)
        prod[lo : lo + step, ..., j, j] += ridge * counts.reshape((-1,) + (1,) * np.ndim(ridge))


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
    cost matrix and value table keyed by their grid parameters.  Every
    engine passes the ends of its grid to _cover before it reads a cost:
    here that does nothing, and KernelCost builds its image there.
    """

    family: str = ""
    # c(s, t) >= c(s, u) for every u <= t: see the module docstring
    monotone: bool = True

    def __init__(self, spec: CostSpec, signal: Signal, min_seg_len: int):
        self.spec = spec
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

    def _cover(self, ends) -> None:
        """The hook through which an engine names the segment ends it will
        read, each at least 1, in any iterable, read once (search._Reader
        passes its grid without 0, and window's right ends, as one chain;
        sum_of_costs the ends it sums).
        The layouts built at fit answer any segment and ignore it;
        KernelCost builds its image over those ends."""


class PrefixCost(FittedCost):
    """Within-segment sum of squared deviations of the rows fit hands it:
    the signal for l2 and the linear kernel (whose Gram matrix is x x'), the
    signal mapped by the metric's factor for mahalanobis (_mahalanobis_rows).
    family is the spec's.  The sums are taken of the centred rows (the cost
    is shift-invariant) and kept as one (d, n + 1) array, whose transpose is
    sums; _segment_cost reads each column and sq through zero-copy float
    memoryviews: d subtractions and products in plain Python, no numpy call.
    The fit centres one row band at a time, writes the band into the sums'
    columns and its squared norms into sq, and then accumulates both in
    place: it allocates the summaries and one band.
    """

    gamma = None  # the linear kernel has no bandwidth

    def __init__(self, spec, signal, rows: np.ndarray):
        super().__init__(spec, signal, min_seg_len=1)
        self.family = spec.family
        n, d = rows.shape
        medians = _medians(rows)
        columns = np.zeros((d, n + 1))
        self.sq = np.zeros(n + 1)
        for lo, band in _centred_bands(rows, medians):
            hi = 1 + lo + len(band)
            columns[:, 1 + lo : hi] = band.T
            np.einsum("td,td->t", band, band, out=self.sq[1 + lo : hi])
        np.cumsum(columns[:, 1:], axis=1, out=columns[:, 1:])
        np.cumsum(self.sq[1:], out=self.sq[1:])
        self.sums = columns.T
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
        medians = _medians(data)
        aug = np.empty((n, d + 1))
        np.subtract(data, medians, out=aug[:, :d])
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
    prefix difference is each group's penalised normal equations
    [[XX, xy], [xy', yy]], XX over the regressors and the intercept.  A
    query factors it with one Cholesky stacked over the groups, the gufunc
    itself (see the module docstring), and reads each group's last pivot:
    squared, it is the Schur complement yy - xy' XX^-1 xy, the penalised RSS.

    An exact fit, a response constant over the segment say, makes that
    complement 0, and rounding can take it below 0, where the
    factorisation fails.  So the fit folds a response ridge per sample r_y
    into the y diagonal, and the query subtracts m * r_y back out of the
    pivot squared.  r_y is 2^-40 S_y, S_y being the group's response sum
    of squares over the whole signal: the complement rounds relative to
    the segment's yy, at most S_y, so m * r_y stands about 2^12 above that
    rounding on well-conditioned blocks, and subtracting it back rounds at
    2^-92 m S_y, far below the RSS's own rounding.  The factor is a power
    of two, so r_y is S_y with its exponent shifted, exact at any scale.
    There is no absolute base, which would not scale with the signal:
    _ridge(1e-8, S_y) reads 0.0 for every cost of a signal at 1e-150, and
    6.6e-23 for a constant response.  A group whose response is 0
    throughout (S_y = 0, or 2^-40 S_y lost to underflow) takes r_y = 1,
    and every one of its costs is 0.  What lies within the rounding of
    m * r_y itself, 2^-50 of it, is clipped to 0.0, so a response constant
    over the whole signal costs exactly 0.0.  A NaN pivot means XX itself
    is singular, and the query raises np.linalg.LinAlgError for it, as
    np.linalg.cholesky does.
    """

    def __init__(self, spec, signal, rows: np.ndarray, lag: int):
        k = rows.shape[-1] - 1
        super().__init__(spec, signal, min_seg_len=k + 1)
        self.family = spec.family
        self._prod = prod = _prefix_outer(rows, 1e-8, k - 1)
        ridges = 2.0**-40 * prod[-1, :, k, k]
        ridges[ridges == 0.0] = 1.0
        _add_ridge(prod, k, ridges)
        self._ridges = ridges.tolist()
        self._lag = lag

    def _segment_cost(self, start, end):
        end -= self._lag
        pivots = _cholesky(self._prod[end] - self._prod[start])[:, -1, -1].tolist()
        total = 0.0
        for pivot, ridge in zip(pivots, self._ridges):
            ridge *= end - start
            value = pivot * pivot - ridge
            if value > 2.0**-50 * ridge:
                total += value
            elif value != value:
                raise np.linalg.LinAlgError("Singular matrix")
        return total


class KernelCost(FittedCost):
    """Feature-space spread around the segment mean, for the rbf kernel (the
    linear kernel's is the l2 cost, which PrefixCost answers).

    c(s, e) = sum of diagonal entries over [s, e) minus the mean of the
    (e - s)^2 Gram block.  Adding f(a) + f(b) to every entry (a, b) of the
    Gram matrix K leaves the cost unchanged, so the image is taken of
    L = K - 1, which is 0 on the diagonal and as small as K's variation off
    it, and double-centred on the way: with means the row means of L
    rounded to multiples of _CENTRING_UNIT (2^-24) and shift the means less
    their mean (rounded alike), the pairs a < b inside [s, e) sum to P[j, j] -
    P[j, s - 1] for j = e - 1 (P[j, j] alone for s = 0), where

        R[j, a] = L(a + 1, a) + ... + L(j, a), added in that order,
        C[j, a] = R[j, a] - ((j - a) shift[a] + Mp[j + 1] - Mp[a + 1]),
        P[j, i] = C[j, 0] + ... + C[j, i], added in that order,

    Mp being the prefix sums of means.  The block sum is the diagonal sum
    plus twice the pairs, so a query reads two entries of row j of P through
    zero-copy float memoryviews: O(1).  The rounding keeps every centring
    term a multiple of 2^-24 below 2^17, so it is exact in float64 in any
    order, and a kernel whose values are exact, as at a bandwidth where every
    pair underflows, gives exact costs.

    fit builds no image.  It keeps the bandwidth, the centred signal as the
    two factors of one matrix product, and every check: a signal whose
    kernel exponents can overflow fails there.  An engine names the ends it
    will read (_cover, called by search._Reader and by sum_of_costs).  The
    first ends named to a fit get an image of their own: the rows j = e - 1
    of those ends only.  Row j holds P[j, i] for every i <= j, so it answers
    any start s > 0 at column s - 1.  Any end that image lacks, named later
    or read by a cost() call, has the full image built, every row, so a fit
    sweeps at most twice however many sets of ends it is asked for.  One
    builder serves any set of ends.  It sweeps row bands of L's lower
    triangle (one matrix product and one exp per band) and sums them down
    each column, which gives R.  A band whose rows are all kept adds each
    row onto the one above it in place, one np.add per row.  Any other band
    sits in a scratch buffer under one running row of sums, which starts as
    the previous band's last row: each kept row is one axis-0
    np.add.reduce over the rows from the running row through its own,
    written straight into its row of the image and back as the running row,
    and one more reduction carries the band's last row on.  numpy adds such
    a block row by row, in order, so both ways make the same additions.
    Once the sweep has the row means, it subtracts the centring of C, one
    exact matrix product per band, and takes the prefix sums P along each
    kept row.  The sweep's products have the same shapes whichever ends are
    kept, R takes the same additions in the same order, and every other
    step is exact or elementwise or runs along one row, so each entry of P
    has the same bits in every image that holds it: cost(s, e) is a
    function of the fit and the segment alone, whichever image answers it.
    Building takes _image_lock, never the search state's lock, which dynp
    holds while it fills its matrix through cost().

    The image is packed by row bands: the kept rows of one band of the sweep
    form one contiguous rectangle as wide as its last row, so the full image
    takes about n^2 / 2 + n * step / 2 entries (step rows per band) instead
    of n^2, and every page of it is written: an n x n buffer with only one
    triangle written still becomes resident almost whole once numpy advises
    huge pages.  A band whose rows are all kept is swept in place; any
    other is swept in the scratch buffer, which only its kept rows leave.
    Each rectangle is a block of its own, of at most _BAND_ENTRIES entries
    (512 KiB): row r's entries sit at pieces[r][base[r] + i], pieces
    holding per row a memoryview of its band's block, shared by the band's
    rows, and base the row's offset in it.  The reason is glibc's malloc: a block above its
    dynamic mmap threshold gets a fresh mapping, and freeing one raises that
    threshold to the block's size, after which blocks up to that size come
    from the heap and reuse the freed ones.  So once the first mapped block
    of an image is freed, the blocks of later images come from the heap,
    where the freed blocks of earlier fits serve them, and the threshold
    stays low enough that freeing a long image returns the heap's top to
    the system.  An image of one block would instead leave the smaller
    images of earlier fits on the heap and, above glibc's 32 MiB ceiling on
    that threshold, be mapped on top of them.  rbf signals over 20,000
    samples fail the dense-matrix guard (_check_dense) up front.
    """

    family = "kernel"

    def __init__(self, spec, signal):
        super().__init__(spec, signal, min_seg_len=1)
        n, d = signal.data.shape
        _check_dense(n, "the rbf kernel's integral image")
        if spec.gamma == MEDIAN_HEURISTIC:
            # a single sample has no pair, and every cost is 0 whatever gamma is
            self.gamma = (
                median_heuristic(signal) if n > 1 else _fallback_gamma("one sample has no pairs")
            )
        else:
            self.gamma = float(spec.gamma)
        gamma = self.gamma
        # left[b] . right[:, a] = -gamma * |x_a - x_b|^2 in one product, x
        # centred, written one row band at a time
        medians = _medians(signal.data)
        left, right = np.empty((n, d + 2)), np.empty((d + 2, n))
        for lo, band in _centred_bands(signal.data, medians):
            hi = lo + len(band)
            left[lo:hi, :d] = band
            np.einsum("td,td->t", band, band, out=left[lo:hi, d])
            np.multiply(band.T, 2.0 * gamma, out=right[:d, lo:hi])
        sq = left[:, d]
        left[:, d + 1] = 1.0
        right[d] = -gamma
        np.multiply(sq, -gamma, out=right[d + 1])
        self._left, self._right = left, right
        # every partial sum of the product is at most 2 gamma (|x_a|^2 +
        # |x_b|^2) in magnitude, so with this bound finite every kernel value
        # lies in [0, 1] and every image entry is finite
        _check_totals(right, 8.0 * gamma * sq.max())
        self._image_lock = threading.Lock()
        # (slot, pieces, base, diagonal prefix sums): slot[e] is the row of end
        # e, None where e is not kept; row j = e - 1 is read at column s - 1
        self._image = ([None] * (n + 1), None, None, None)

    def _cover(self, ends):
        """Build an image that covers these ends, any iterable read once,
        unless the current one does: over these ends alone for a fit's first
        image, and the full image once one is built."""
        slot = self._image[0]
        n = self.n_samples
        # the full image has a row for every end, so its last, n's, is row n - 1
        missing = [] if slot[n] == n - 1 else [end for end in ends if slot[end] is None]
        if not missing:
            return
        with self._image_lock:
            slot = self._image[0]
            if any(slot[end] is None for end in missing):
                built = self._image[1] is not None
                self._image = self._build(range(1, n + 1) if built else sorted(set(missing)))

    def _build(self, kept):
        """The image over the ends in kept (ascending, each at least 1), as
        the tuple _image holds."""
        left, right = self._left, self._right
        n = len(left)
        step = _band_rows(n)
        bands, chosen, rects, pieces, base = _band_blocks(n, np.array(kept) - 1)
        # a band of the sweep under its running row, and then a rectangle's
        # centring
        scratch = np.empty(max((hi - lo + 1) * hi for lo, hi in bands))
        carry = np.zeros(n)
        upper = ~np.tri(step, k=-1, dtype=bool)
        ones = np.ones(n)
        sums = np.empty(n)
        for (lo, hi), sel, rect in zip(bands, chosen, rects):
            whole = len(sel) == hi - lo
            running = scratch[: (hi - lo + 1) * hi].reshape(hi - lo + 1, hi)
            band = rect if whole else running[1:]
            np.matmul(left[lo:hi], right[:, :hi], out=band)
            # the product can round above 0 for nearly equal samples
            np.minimum(band, 0.0, out=band)
            np.exp(band, out=band)
            band -= 1.0
            band[:, lo:][upper[: hi - lo, : hi - lo]] = 0.0
            np.matmul(band, ones[:hi], out=sums[lo:hi])
            if whole:
                above = carry
                # row j adds only its columns a < j: the rest stay 0
                for j, row in enumerate(band, lo):
                    part = row[:j]
                    np.add(part, above[:j], out=part)
                    above = row
                carry[:hi] = above
            else:
                # the band's rows sit under a running row of R, first the
                # last band's last row.  Each kept row sums the rows from the
                # running one through its own, and becomes the running row.
                # numpy reduces axis 0 of a block at least 2 columns wide row
                # by row, in order, so R gets the additions of the loop
                # above, bit for bit; a 1-column block would be summed
                # pairwise from 8 rows on, and the only one here is end 1's
                # in band 0, over 2 rows
                running[0] = carry[:hi]
                width, top = rect.shape[1], 0
                for k, row in zip(sel.tolist(), rect):
                    np.add.reduce(running[top : k + 2, :width], axis=0, out=row)
                    running[k + 1, :width] = row
                    top = k + 1
                np.add.reduce(running[top:], axis=0, out=carry[:hi])
        # L's row sums: the pairs left of the diagonal and, in R's last row,
        # the pairs below it
        sums += carry
        means = np.round(sums / n / _CENTRING_UNIT) * _CENTRING_UNIT
        grand = round(float(means.mean()) / _CENTRING_UNIT) * _CENTRING_UNIT
        shift = means - grand
        mean_prefix = np.zeros(n + 1)
        np.cumsum(means, out=mean_prefix[1:])
        diag_prefix = np.zeros(n + 1)
        np.cumsum(grand - 2.0 * means, out=diag_prefix[1:])
        # C's centring as [j, Mp[j + 1], 1] . [shift[a], 1, -(a shift[a] + Mp[a + 1])]
        row_factors = np.ones((n, 3))
        row_factors[:, 0] = np.arange(n)
        row_factors[:, 1] = mean_prefix[1:]
        col_factors = np.ones((3, n))
        col_factors[0] = shift
        col_factors[2] = -(np.arange(n) * shift + mean_prefix[1:])
        for (lo, _), sel, rect in zip(bands, chosen, rects):
            centring = scratch[: rect.size].reshape(rect.shape)
            np.matmul(row_factors[lo + sel], col_factors[:, : rect.shape[1]], out=centring)
            rect -= centring
            np.cumsum(rect, axis=1, out=rect)
        slot = [None] * (n + 1)
        for row, end in enumerate(kept):
            slot[end] = row
        return slot, pieces, base, memoryview(diag_prefix).cast("B").cast("d")

    def _segment_cost(self, start, end):
        slot, pieces, base, diag = self._image
        row = slot[end]
        if row is None:
            self._cover(range(1, self.n_samples + 1))
            return self._segment_cost(start, end)
        piece = pieces[row]
        at = base[row] - 1
        pairs = piece[at + end]
        if start:
            pairs -= piece[at + start]
        diag = diag[end] - diag[start]
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
    rows = signal.data @ eigvecs
    rows *= scales
    return rows


def _linear_rows(signal: Signal) -> np.ndarray:
    """linear's one group of rows [x, 1, y]: the centred columns 1..d-1, an
    intercept and the centred column 0, shaped (n, 1, d + 1)."""
    data = signal.data
    n, d = data.shape
    medians = _medians(data)
    rows = np.empty((n, 1, d + 1))
    np.subtract(data[:, 1:], medians[1:], out=rows[:, 0, : d - 1])
    rows[:, 0, d - 1] = 1.0
    np.subtract(data[:, 0], medians[0], out=rows[:, 0, d])
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
    data = signal.data
    n, d = data.shape
    medians = _medians(data)
    rows = np.empty((n - order, d, order + 2))
    for lag in range(1, order + 1):
        np.subtract(data[order - lag : n - lag], medians, out=rows[:, :, lag - 1])
    rows[:, :, order] = 1.0
    np.subtract(data[order:], medians, out=rows[:, :, order + 1])
    return rows


def fit(spec: CostSpec, signal) -> FittedCost:
    """Bind a cost spec to a signal and precompute its summaries.

    Raises BadParamError for malformed parameters (e.g. an AR order at least
    as large as the signal), SignalTooShortError when even one segment of the
    family's minimum length does not fit, and MemoryBudgetError from the
    dense-matrix guard (_check_dense) for rbf signals over 20,000 samples.
    The rbf kernel's integral image is built later, by the first engine or
    cost() call that reads it (see KernelCost).
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
