"""Segment cost families with precomputed summaries.

Six families are available, selected by CostSpec.family:

- "l2": squared deviation from the segment mean (mean shifts)
- "normal": (b - a) * log det of the biased segment covariance plus a 1e-6
  ridge (mean and scale shifts)
- "linear": residual sum of squares of the first column regressed on the
  remaining columns plus an intercept (shifts in a linear relation)
- "ar": per-dimension autoregression on `order` lags plus an intercept, using
  only lags inside the segment (shifts in autoregressive coefficients)
- "kernel": squared distance to the segment mean in the feature space of a
  linear or Gaussian kernel, from a full Gram matrix with per-row prefix sums
- "mahalanobis": squared Mahalanobis deviation from the segment mean, either
  with an explicit PSD metric or one derived from the whole signal

fit() binds a spec to one signal and precomputes cumulative sums (or the Gram
matrix) so that cost(start, end) answers in O(1) arithmetic, or O(end - start)
for the kernel family.  The l2 and mahalanobis families read their prefix sums
through zero-copy float memoryviews, so one evaluation is O(d) plain float
arithmetic with no numpy call.  Every completed cost() call bumps eval_counter
by exactly one; increments are lock-protected so concurrent callers read exact
totals.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Signal, validate_signal
from .exceptions import (
    BadParamError,
    DegenerateSignalWarning,
    IndexOutOfRangeError,
    MemoryBudgetError,
    SegmentTooShortError,
    SignalTooShortError,
)

MEDIAN_HEURISTIC = "median-heuristic"
AUTO_METRIC = "auto"

_FAMILIES = ("l2", "normal", "linear", "ar", "kernel", "mahalanobis")
_KERNELS = ("linear", "rbf")
# caps every dense n x n float64 matrix: the kernel Gram and dynp's cost matrix
_GRAM_SAMPLE_LIMIT = 20_000
_COV_RIDGE = 1e-6
_REGRESSION_RIDGE = 1e-8
_MEDIAN_PAIR_CAP = 10_000
_MEDIAN_SEED = 12345


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Chooses a cost family and its parameters.

    order applies to "ar" (number of lags, >= 1).  kernel ("linear" or "rbf")
    and gamma (positive bandwidth or "median-heuristic") apply to "kernel".
    metric applies to "mahalanobis": a symmetric PSD matrix or "auto" to
    derive one from the whole signal.  superadditive declares that splitting a
    segment never increases total cost; all shipped families satisfy it, and
    setting it False disables pruning in the penalized search.
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
        if isinstance(self.order, bool) or not isinstance(self.order, int) or self.order < 1:
            raise BadParamError(f"order must be an integer >= 1, got {self.order!r}")
        if self.kernel not in _KERNELS:
            raise BadParamError(f"unknown kernel {self.kernel!r}")
        if isinstance(self.gamma, str):
            if self.gamma != MEDIAN_HEURISTIC:
                raise BadParamError(f"gamma must be a positive number or {MEDIAN_HEURISTIC!r}")
        else:
            gamma = float(self.gamma)
            if not np.isfinite(gamma) or gamma <= 0.0:
                raise BadParamError(f"gamma must be positive and finite, got {gamma}")
            object.__setattr__(self, "gamma", gamma)
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
    med = float(np.median(sq))
    if med <= 0.0:
        warnings.warn(
            "all sampled pairwise distances are zero; falling back to gamma=1.0",
            DegenerateSignalWarning,
            stacklevel=2,
        )
        return 1.0
    return 1.0 / med


class _PrefixL2:
    """Cumulative sums giving the within-segment sum of squared deviations.

    cost() reads sums (flat, at row * d + k) and sq through zero-copy float
    memoryviews: d subtractions and products in plain Python, no numpy call.
    """

    def __init__(self, data: np.ndarray):
        n, d = data.shape
        self.sums = np.zeros((n + 1, d))
        np.cumsum(data, axis=0, out=self.sums[1:])
        self.sq = np.zeros(n + 1)
        np.cumsum(np.einsum("td,td->t", data, data), out=self.sq[1:])
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

    The covariance is the biased estimate; a 1e-6 ridge keeps the determinant
    positive, so short or constant segments stay finite.  Note the value can
    be negative when the covariance determinant is below one.
    """

    family = "normal"

    def __init__(self, spec, signal):
        super().__init__(spec, signal, min_seg_len=signal.n_dims + 1)
        data = signal.data
        n, d = data.shape
        self._sums = np.zeros((n + 1, d))
        np.cumsum(data, axis=0, out=self._sums[1:])
        self._outer = np.zeros((n + 1, d, d))
        np.cumsum(np.einsum("ti,tj->tij", data, data), axis=0, out=self._outer[1:])
        self._ridge = _COV_RIDGE * np.eye(d)

    def _segment_cost(self, start, end):
        length = end - start
        mean = (self._sums[end] - self._sums[start]) / length
        cov = (self._outer[end] - self._outer[start]) / length - np.outer(mean, mean)
        cov = (cov + cov.T) / 2.0 + self._ridge
        _, logdet = np.linalg.slogdet(cov)
        return length * logdet


class LinearCost(FittedCost):
    """RSS of column 0 regressed on the remaining columns plus an intercept.

    Normal equations are assembled from cumulative cross products; a 1e-8
    ridge on the Gram keeps them solvable for collinear segments.
    """

    family = "linear"

    def __init__(self, spec, signal):
        d = signal.n_dims
        super().__init__(spec, signal, min_seg_len=d + 1)
        n = signal.n_samples
        aug = np.empty((n, d + 1))
        aug[:, : d - 1] = signal.data[:, 1:]
        aug[:, d - 1] = 1.0
        aug[:, d] = signal.data[:, 0]
        self._prod = np.zeros((n + 1, d + 1, d + 1))
        np.cumsum(np.einsum("ti,tj->tij", aug, aug), axis=0, out=self._prod[1:])
        self._n_reg = d
        self._ridge = _REGRESSION_RIDGE * np.eye(d)

    def _segment_cost(self, start, end):
        block = self._prod[end] - self._prod[start]
        k = self._n_reg
        gram = block[:k, :k]
        xy = block[:k, k]
        yy = block[k, k]
        coef = np.linalg.solve(gram + self._ridge, xy)
        rss = yy - 2.0 * (xy @ coef) + coef @ (gram @ coef)
        return rss if rss > 0.0 else 0.0


class ARCost(FittedCost):
    """Per-dimension autoregression cost, total RSS over dimensions.

    Each dimension is regressed on its own `order` lags plus an intercept.
    Only rows whose lags lie inside the segment contribute, so a segment
    [start, end) yields end - start - order residuals per dimension.
    """

    family = "ar"

    def __init__(self, spec, signal):
        order = spec.order
        if order >= signal.n_samples:
            raise BadParamError(
                f"ar order {order} must be smaller than the signal length {signal.n_samples}"
            )
        super().__init__(spec, signal, min_seg_len=order + 2)
        data = signal.data
        n, d = data.shape
        rows = n - order
        lagged = np.empty((rows, order + 1, d))
        for lag in range(order + 1):
            lagged[:, lag, :] = data[order - lag : n - lag, :]
        self._xprod = np.zeros((rows + 1, order + 1, order + 1, d))
        np.cumsum(np.einsum("rid,rjd->rijd", lagged, lagged), axis=0, out=self._xprod[1:])
        self._xsum = np.zeros((rows + 1, order + 1, d))
        np.cumsum(lagged, axis=0, out=self._xsum[1:])
        self._order = order
        self._ridge = _REGRESSION_RIDGE * np.eye(order + 1)

    def _segment_cost(self, start, end):
        p = self._order
        lo, hi = start, end - p
        rows = hi - lo
        prods = self._xprod[hi] - self._xprod[lo]
        sums = self._xsum[hi] - self._xsum[lo]
        total = 0.0
        for dim in range(self.signal.n_dims):
            m = prods[:, :, dim]
            s = sums[:, dim]
            gram = np.empty((p + 1, p + 1))
            gram[:p, :p] = m[1:, 1:]
            gram[:p, p] = s[1:]
            gram[p, :p] = s[1:]
            gram[p, p] = rows
            xy = np.empty(p + 1)
            xy[:p] = m[1:, 0]
            xy[p] = s[0]
            coef = np.linalg.solve(gram + self._ridge, xy)
            rss = m[0, 0] - 2.0 * (xy @ coef) + coef @ (gram @ coef)
            total += rss if rss > 0.0 else 0.0
        return total


class KernelCost(FittedCost):
    """Feature-space spread around the segment mean, from a full Gram matrix.

    c(a, b) = sum of diagonal entries over [a, b) minus the mean of the
    (b - a)^2 Gram block.  The Gram matrix is replaced in place by its per-row
    prefix sums, so a query costs one pass over the segment.  Signals longer
    than 20,000 samples are refused: the matrix would not fit the budget.
    """

    family = "kernel"

    def __init__(self, spec, signal):
        n = signal.n_samples
        if n > _GRAM_SAMPLE_LIMIT:
            raise MemoryBudgetError(
                f"kernel cost needs a {n} x {n} Gram matrix; the limit is {_GRAM_SAMPLE_LIMIT} samples"
            )
        super().__init__(spec, signal, min_seg_len=1)
        self.gamma = None
        if spec.kernel == "rbf":
            if spec.gamma == MEDIAN_HEURISTIC:
                self.gamma = median_heuristic(signal)
            else:
                self.gamma = float(spec.gamma)
        gram = self._gram(signal.data)
        self._diag_prefix = np.zeros(n + 1)
        np.cumsum(np.ascontiguousarray(np.diagonal(gram)), out=self._diag_prefix[1:])
        np.cumsum(gram, axis=1, out=gram)
        self._row_prefix = gram

    def _gram(self, data: np.ndarray) -> np.ndarray:
        if self.spec.kernel == "linear":
            return data @ data.T
        n = data.shape[0]
        sq = np.einsum("td,td->t", data, data)
        gram = np.empty((n, n))
        step = max(1, 4_000_000 // max(n, 1))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            block = sq[lo:hi, None] + sq[None, :] - 2.0 * (data[lo:hi] @ data.T)
            np.maximum(block, 0.0, out=block)
            block *= -self.gamma
            np.exp(block, out=block)
            gram[lo:hi] = block
        return gram

    def _segment_cost(self, start, end):
        length = end - start
        rows = self._row_prefix[start:end]
        block = rows[:, end - 1].sum()
        if start > 0:
            block -= rows[:, start - 1].sum()
        value = (self._diag_prefix[end] - self._diag_prefix[start]) - block / length
        return value if value > 0.0 else 0.0


class MahalanobisCost(FittedCost):
    """L2 cost after a metric transform: (y - mean)' M (y - mean).

    With metric="auto", M is the inverse of the whole-signal biased covariance
    plus a 1e-6 ridge.  The factor L with M = L'L is taken from the eigen
    decomposition, and the transformed signal reuses the plain L2 summaries.
    """

    family = "mahalanobis"

    def __init__(self, spec, signal):
        super().__init__(spec, signal, min_seg_len=1)
        d = signal.n_dims
        if isinstance(spec.metric, str):
            centered = signal.data - signal.data.mean(axis=0)
            cov = centered.T @ centered / signal.n_samples
            metric = np.linalg.inv(cov + _COV_RIDGE * np.eye(d))
        else:
            metric = np.asarray(spec.metric, dtype=np.float64)
            if metric.shape != (d, d):
                raise BadParamError(
                    f"metric shape {metric.shape} does not match signal dimension {d}"
                )
        eigvals, eigvecs = np.linalg.eigh((metric + metric.T) / 2.0)
        eigvals = np.clip(eigvals, 0.0, None)
        transformed = signal.data @ eigvecs * np.sqrt(eigvals)
        self.metric = metric
        self._prefix = _PrefixL2(transformed)
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
    family's minimum length does not fit, and MemoryBudgetError when the
    kernel Gram matrix would be too large.
    """
    if not isinstance(spec, CostSpec):
        raise BadParamError(f"expected a CostSpec, got {type(spec).__name__}")
    sig = validate_signal(signal)
    fitted = _FAMILY_CLASSES[spec.family](spec, sig)
    if sig.n_samples < fitted.min_seg_len:
        raise SignalTooShortError(
            f"signal length {sig.n_samples} below the family minimum {fitted.min_seg_len}"
        )
    return fitted
