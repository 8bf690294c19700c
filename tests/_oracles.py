"""Independent reference implementations for cross-checking the library.

Everything here is written the slow, obvious way: costs straight from their
definitions (explicit residuals, explicit Gram matrices), searches by
exhaustive enumeration over admissible end tuples.  The only shared
conventions are half-open segments and a terminal end equal to the signal
length.
"""

import csv
import itertools
import math
from fractions import Fraction

import numpy as np

COV_RIDGE = 1e-6
REG_RIDGE = 1e-8
RIDGE_FLOOR = 2.0**-48


def l2_cost(data, a, b):
    seg = data[a:b]
    centered = seg - seg.mean(axis=0)
    return float((centered * centered).sum())


def normal_ridge(data):
    """The ridge on each column's variance: COV_RIDGE plus RIDGE_FLOOR times
    the column's sum of squares over the whole signal, taken less its lower
    median."""
    columns = data - lower_median(data)
    return COV_RIDGE + RIDGE_FLOOR * (columns * columns).sum(axis=0)


def normal_cost(data, a, b):
    """Segment length times the log-determinant of the biased segment
    covariance plus normal_ridge on the diagonal."""
    seg = data[a:b]
    n = len(seg)
    centered = seg - seg.mean(axis=0)
    cov = centered.T @ centered / n
    _, logdet = np.linalg.slogdet(cov + np.diag(normal_ridge(data)))
    return float(n * logdet)


def lower_median(data):
    """Each column's lower median: the middle sample, the smaller of the two
    for an even count."""
    return np.sort(data, axis=0)[(len(data) - 1) // 2]


def slope_ridge(columns, n_rows):
    """The ridge weight of each slope column over n_rows residual rows:
    n_rows times REG_RIDGE plus RIDGE_FLOOR times the column's sum of
    squares.  columns holds the slope columns over the whole signal, taken
    less its lower medians."""
    return n_rows * (REG_RIDGE + RIDGE_FLOOR * (columns * columns).sum(axis=0))


def ridge_rss(x, y, weights):
    """min over b of |y - x b|^2 + sum_j weights[j] * b_j^2, for the first
    len(weights) columns of x (the slopes).

    The minimiser comes from least squares on the rows of x stacked over one
    penalty row per slope; the value is then the explicit residuals plus the
    explicit penalty.  The remaining columns (the intercept) are not
    penalised.
    """
    n_slopes = len(weights)
    rows = np.vstack([x, np.eye(n_slopes, x.shape[1]) * np.sqrt(weights)[:, None]])
    target = np.concatenate([y, np.zeros(n_slopes)])
    coef = np.linalg.lstsq(rows, target, rcond=None)[0]
    resid = y - x @ coef
    slopes = coef[:n_slopes]
    return float(resid @ resid + weights @ (slopes * slopes))


def linear_cost(data, a, b):
    """Column 0 regressed on the other columns plus an intercept.  The
    intercept absorbs any offset, so the segment's own column means are taken
    out first, which keeps offset signals from cancelling digits away; the
    ridge weights read the regressors less the whole signal's medians."""
    seg = data[a:b] - data[a:b].mean(axis=0)
    x = np.column_stack([seg[:, 1:], np.ones(len(seg))])
    weights = slope_ridge(data[:, 1:] - lower_median(data[:, 1:]), b - a)
    return ridge_rss(x, seg[:, 0], weights)


def ar_cost(data, a, b, order):
    """Each dimension regressed on its own `order` lags inside [a, b) plus an
    intercept, after taking out the segment's mean, as in linear_cost."""
    centred = data - lower_median(data)
    n_samples = len(data)
    total = 0.0
    for dim in range(data.shape[1]):
        col = data[a:b, dim] - data[a:b, dim].mean()
        n = len(col)
        lags = [col[order - lag : n - lag] for lag in range(1, order + 1)]
        x = np.column_stack(lags + [np.ones(n - order)])
        columns = np.column_stack(
            [centred[order - lag : n_samples - lag, dim] for lag in range(1, order + 1)]
        )
        total += ridge_rss(x, col[order:], slope_ridge(columns, n - order))
    return total


def kernel_cost(data, a, b, kind, gamma=None):
    seg = data[a:b]
    if kind == "linear":
        gram = seg @ seg.T
    else:
        diff = seg[:, None, :] - seg[None, :, :]
        gram = np.exp(-gamma * (diff * diff).sum(axis=2))
    return float(np.trace(gram) - gram.sum() / len(seg))


def rbf_gram(data, gamma):
    """rbf Gram matrix from explicit pairwise differences, in row blocks."""
    n = len(data)
    gram = np.empty((n, n))
    step = max(1, 200_000 // (n * data.shape[1]))
    for lo in range(0, n, step):
        diff = data[lo : lo + step, None, :] - data[None, :, :]
        gram[lo : lo + step] = np.exp(-gamma * (diff * diff).sum(axis=2))
    return gram


def centred_rbf_cost(data, gamma):
    """The rbf cost as the kernel family computed it before its upper-triangle
    image: the Gram matrix double-centred (row means, column means, grand
    mean), and each cost the trace of the segment's block minus its sum over
    the length.  The block sum is taken directly, not from corner reads, so
    the reference carries no integral-image rounding."""
    gram = rbf_gram(data, gamma)
    means = gram.mean(axis=1)
    grand = float(means.mean())
    gram -= means[:, None]
    gram -= means - grand

    def cost(a, b):
        block = gram[a:b, a:b]
        value = float(np.trace(block) - block.sum() / (b - a))
        return value if value > 0.0 else 0.0

    return cost


def square_rbf_image_cost(data, gamma):
    """The rbf cost as the kernel family computes it, from its full image
    laid out as one n x n matrix instead of packed row bands.  data is the
    centred signal the family fits.  The arithmetic is the family's own, in
    the same order and over the same band shapes, only on square-matrix
    views and with the rows added down the whole matrix, so the packed image
    must give the same costs bit for bit: L = K - 1 below the diagonal, its
    sums R down each column, the centring by row means rounded to multiples
    of 2^-24 subtracted, prefix sums along each row."""
    n, d = data.shape
    sq = np.einsum("td,td->t", data, data)
    left = np.empty((n, d + 2))
    left[:, :d] = data
    left[:, d] = sq
    left[:, d + 1] = 1.0
    right = np.empty((d + 2, n))
    right[:d] = (2.0 * gamma) * data.T
    right[d] = -gamma
    right[d + 1] = -gamma * sq
    step = min(n, max(1, (1 << 16) // n))
    bands = [(lo, min(n, lo + step)) for lo in range(0, n, step)]
    image = np.empty((n, n))
    sums = np.empty(n)
    for lo, hi in bands:
        band = image[lo:hi, :hi]
        np.matmul(left[lo:hi], right[:, :hi], out=band)
        np.minimum(band, 0.0, out=band)
        np.exp(band, out=band)
        band -= 1.0
    # the pairs a < b only: the diagonal and above are cleared
    image[np.triu_indices(n)] = 0.0
    for lo, hi in bands:
        sums[lo:hi] = image[lo:hi, :hi] @ np.ones(hi)
    for j in range(1, n):
        image[j, :j] += image[j - 1, :j]
    unit = 2.0**-24
    means = np.round((sums + image[n - 1]) / n / unit) * unit
    grand = round(float(means.mean()) / unit) * unit
    shift = means - grand
    mean_prefix = np.zeros(n + 1)
    np.cumsum(means, out=mean_prefix[1:])
    diag_prefix = np.zeros(n + 1)
    np.cumsum(grand - 2.0 * means, out=diag_prefix[1:])
    row_factors = np.column_stack([np.arange(n), mean_prefix[1:], np.ones(n)])
    col_factors = np.vstack([shift, np.ones(n), -(np.arange(n) * shift + mean_prefix[1:])])
    for lo, hi in bands:
        image[lo:hi, :hi] -= row_factors[lo:hi] @ col_factors[:, :hi]
    np.cumsum(image, axis=1, out=image)

    def cost(a, b):
        pairs = float(image[b - 1, b - 1])
        if a:
            pairs -= float(image[b - 1, a - 1])
        diag_sum = float(diag_prefix[b]) - float(diag_prefix[a])
        value = diag_sum - (diag_sum + 2.0 * pairs) / (b - a)
        return value if value > 0.0 else 0.0

    return cost


def read_csv(path, header):
    """The CLI's CSV reader as it was before it parsed with np.loadtxt: the
    csv module, a float() call per cell, the record number in every error."""
    from segscan import validate_signal
    from segscan.cli import FormatError
    from segscan.exceptions import EmptySignalError, RaggedInputError

    def parses(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    rows = []
    expected = None
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if header and lineno == 1:
                continue
            if not row:
                continue
            if expected is None:
                expected = len(row)
            elif len(row) != expected:
                raise RaggedInputError(
                    f"{path} line {lineno}: expected {expected} columns, got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                bad = next(cell for cell in row if not parses(cell))
                raise FormatError(
                    f"{path} line {lineno}: could not parse {bad!r} as a number"
                ) from None
    if not rows:
        raise EmptySignalError(f"{path}: no data rows")
    return validate_signal(np.asarray(rows))


def mahalanobis_cost(data, a, b, metric):
    seg = data[a:b]
    centered = seg - seg.mean(axis=0)
    return float(np.einsum("ti,ij,tj->", centered, metric, centered))


def auto_ridge(data):
    """The ridge of the mahalanobis auto metric: COV_RIDGE plus RIDGE_FLOOR
    times the largest eigenvalue of the whole-signal biased covariance."""
    centered = data - data.mean(axis=0)
    return COV_RIDGE + RIDGE_FLOOR * np.linalg.eigvalsh(centered.T @ centered / len(data)).max()


def auto_metric(data):
    """The metric the mahalanobis family derives when none is given: the
    inverse of the whole-signal biased covariance plus auto_ridge on the
    diagonal."""
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / len(data)
    return np.linalg.inv(cov + auto_ridge(data) * np.eye(data.shape[1]))


def exact_scatter(data, a, b):
    """The scatter matrix of data[a:b] about its own mean, in exact rational
    arithmetic on the float values."""
    rows = [[Fraction(value) for value in row] for row in data[a:b].tolist()]
    dims = len(rows[0])
    mean = [sum(row[i] for row in rows) / len(rows) for i in range(dims)]
    dev = [[row[i] - mean[i] for i in range(dims)] for row in rows]
    return [[sum(row[i] * row[j] for row in dev) for j in range(dims)] for i in range(dims)]


def exact_det_inverse(matrix):
    """The determinant and inverse of a nonsingular rational matrix, by
    Gauss-Jordan elimination with no rounding."""
    dims = len(matrix)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(dims)] for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(dims):
        pivot = next(r for r in range(col, dims) if rows[r][col] != 0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        rows[col] = [value / rows[col][col] for value in rows[col]]
        for r in range(dims):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [value - factor * top for value, top in zip(rows[r], rows[col])]
    return det, [row[dims:] for row in rows]


def exact_normal_cost(data, a, b):
    """normal_cost with the covariance, its ridge and its determinant in
    exact rational arithmetic: only the ridge and the final log round."""
    m = b - a
    cov = [[value / m for value in row] for row in exact_scatter(data, a, b)]
    for i, value in enumerate(normal_ridge(data).tolist()):
        cov[i][i] += Fraction(value)
    det, _ = exact_det_inverse(cov)
    return m * math.log(det)


def exact_auto_mahalanobis(data):
    """The mahalanobis cost with auto_metric's metric, as cost(a, b), in
    exact rational arithmetic: only the ridge and the final value round.
    A float64 metric cannot stand in when two columns are identical at a
    large scale: the cost along them is a near-cancellation of its entries,
    finer than their rounding."""
    n = len(data)
    cov = [[value / n for value in row] for row in exact_scatter(data, 0, n)]
    ridge = Fraction(float(auto_ridge(data)))
    for i in range(len(cov)):
        cov[i][i] += ridge
    _, metric = exact_det_inverse(cov)

    def cost(a, b):
        scatter = exact_scatter(data, a, b)
        dims = len(scatter)
        return float(sum(metric[i][j] * scatter[j][i] for i in range(dims) for j in range(dims)))

    return cost


def median_gamma(data):
    """Exact median-of-squared-distances bandwidth (small signals only)."""
    diff = data[:, None, :] - data[None, :, :]
    sq = (diff * diff).sum(axis=2)
    med = float(np.median(sq[np.triu_indices(len(data), k=1)]))
    return 1.0 / med if med > 0.0 else 1.0


def admissible_grid(n_samples, min_size, jump):
    first = math.ceil(min_size / jump) * jump
    return list(range(first, n_samples - min_size + 1, jump))


def greedy_packing(n_samples, min_size, jump):
    """The most internal ends the grid holds, packed from the left: each is
    the first grid point at least min_size past the previous one."""
    picked = []
    last = 0
    for pos in admissible_grid(n_samples, min_size, jump):
        if pos - last >= min_size:
            picked.append(pos)
            last = pos
    return picked


def _gaps_ok(combo, n_samples, min_size):
    prev = 0
    for p in combo:
        if p - prev < min_size:
            return False
        prev = p
    return n_samples - prev >= min_size


def iter_segmentations(n_samples, min_size, jump, max_bkps=None):
    """Every admissible end tuple (terminal included), smallest sizes first."""
    grid = admissible_grid(n_samples, min_size, jump)
    top = len(grid) if max_bkps is None else min(max_bkps, len(grid))
    for k in range(top + 1):
        for combo in itertools.combinations(grid, k):
            if _gaps_ok(combo, n_samples, min_size):
                yield combo + (n_samples,)


class MemoCost:
    """Memoizing wrapper so enumeration reuses one float per segment."""

    def __init__(self, fn):
        self.fn = fn
        self.memo = {}

    def __call__(self, a, b):
        key = (a, b)
        if key not in self.memo:
            self.memo[key] = self.fn(a, b)
        return self.memo[key]


def total_cost(cost_fn, ends):
    value = 0.0
    start = 0
    for end in ends:
        value += cost_fn(start, end)
        start = end
    return value


def best_fixed_k(cost_fn, n_samples, n_bkps, min_size=1, jump=1):
    """Exhaustive minimum over segmentations with exactly n_bkps changes.

    Returns (ends, value) or (None, None) when nothing is admissible.
    Exact-value ties resolve to the smallest end tuple, the library's rule.
    """
    best_ends = None
    best_value = None
    grid = admissible_grid(n_samples, min_size, jump)
    for combo in itertools.combinations(grid, n_bkps):
        if not _gaps_ok(combo, n_samples, min_size):
            continue
        ends = combo + (n_samples,)
        value = total_cost(cost_fn, ends)
        if best_value is None or value < best_value:
            best_value = value
            best_ends = ends
        elif value == best_value and ends < best_ends:
            best_ends = ends
    return best_ends, best_value


def dense_dynp(cost_fn, positions, min_size, n_layers):
    """dynp's table over the grid positions, kept dense: a full count x count
    segment-cost matrix, +inf wherever a segment is shorter than min_size or
    empty, and one whole-matrix pass per change count.  A pass sorts the
    starts by (rank, index), adds the last layer to every row in that
    order, and keeps each row's first minimum, so an exact tie goes to the
    smallest end tuple; a cell's rank is its start's place in that order.
    Returns the matrix, the n_layers + 1 layers, and per layer after the
    first its backpointers and ranks."""
    count = len(positions)
    matrix = np.full((count, count), np.inf)
    for e, end in enumerate(positions):
        for s, start in enumerate(positions[:e]):
            if end - start >= min_size:
                matrix[e, s] = cost_fn(start, end)
    index = np.arange(count)
    layers, backs, ranks = [0.0 + matrix[:, 0]], [], []
    rank = np.zeros(count, dtype=np.intp)
    for _ in range(n_layers):
        order = np.lexsort((index, rank))
        cand = matrix[:, order] + layers[-1][order]
        rank = cand.argmin(axis=1)
        layers.append(cand[index, rank])
        backs.append(order[rank])
        ranks.append(rank)
    return matrix, layers, backs, ranks


def dense_dynp_ends(positions, backs, n_bkps):
    """The end tuple of n_bkps change points that dense_dynp's backpointers
    give for the last position."""
    idx = len(positions) - 1
    ends = [positions[idx]]
    for back in reversed(backs[:n_bkps]):
        idx = int(back[idx])
        ends.append(positions[idx])
    return tuple(ends[::-1])


def best_penalized(cost_fn, n_samples, penalty, min_size=1, jump=1):
    """Exhaustive minimum of total cost plus a penalty per segment.

    Returns (ends, contrast) where contrast excludes the penalty, matching
    the library's reporting.  Exact ties resolve to the smallest end tuple.
    """
    best_obj = None
    best_ends = None
    best_contrast = None
    for ends in iter_segmentations(n_samples, min_size, jump):
        contrast = total_cost(cost_fn, ends)
        objective = contrast + penalty * len(ends)
        if best_obj is None or objective < best_obj:
            best_obj = objective
            best_ends = ends
            best_contrast = contrast
        elif objective == best_obj and ends < best_ends:
            best_ends = ends
            best_contrast = contrast
    return best_ends, best_contrast


def optimal_partitioning(cost_fn, n_samples, penalty, min_size=1, jump=1):
    """The unpruned penalized recursion F(t) = min over s of (F(s) + c(s, t))
    + penalty, F(0) = 0, in that float order over the admissible grid; an
    exact tie goes to the smallest end tuple.  Returns (ends, contrast) like
    best_penalized."""
    starts = [0] + admissible_grid(n_samples, min_size, jump)
    best = {0: (0.0, ())}
    for t in starts[1:] + [n_samples]:
        best[t] = min(
            ((best[s][0] + cost_fn(s, t)) + penalty, best[s][1] + (t,))
            for s in starts
            if s <= t - min_size
        )
    ends = best[n_samples][1]
    return ends, total_cost(cost_fn, ends)


def pruned_partitioning(cost_fn, n_samples, penalty, min_size=1, jump=1):
    """Textbook PELT with pelt's drop rule over the admissible grid: a start
    s is doomed at the first end t where F(s) + c(s, t) > F(t), F(t)
    holding the penalty, and it is still evaluated until it is dropped, and
    counted, at t + min_size.  An exact tie goes to the smallest end tuple.
    Returns (ends, contrast, evaluations, pruned)."""
    memo = MemoCost(cost_fn)
    starts = [0] + admissible_grid(n_samples, min_size, jump)
    best = {0: (0.0, ())}
    doomed_at, dropped = {}, set()
    for t in starts[1:] + [n_samples]:
        fits = {}
        for s in starts:
            if s > t - min_size or s in dropped:
                continue
            if s in doomed_at and doomed_at[s] + min_size <= t:
                dropped.add(s)
            else:
                fits[s] = best[s][0] + memo(s, t)
        best[t] = min((fit + penalty, best[s][1] + (t,)) for s, fit in fits.items())
        for s, fit in fits.items():
            if fit > best[t][0]:
                doomed_at.setdefault(s, t)
    ends = best[n_samples][1]
    evaluations = len(memo.memo)
    return ends, total_cost(memo, ends), evaluations, len(dropped)


def greedy_bottomup(cost_fn, n_samples, min_size=1, jump=1, n_bkps=None, penalty=None, budget=None):
    """Greedy bottom-up merging, rescanning every end at every step.

    Starts from the leftmost packing of the admissible grid (gaps of at least
    min_size) and repeatedly deletes the end whose removal raises the total
    cost least, the smallest end on a tie.  Exactly one stopping value is
    given: stop with n_bkps ends left, when the cheapest merge costs more than
    the penalty, or before the total would exceed the budget.  Returns the
    ends (terminal included), or None when n_bkps exceeds the finest grid.
    """
    ends = []
    for pos in admissible_grid(n_samples, min_size, jump):
        if pos - (ends[-1] if ends else 0) >= min_size:
            ends.append(pos)
    if n_bkps is not None and n_bkps > len(ends):
        return None

    def merge_delta(i):
        left = ends[i - 1] if i > 0 else 0
        right = ends[i + 1] if i + 1 < len(ends) else n_samples
        return cost_fn(left, right) - (cost_fn(left, ends[i]) + cost_fn(ends[i], right))

    while ends and (n_bkps is None or len(ends) > n_bkps):
        deltas = [merge_delta(i) for i in range(len(ends))]
        best = min(range(len(ends)), key=lambda i: (deltas[i], i))
        if penalty is not None and deltas[best] > penalty:
            break
        if budget is not None:
            trial = ends[:best] + ends[best + 1 :] + [n_samples]
            if total_cost(cost_fn, trial) > budget:
                break
        del ends[best]
    return tuple(ends) + (n_samples,)


def _add_best_moves(best_move, cost_fn, n_samples, n_bkps, penalty, budget):
    """Add the end of best_move(ends), a (score, end) pair or None, until the
    one given stopping value is met: n_bkps ends added, a best score at or
    below the penalty, or a total cost at or below the budget.  Returns the
    ends (terminal included), or None when the moves run out first under
    n_bkps or budget."""
    ends = [n_samples]
    while n_bkps is None or len(ends) - 1 < n_bkps:
        if budget is not None and total_cost(cost_fn, ends) <= budget:
            break
        best = best_move(ends)
        if best is None:
            return tuple(ends) if penalty is not None else None
        if penalty is not None and best[0] <= penalty:
            break
        ends = sorted(ends + [best[1]])
    return tuple(ends)


def greedy_binseg(cost_fn, n_samples, min_size=1, jump=1, n_bkps=None, penalty=None, budget=None):
    """Greedy top-down splitting, rescanning every segment at every step.

    A step takes the split of largest gain c(a, b) - (c(a, s) + c(s, b)) over
    every current segment [a, b) and every admissible s with min_size samples
    on both sides, the smallest s on a tie.  Stopping values as in
    _add_best_moves.
    """
    grid = admissible_grid(n_samples, min_size, jump)

    def best_split(ends):
        best = None
        for start, end in zip([0] + ends, ends):
            inside = [s for s in grid if start + min_size <= s <= end - min_size]
            if not inside:
                continue
            whole = cost_fn(start, end)
            for s in inside:
                gain = whole - (cost_fn(start, s) + cost_fn(s, end))
                if best is None or gain > best[0]:
                    best = (gain, s)
        return best

    return _add_best_moves(best_split, cost_fn, n_samples, n_bkps, penalty, budget)


def greedy_window(cost_fn, n_samples, width, min_size=1, jump=1, n_bkps=None, penalty=None,
                  budget=None):
    """Sliding-window peaks, rescanning the free peaks at every step.

    Z(t) = c(t - h, t + h) - c(t - h, t) - c(t, t + h) with h = width // 2, on
    the grid points with h samples on both sides.  A peak is a point above
    its left neighbour and above the first different score to its right, so
    a plateau counts once, at its leftmost point.  A step takes the highest
    peak, the smallest t on a tie, among those at least min_size away from
    every end taken.  Stopping values as in _add_best_moves.
    """
    half = width // 2
    grid = admissible_grid(n_samples, half, jump)
    scores = [
        cost_fn(t - half, t + half) - cost_fn(t - half, t) - cost_fn(t, t + half) for t in grid
    ]
    peaks = []
    for i, t in enumerate(grid):
        right = next((z for z in scores[i + 1 :] if z != scores[i]), -math.inf)
        left = scores[i - 1] if i > 0 else -math.inf
        if scores[i] > left and scores[i] > right:
            peaks.append((scores[i], t))

    def best_peak(ends):
        free = [(z, t) for z, t in peaks if all(abs(t - u) >= min_size for u in ends[:-1])]
        return max(free, key=lambda peak: (peak[0], -peak[1]), default=None)

    return _add_best_moves(best_peak, cost_fn, n_samples, n_bkps, penalty, budget)


def pair_rand_index(left_ends, right_ends, n_samples):
    """O(T^2) pairwise agreement count straight from the definition."""

    def labels(ends):
        out = np.empty(n_samples, dtype=int)
        start = 0
        for seg_id, end in enumerate(ends):
            out[start:end] = seg_id
            start = end
        return out

    a = labels(left_ends)
    b = labels(right_ends)
    agree = 0
    total = 0
    for i in range(n_samples):
        for j in range(i + 1, n_samples):
            total += 1
            if (a[i] == a[j]) == (b[i] == b[j]):
                agree += 1
    return agree / total if total else 1.0


def all_pairs_hausdorff(left_ends, right_ends):
    """The largest of all nearest-end distances, from the full K1 x K2
    matrix of end distances."""
    gaps = np.abs(np.asarray(left_ends)[:, None] - np.asarray(right_ends)[None, :])
    return int(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def segment_pair_rand_index(left_ends, right_ends, n_samples):
    """Rand index from the overlap of every pair of a left and a right
    segment, in exact integer arithmetic, as a float divided last."""
    if n_samples < 2:
        return 1.0

    def pairs(x):
        return x * (x - 1) // 2

    def segments(ends):
        return list(zip((0, *ends), ends))

    overlap_pairs = 0
    for a_start, a_end in segments(left_ends):
        for b_start, b_end in segments(right_ends):
            overlap = min(a_end, b_end) - max(a_start, b_start)
            if overlap > 1:
                overlap_pairs += pairs(overlap)
    same_left = sum(pairs(e - s) for s, e in segments(left_ends))
    same_right = sum(pairs(e - s) for s, e in segments(right_ends))
    total = pairs(n_samples)
    return (total - same_left - same_right + 2 * overlap_pairs) / total


def scanning_precision_recall(true_ends, pred_ends, margin):
    """(precision, recall, true positives) of the greedy one-to-one
    matching: true change points in increasing order, each scanning every
    unmatched predicted one for the nearest within the margin, ties to the
    smaller.  Two empty lists score (1, 1), one empty list (0, 0)."""
    if not true_ends and not pred_ends:
        return 1.0, 1.0, 0
    unmatched = list(pred_ends)
    hits = 0
    for target in true_ends:
        best = None
        for candidate in unmatched:
            distance = abs(candidate - target)
            if distance > margin:
                continue
            if best is None or distance < best[0] or (distance == best[0] and candidate < best[1]):
                best = (distance, candidate)
        if best is not None:
            hits += 1
            unmatched.remove(best[1])
    return hits / max(1, len(pred_ends)), hits / max(1, len(true_ends)), hits
