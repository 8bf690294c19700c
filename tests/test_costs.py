"""Cost families against their from-scratch definitions, plus the contract
details: eval counter, minimum segment lengths, parameter validation."""

import subprocess
import sys
import threading
import warnings
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import _oracles as oracle
from test_search_exactness import fitted_for, ill_conditioned_instances
from segscan import costs
from segscan import (
    AUTO_METRIC,
    MEDIAN_HEURISTIC,
    CostSpec,
    SearchConfig,
    dynp,
    fit,
    median_heuristic,
    validate_signal,
)
from segscan.exceptions import (
    BadParamError,
    DegenerateSignalWarning,
    IndexOutOfRangeError,
    MemoryBudgetError,
    NonFiniteValueError,
    SegmentTooShortError,
    SignalTooShortError,
)


def close(a, b, rel=1e-9):
    return abs(a - b) <= rel * (1.0 + abs(b))


@pytest.fixture(scope="module")
def noisy_signal():
    rng = np.random.default_rng(42)
    steps = np.repeat(rng.normal(scale=3.0, size=(5, 3)), 24, axis=0)
    return validate_signal(steps + rng.normal(size=(120, 3)))


def random_queries(rng, n_samples, min_len, count=200):
    out = []
    for _ in range(count):
        a = int(rng.integers(0, n_samples - min_len + 1))
        b = int(rng.integers(a + min_len, n_samples + 1))
        out.append((a, b))
    return out


def test_l2_matches_definition(noisy_signal):
    fitted = fit(CostSpec(family="l2"), noisy_signal)
    rng = np.random.default_rng(1)
    for a, b in random_queries(rng, 120, 1):
        assert close(fitted.cost(a, b), oracle.l2_cost(noisy_signal.data, a, b))


def test_normal_matches_definition(noisy_signal):
    fitted = fit(CostSpec(family="normal"), noisy_signal)
    rng = np.random.default_rng(2)
    for a, b in random_queries(rng, 120, fitted.min_seg_len):
        assert close(fitted.cost(a, b), oracle.normal_cost(noisy_signal.data, a, b))


def test_linear_matches_definition(noisy_signal):
    fitted = fit(CostSpec(family="linear"), noisy_signal)
    rng = np.random.default_rng(3)
    for a, b in random_queries(rng, 120, fitted.min_seg_len):
        assert close(fitted.cost(a, b), oracle.linear_cost(noisy_signal.data, a, b))


def test_ar_matches_definition():
    rng = np.random.default_rng(4)
    data = np.zeros((150, 2))
    data[0] = rng.normal(size=2)
    for t in range(1, 150):
        data[t] = 0.6 * data[t - 1] + rng.normal(size=2)
    signal = validate_signal(data)
    fitted = fit(CostSpec(family="ar", order=3), signal)
    assert fitted.min_seg_len == 5
    for a, b in random_queries(rng, 150, fitted.min_seg_len):
        assert close(fitted.cost(a, b), oracle.ar_cost(data, a, b, order=3))


def test_kernel_linear_matches_definition(noisy_signal):
    fitted = fit(CostSpec(family="kernel", kernel="linear"), noisy_signal)
    rng = np.random.default_rng(5)
    for a, b in random_queries(rng, 120, 1, count=100):
        assert close(fitted.cost(a, b), oracle.kernel_cost(noisy_signal.data, a, b, "linear"))


def test_kernel_rbf_matches_definition(noisy_signal):
    fitted = fit(CostSpec(family="kernel", kernel="rbf", gamma=0.35), noisy_signal)
    rng = np.random.default_rng(6)
    for a, b in random_queries(rng, 120, 1, count=100):
        direct = oracle.kernel_cost(noisy_signal.data, a, b, "rbf", gamma=0.35)
        assert close(fitted.cost(a, b), direct)


@pytest.mark.parametrize("scale, gamma", [(1.0, 1e10), (1.0, 1e14), (100.0, 1e8), (1e4, 1.0)])
def test_kernel_rbf_diagonal_is_exactly_one(scale, gamma):
    """K(a, a) = exp(0) = 1 however large gamma |x_a|^2 is.  The image's
    product expands -gamma |x_a - x_b|^2 into terms that round to about
    gamma |x_a|^2 2^-52 at a = b, so the diagonal must not be taken from
    it; at gamma |x|^2 >= 1e10 the off-diagonal values underflow and every
    segment of two or more samples costs its length less one."""
    data = scale * np.random.default_rng(8).normal(size=(120, 2))
    fitted = fit(CostSpec(family="kernel", kernel="rbf", gamma=gamma), validate_signal(data))
    queries = random_queries(np.random.default_rng(9), 120, 2, count=100) + [(0, 120), (5, 7)]
    for a, b in queries:
        expected = oracle.kernel_cost(data, a, b, "rbf", gamma=gamma)
        assert abs(fitted.cost(a, b) - expected) <= 1e-12 * expected, (a, b)


def test_kernel_rbf_median_bandwidth(noisy_signal):
    fitted = fit(CostSpec(family="kernel", kernel="rbf", gamma=MEDIAN_HEURISTIC), noisy_signal)
    assert close(fitted.gamma, oracle.median_gamma(noisy_signal.data))


def test_mahalanobis_auto_matches_definition(noisy_signal):
    fitted = fit(CostSpec(family="mahalanobis"), noisy_signal)
    metric = oracle.auto_metric(noisy_signal.data)
    rng = np.random.default_rng(7)
    for a, b in random_queries(rng, 120, 1, count=100):
        assert close(fitted.cost(a, b), oracle.mahalanobis_cost(noisy_signal.data, a, b, metric))


def test_mahalanobis_explicit_metric(noisy_signal):
    metric = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    fitted = fit(CostSpec(family="mahalanobis", metric=metric), noisy_signal)
    rng = np.random.default_rng(8)
    for a, b in random_queries(rng, 120, 1, count=100):
        assert close(fitted.cost(a, b), oracle.mahalanobis_cost(noisy_signal.data, a, b, metric))


def test_kernel_linear_equals_l2(noisy_signal):
    lin = fit(CostSpec(family="kernel", kernel="linear"), noisy_signal)
    l2 = fit(CostSpec(family="l2"), noisy_signal)
    rng = np.random.default_rng(9)
    for a, b in random_queries(rng, 120, 1, count=100):
        assert lin.cost(a, b) == l2.cost(a, b)


def test_mahalanobis_identity_equals_l2(noisy_signal):
    maha = fit(CostSpec(family="mahalanobis", metric=np.eye(3)), noisy_signal)
    l2 = fit(CostSpec(family="l2"), noisy_signal)
    rng = np.random.default_rng(10)
    for a, b in random_queries(rng, 120, 1, count=100):
        assert close(maha.cost(a, b), l2.cost(a, b))


def test_l2_nonnegative_and_zero_on_constant():
    signal = validate_signal(np.ones((30, 2)))
    fitted = fit(CostSpec(family="l2"), signal)
    assert fitted.cost(0, 30) == 0.0
    assert fitted.cost(5, 20) == 0.0


@pytest.mark.parametrize("family,kw", [
    ("l2", {}),
    ("linear", {}),
    ("ar", {"order": 2}),
    ("kernel", {"kernel": "linear"}),
    ("kernel", {"kernel": "rbf", "gamma": 0.5}),
    ("mahalanobis", {}),
])
def test_costs_nonnegative(noisy_signal, family, kw):
    fitted = fit(CostSpec(family=family, **kw), noisy_signal)
    rng = np.random.default_rng(11)
    for a, b in random_queries(rng, 120, fitted.min_seg_len, count=100):
        assert fitted.cost(a, b) >= 0.0


def test_normal_cost_can_be_negative():
    # near-constant segment: covariance close to the 1e-6 ridge, so the log
    # determinant and with it the cost drop well below zero
    rng = np.random.default_rng(12)
    signal = validate_signal(1e-4 * rng.normal(size=(40, 2)))
    fitted = fit(CostSpec(family="normal"), signal)
    assert fitted.cost(0, 40) < 0.0


def test_min_seg_len_per_family(noisy_signal):
    assert fit(CostSpec(family="l2"), noisy_signal).min_seg_len == 1
    assert fit(CostSpec(family="normal"), noisy_signal).min_seg_len == 4
    assert fit(CostSpec(family="linear"), noisy_signal).min_seg_len == 4
    assert fit(CostSpec(family="ar", order=4), noisy_signal).min_seg_len == 6
    assert fit(CostSpec(family="kernel"), noisy_signal).min_seg_len == 1
    assert fit(CostSpec(family="mahalanobis"), noisy_signal).min_seg_len == 1


def test_cost_bounds_and_short_segments(noisy_signal):
    fitted = fit(CostSpec(family="normal"), noisy_signal)
    with pytest.raises(IndexOutOfRangeError):
        fitted.cost(-1, 10)
    with pytest.raises(IndexOutOfRangeError):
        fitted.cost(0, 121)
    with pytest.raises(IndexOutOfRangeError):
        fitted.cost(10, 10)
    with pytest.raises(IndexOutOfRangeError):
        fitted.cost(12, 10)
    with pytest.raises(SegmentTooShortError):
        fitted.cost(0, 3)


def test_eval_counter_counts_every_call(noisy_signal):
    fitted = fit(CostSpec(family="l2"), noisy_signal)
    assert fitted.eval_counter == 0
    fitted.cost(0, 10)
    fitted.cost(0, 10)
    fitted.cost(3, 9)
    assert fitted.eval_counter == 3


def test_eval_counter_skips_a_call_that_raises(noisy_signal):
    fitted = fit(CostSpec(family="linear"), noisy_signal)
    fitted._prod[...] = 0.0
    with pytest.warns(RuntimeWarning), pytest.raises(np.linalg.LinAlgError, match="Singular"):
        fitted.cost(0, 20)
    assert fitted.eval_counter == 0


def test_eval_counter_is_thread_safe(noisy_signal):
    fitted = fit(CostSpec(family="l2"), noisy_signal)

    def hammer():
        for _ in range(500):
            fitted.cost(0, 60)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert fitted.eval_counter == 2000


def _fitted_cost_classes(cls=costs.FittedCost):
    for sub in cls.__subclasses__():
        yield sub
        yield from _fitted_cost_classes(sub)


def test_no_fitted_cost_subclass_defines_cost():
    """eval_counter and any wrapper around FittedCost.cost (a tracer, say)
    count evaluations only if every family runs the base class's cost()."""
    classes = set(_fitted_cost_classes())
    assert {costs.PrefixCost, costs.NormalCost, costs.RegressionCost, costs.KernelCost} <= classes
    for cls in classes:
        assert "cost" not in vars(cls), cls.__name__


def test_eval_counter_stays_exact_under_constant_thread_switching(noisy_signal):
    """Four threads call cost() on an l2 and a normal fit with a thread switch
    due every microsecond; a zeroed linear fit's raising calls add nothing."""
    l2 = fit(CostSpec(family="l2"), noisy_signal)
    normal = fit(CostSpec(family="normal"), noisy_signal)
    singular = fit(CostSpec(family="linear"), noisy_signal)
    singular._prod[...] = 0.0
    expected = (l2.cost(5, 70), normal.cost(5, 70))
    rounds, n_threads = 5000, 4
    start = threading.Barrier(n_threads)
    wrong = []

    def hammer():
        start.wait(timeout=60)
        for _ in range(rounds):
            if (l2.cost(5, 70), normal.cost(5, 70)) != expected:
                wrong.append(1)
            try:
                singular.cost(0, 20)
            except np.linalg.LinAlgError:
                pass
            else:
                wrong.append(2)

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert l2.eval_counter == normal.eval_counter == n_threads * rounds + 1
    assert singular.eval_counter == 0


def _row_major_costs(rows):
    """cost(start, end) of l2 on rows as PrefixCost computed it with its sums
    row-major: one (n + 1, d) cumsum down the rows, read flat at row * d + k."""
    centred = whole_array_centred(rows)
    n, d = rows.shape
    sums = np.zeros((n + 1, d))
    np.cumsum(centred, axis=0, out=sums[1:])
    sq = np.zeros(n + 1)
    np.cumsum(np.einsum("td,td->t", centred, centred), out=sq[1:])
    flat_sums = memoryview(sums).cast("B").cast("d")
    flat_sq = memoryview(sq).cast("B").cast("d")

    def cost(start, end):
        lo = start * d
        hi = end * d
        sq_dev = 0.0
        for k in range(d):
            diff = flat_sums[hi + k] - flat_sums[lo + k]
            sq_dev += diff * diff
        value = (flat_sq[end] - flat_sq[start]) - sq_dev / (end - start)
        return value if value > 0.0 else 0.0

    return cost


@pytest.mark.parametrize("dims", [1, 2, 5])
@pytest.mark.parametrize("offset,scale", [(0.0, 1.0), (1e6, 1e-6)])
@pytest.mark.parametrize("family", ["l2", "mahalanobis", "kernel"])
def test_prefix_cost_equals_the_row_major_loop_bitwise(family, dims, offset, scale):
    """The column-major sums add in the same order as the row-major ones did,
    so every segment's cost is the same float."""
    rng = np.random.default_rng(41 + dims)
    steps = np.repeat(rng.normal(scale=3.0, size=(4, dims)), 30, axis=0)
    signal = validate_signal(offset + scale * (steps + rng.normal(size=(120, dims))))
    fitted = fit(CostSpec(family=family, kernel="linear"), signal)
    rows = costs._mahalanobis_rows(fitted.spec, signal) if family == "mahalanobis" else signal.data
    old = _row_major_costs(rows)
    for start in range(120):
        for end in range(start + 1, 121):
            assert fitted.cost(start, end) == old(start, end), (start, end)


def test_median_heuristic_frozen_values():
    assert median_heuristic([0.0, 2.0]) == 0.25
    assert median_heuristic([0.0, 1.0, 2.0]) == 1.0
    with pytest.warns(DegenerateSignalWarning):
        assert median_heuristic([0.0, 0.0, 0.0]) == 1.0
    with pytest.raises(SignalTooShortError):
        median_heuristic([1.0])


@pytest.mark.parametrize("n_samples", [3, 4, 5, 6, 40, 41])
def test_median_heuristic_matches_np_median_bitwise(n_samples):
    """3 and 6 samples give odd pair counts, 4, 5, 40 and 41 even ones."""
    data = np.random.default_rng(70 + n_samples).normal(size=(n_samples, 2))
    assert median_heuristic(data) == oracle.median_gamma(data)


@pytest.mark.parametrize("size", [1, 2, 9, 10, 10_000, 10_001])
def test_median_helper_matches_np_median_bitwise(size):
    """Twenty draws per size: about one even-count draw in five tells apart
    (low + high) / 2 and low + (high - low) / 2.  One draw has ties."""
    rng = np.random.default_rng(size)
    for draw in range(20):
        values = rng.exponential(size=size)
        if draw == 0:
            values[: size // 2 + 1] = values[0]
        assert costs._median(values) == float(np.median(values)), draw


def test_rbf_fit_leaves_numpy_ma_unimported():
    """np.median imports numpy.ma on first use, about 2 MB of resident
    memory; the bandwidth comes from np.partition instead.  Both the exact
    (60 samples) and the sampled (300 samples) pair sets are fitted."""
    script = (
        "import sys, numpy as np, segscan\n"
        "before = 'numpy.ma' in sys.modules\n"
        "rng = np.random.default_rng(0)\n"
        "for n in (60, 300):\n"
        "    segscan.fit(segscan.CostSpec(family='kernel'), rng.normal(size=(n, 2)))\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    if before == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after == "False"


def test_median_heuristic_sampled_path_is_deterministic():
    rng = np.random.default_rng(13)
    data = rng.normal(size=(400, 2))  # 79800 pairs, beyond the exact cap
    first = median_heuristic(data)
    second = median_heuristic(data)
    assert first == second
    exact = oracle.median_gamma(data)
    assert 0.5 * exact < first < 2.0 * exact


def test_costspec_validation():
    with pytest.raises(BadParamError):
        CostSpec(family="huber")
    with pytest.raises(BadParamError):
        CostSpec(order=0)
    with pytest.raises(BadParamError):
        CostSpec(order=True)
    with pytest.raises(BadParamError):
        CostSpec(kernel="poly")
    with pytest.raises(BadParamError):
        CostSpec(gamma=0.0)
    with pytest.raises(BadParamError):
        CostSpec(gamma=-2.0)
    with pytest.raises(BadParamError):
        CostSpec(gamma="bandwidth")
    with pytest.raises(BadParamError):
        CostSpec(metric=np.ones((2, 3)))
    with pytest.raises(BadParamError):
        CostSpec(metric=np.array([[1.0, 5.0], [-5.0, 1.0]]))
    with pytest.raises(BadParamError):
        CostSpec(metric=np.array([[1.0, 0.0], [0.0, -1.0]]))
    spec = CostSpec(metric=np.eye(2))
    assert not spec.metric.flags.writeable
    assert CostSpec(gamma=MEDIAN_HEURISTIC).gamma == MEDIAN_HEURISTIC
    assert CostSpec(metric=AUTO_METRIC).metric == AUTO_METRIC


def test_fit_rejections(noisy_signal):
    with pytest.raises(BadParamError):
        fit("l2", noisy_signal)
    with pytest.raises(BadParamError):
        fit(CostSpec(family="ar", order=10), validate_signal(np.zeros(8)))
    with pytest.raises(SignalTooShortError):
        fit(CostSpec(family="normal"), validate_signal(np.zeros((2, 2))))
    with pytest.raises(MemoryBudgetError):
        fit(CostSpec(family="kernel"), validate_signal(np.zeros(20_001)))


def test_mahalanobis_metric_shape_must_match(noisy_signal):
    with pytest.raises(BadParamError):
        fit(CostSpec(family="mahalanobis", metric=np.eye(2)), noisy_signal)


GUARD_FAMILIES = [
    ("l2", {}),
    ("normal", {}),
    ("linear", {}),
    ("ar", {"order": 2}),
    ("kernel", {"kernel": "rbf", "gamma": 0.5}),
    ("mahalanobis", {}),
]


@pytest.mark.parametrize("family,kw", GUARD_FAMILIES)
def test_cost_guard_every_family(noisy_signal, family, kw):
    fitted = fit(CostSpec(family=family, **kw), noisy_signal)
    n = noisy_signal.n_samples
    m = fitted.min_seg_len
    outside = [(-1, m), (-5, -3), (n - m, n + 1), (n, n + 2), (0, 0), (10, 10), (n, n), (12, 10)]
    for start, end in outside:
        with pytest.raises(IndexOutOfRangeError, match=f"outside a signal of length {n}"):
            fitted.cost(start, end)
    if m > 1:
        for start, end in ((0, m - 1), (n - 1, n), (30, 30 + m - 1)):
            with pytest.raises(SegmentTooShortError, match=f"shorter than min_seg_len={m}"):
                fitted.cost(start, end)
    for bad in (True, False, np.True_, "3", 1.9, 0.5, np.nan, np.inf, -np.inf, None, b"3"):
        for start, end in ((bad, n), (0, bad)):
            with pytest.raises(IndexOutOfRangeError, match="must be integers"):
                fitted.cost(start, end)
    assert fitted.eval_counter == 0
    for start, end in ((0, m), (n - m, n), (0, n), (7, 40)):
        expected = fitted.cost(start, end)
        for cast in (np.int64, np.int32, float, np.float64):
            before = fitted.eval_counter
            assert fitted.cost(cast(start), cast(end)) == expected
            assert fitted.eval_counter == before + 1


def numpy_prefix_cost(fitted, start, end):
    """The whole-row numpy form of the prefix-sum l2 cost, clipped at 0."""
    seg = fitted.sums[end] - fitted.sums[start]
    value = (fitted.sq[end] - fitted.sq[start]) - (seg @ seg) / (end - start)
    return max(value, 0.0)


@pytest.mark.parametrize("dims", [1, 2, 5])
@pytest.mark.parametrize("offset,scale", [(0.0, 1.0), (5.0, 1e-7), (1e6, 1e-6)])
@pytest.mark.parametrize("family", ["l2", "mahalanobis", "kernel"])
def test_prefix_cost_matches_numpy_form(family, dims, offset, scale):
    """l2, mahalanobis and the linear kernel (kernel= applies to it alone)
    share the prefix-sum fit, whose sums the fitted cost exposes."""
    rng = np.random.default_rng(14 + dims)
    steps = np.repeat(rng.normal(scale=3.0, size=(4, dims)), 50, axis=0)
    signal = validate_signal(offset + scale * (steps + rng.normal(size=(200, dims))))
    fitted = fit(CostSpec(family=family, kernel="linear"), signal)
    assert fitted.family == family
    queries = random_queries(rng, 200, 1, count=300) + [(0, 1), (199, 200), (0, 200)]
    for a, b in queries:
        value = fitted.cost(a, b)
        assert value >= 0.0
        spread = fitted.sq[b] - fitted.sq[a]
        assert abs(value - numpy_prefix_cost(fitted, a, b)) <= 1e-12 * spread, (a, b)


# offset and scale applied to the signals of the summary checks below: plain,
# and near-constant, where uncentred summaries cancel away the variation
CONDITIONING = {"plain": (0.0, 1.0), "near-constant": (5.0, 1e-7)}


def step_signal(rng, n_samples, dims, conditioning, relation=False):
    """Four mean levels plus noise; with relation, column 0 also follows the
    sum of the others with a slope that changes sign halfway."""
    offset, scale = CONDITIONING[conditioning]
    steps = np.repeat(rng.normal(scale=3.0, size=(4, dims)), -(-n_samples // 4), axis=0)
    data = steps[:n_samples] + rng.normal(size=(n_samples, dims))
    if relation:
        slope = np.where(np.arange(n_samples) < n_samples // 2, 2.0, -1.0)
        data[:, 0] += slope * data[:, 1:].sum(axis=1)
    return offset + scale * data


def ar_signal(rng, n_samples, dims, conditioning):
    """Zero-mean AR(1) processes whose coefficient flips sign halfway."""
    offset, scale = CONDITIONING[conditioning]
    data = np.zeros((n_samples, dims))
    data[0] = rng.normal(size=dims)
    for t in range(1, n_samples):
        coef = 0.7 if t < n_samples // 2 else -0.5
        data[t] = coef * data[t - 1] + rng.normal(size=dims)
    return offset + scale * data


def summary_queries(rng, n_samples, min_len, count):
    """Random segments plus the shortest ones at both ends and the whole signal."""
    edges = [(0, min_len), (n_samples - min_len, n_samples), (0, n_samples)]
    return random_queries(rng, n_samples, min_len, count) + edges


def assert_matches_oracle(fitted, reference, queries):
    for a, b in queries:
        value = fitted.cost(a, b)
        assert close(value, reference(a, b)), (a, b, value, reference(a, b))


@pytest.mark.parametrize("conditioning", list(CONDITIONING))
@pytest.mark.parametrize("dims", [1, 2, 5])
def test_normal_summaries_match_oracle(dims, conditioning):
    rng = np.random.default_rng(20 + dims)
    data = step_signal(rng, 200, dims, conditioning)
    fitted = fit(CostSpec(family="normal"), validate_signal(data))
    queries = summary_queries(rng, 200, fitted.min_seg_len, 150)
    assert_matches_oracle(fitted, lambda a, b: oracle.normal_cost(data, a, b), queries)


@pytest.mark.parametrize("conditioning", list(CONDITIONING))
@pytest.mark.parametrize("dims", [1, 2, 3, 5])
def test_linear_summaries_match_oracle(dims, conditioning):
    rng = np.random.default_rng(30 + dims)
    data = step_signal(rng, 200, dims, conditioning, relation=True)
    fitted = fit(CostSpec(family="linear"), validate_signal(data))
    queries = summary_queries(rng, 200, fitted.min_seg_len, 150)
    assert_matches_oracle(fitted, lambda a, b: oracle.linear_cost(data, a, b), queries)


@pytest.mark.parametrize("conditioning", list(CONDITIONING))
@pytest.mark.parametrize("dims", [1, 3])
@pytest.mark.parametrize("order", [1, 3, 4])
def test_ar_summaries_match_oracle(order, dims, conditioning):
    """Segments with more residual rows than coefficients match at `close`.
    With at most order + 1 rows the fit is exact up to the ridge and the cost
    is rounding residue of the prefix sums, so it is held to 1e-9 of the sum
    of squares those prefix sums hold: that of the signal less its column
    (lower) medians, which the family summarises."""
    rng = np.random.default_rng(40 + 10 * order + dims)
    data = ar_signal(rng, 200, dims, conditioning)
    fitted = fit(CostSpec(family="ar", order=order), validate_signal(data))
    assert fitted.min_seg_len == order + 2
    centred = data - oracle.lower_median(data)
    for a, b in summary_queries(rng, 200, fitted.min_seg_len, 150):
        value = fitted.cost(a, b)
        expected = oracle.ar_cost(data, a, b, order)
        if b - a - order > order + 1:
            assert close(value, expected), (a, b, value, expected)
        else:
            energy = float((centred[:b] ** 2).sum())
            assert abs(value - expected) <= 1e-9 * (1.0 + energy), (a, b, value, expected)


@pytest.mark.parametrize("scale,offset", [(1.0, 0.0), (1e6, 3e6)])
@pytest.mark.parametrize("order", [1, 3])
def test_ar_is_linear_on_the_lag_embedding(order, scale, offset):
    """ar(p) on one column x is linear on the rows [x_t, x_t-1, ..., x_t-p],
    t >= p: segment [s, e) of x holds the responses s + p..e - 1, which are
    rows s..e - p - 1 of the embedding.  Every segment with at least two
    more rows than the p + 1 coefficients must agree to 1e-9 relative, not
    bit for bit: ar centres each lag column by x's median, linear by that
    column's own.  With one spare row the cost is mostly cancellation
    residue, and the two differ by up to 1.5e-8 relative there."""
    rng = np.random.default_rng(50 + order)
    x = offset + scale * rng.normal(size=120)
    embedding = np.column_stack([x[order - lag : 120 - lag] for lag in range(order + 1)])
    ar = fit(CostSpec(family="ar", order=order), validate_signal(x[:, None]))
    linear = fit(CostSpec(family="linear"), validate_signal(embedding))
    for a in range(120):
        for b in range(a + 2 * order + 3, 121):
            expected = linear.cost(a, b - order)
            assert abs(ar.cost(a, b) - expected) <= 1e-9 * abs(expected), (a, b)


@pytest.mark.parametrize("levels", [(0.0, 65536.0), (65536.0, 0.0), (5000.0, 1.0, 0.0)])
@pytest.mark.parametrize("family", ["linear", "ar"])
def test_regression_summaries_match_oracle_on_integer_steps(family, levels):
    """Integer levels with no noise, 60 rows each: inside a level the
    regressor is exactly constant, at any height or at the median after
    larger values.  Every segment is solvable and matches the definition.
    Where the rows fit exactly the cost is rounding residue of the prefix
    sums, so the bound is 1e-9 of the energy of the centred signal, as for
    the short ar segments above."""
    step = np.repeat(levels, 60)
    if family == "ar":
        data = step[:, None]
    else:
        noise = np.random.default_rng(98).integers(-3, 4, size=len(step))
        data = np.column_stack([step + noise, step])
    fitted = fit(CostSpec(family=family, order=1), validate_signal(data))
    energy = float(((data - oracle.lower_median(data)) ** 2).sum())
    rng = np.random.default_rng(99)
    for a, b in summary_queries(rng, len(data), fitted.min_seg_len, 150):
        value = fitted.cost(a, b)
        if family == "ar":
            expected = oracle.ar_cost(data, a, b, 1)
        else:
            expected = oracle.linear_cost(data, a, b)
        assert abs(value - expected) <= 1e-9 * (1.0 + energy), (a, b, value, expected)


@pytest.mark.parametrize("conditioning", list(CONDITIONING))
@pytest.mark.parametrize("n_samples", [300, 2000])
@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_kernel_summaries_match_oracle(kernel, n_samples, conditioning):
    """Segments anywhere in the signal, up to 600 long: the oracle builds each
    segment's Gram block and pairwise differences, a few MB at that length."""
    rng = np.random.default_rng(50 + n_samples)
    data = step_signal(rng, n_samples, 2, conditioning)
    fitted = fit(CostSpec(family="kernel", kernel=kernel), validate_signal(data))
    starts = rng.integers(0, n_samples - 1, size=40).tolist()
    queries = [(a, min(n_samples, a + int(rng.integers(1, 600)))) for a in starts]
    queries += [(a, a + 3) for a in rng.integers(0, n_samples - 3, size=20).tolist()]
    queries += [(0, 1), (n_samples - 1, n_samples), (max(0, n_samples - 600), n_samples)]
    assert_matches_oracle(
        fitted, lambda a, b: oracle.kernel_cost(data, a, b, kernel, gamma=fitted.gamma), queries
    )


def test_kernel_rbf_keeps_one_gram_sized_buffer():
    """The full integral image is built in place and packed to the lower
    triangle: fitting and a first cost() call, which builds the full image,
    allocate about half an n x n float64 matrix, plus at most one row band,
    and no second buffer for the prefix sums.  The image's blocks are
    counted once each, however many rows share one."""
    signal = validate_signal(np.random.default_rng(60).normal(size=(1500, 2)))
    tracemalloc.start()
    try:
        fitted = fit(CostSpec(family="kernel", kernel="rbf"), signal)
        fitted.cost(7, 1493)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gram_bytes = 1500 * 1500 * 8
    band_bytes = 8 * costs._BAND_ENTRIES
    pieces = {id(view): view.nbytes for view in fitted._image[1]}
    assert sum(pieces.values()) <= gram_bytes / 2 + band_bytes
    assert peak < 0.6 * gram_bytes


@pytest.mark.parametrize("n_samples", [1, 2, 3, 255, 256, 257, 1000, 1999, 2000, 2840, 2931])
def test_packed_rbf_image_matches_square_image_bitwise(n_samples):
    """The row-band packing changes where entries live, not how they are
    computed: every cost equals the n x n image's bit for bit.  255 and 256
    samples fit one band (the second exactly), 257 ends in a 2-row band, and
    1000 and 2931 span many bands with a shorter last one.  Each band is a
    block of its own, and every segment that starts or ends on the last row
    of a block or the first of the next is checked.  1999, 2000 and 2840
    samples add more band heights and lengths of the last band."""
    rng = np.random.default_rng(90 + n_samples)
    data = step_signal(rng, n_samples, 2, "plain")
    gamma = 0.5 if n_samples == 1 else MEDIAN_HEURISTIC
    fitted = fit(CostSpec(family="kernel", kernel="rbf", gamma=gamma), validate_signal(data))
    reference = oracle.square_rbf_image_cost(whole_array_centred(data), fitted.gamma)
    if n_samples <= 257:
        queries = [(a, b) for a in range(n_samples) for b in range(a + 1, n_samples + 1)]
    else:
        queries = random_queries(rng, n_samples, 1, count=2000)
        queries += [(0, 1), (n_samples - 1, n_samples), (0, n_samples)]
    # the first query builds the full image
    assert fitted.cost(*queries[0]).hex() == reference(*queries[0]).hex()
    rows = fitted._image[1]
    for first in [r for r in range(1, n_samples) if rows[r] is not rows[r - 1]]:
        # segments that start or end on row first - 1 or row first
        queries += [(a, b) for a in (first, first + 1) for b in range(a + 1, n_samples + 1)]
        queries += [(a, b) for b in (first, first + 1) for a in range(b)]
    for a, b in queries:
        assert fitted.cost(a, b).hex() == reference(a, b).hex(), (a, b)


def test_dense_guard_names_the_bytes_it_would_allocate():
    """The refusal reports the structure's own size: the packed rbf image
    and dynp's packed matrix each take about half of a side x side matrix."""
    side = 20_001
    step = costs._BAND_ENTRIES // side
    packed = sum((min(side, lo + step) - lo) * (side - lo) for lo in range(0, side, step))
    with pytest.raises(MemoryBudgetError) as refused:
        fit(CostSpec(family="kernel", kernel="rbf", gamma=1.0), validate_signal(np.zeros(side)))
    assert f"{packed:,} float64 entries" in str(refused.value)
    assert f"{8 * packed:,} bytes;" in str(refused.value)
    assert 8 * packed < 0.51 * 8 * side**2
    with pytest.raises(MemoryBudgetError) as refused:
        dynp(fit(CostSpec("l2"), validate_signal(np.zeros(side - 1))), 1)
    assert f"{packed:,} float64 entries" in str(refused.value)
    assert f"{8 * packed:,} bytes;" in str(refused.value)


@pytest.mark.parametrize(
    "n_samples, gamma", [(1, 0.5), (2, 0.5), (3, 0.5), (2, MEDIAN_HEURISTIC), (3, MEDIAN_HEURISTIC)]
)
def test_kernel_rbf_tiny_signal_stays_small(n_samples, gamma):
    """The row bands never grow past the signal: a fit of one to three samples
    allocates kilobytes, not a band-height-squared scratch mask."""
    signal = validate_signal(np.random.default_rng(61).normal(size=(n_samples, 2)))
    tracemalloc.start()
    try:
        fitted = fit(CostSpec(family="kernel", kernel="rbf", gamma=gamma), signal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert fitted.cost(0, 1) == 0.0
    assert fitted.cost(0, n_samples) >= 0.0


def test_kernel_rbf_fits_one_sample_with_the_fallback_bandwidth():
    """One sample has no pair, so the median heuristic has nothing to take the
    median of; the fit takes its degenerate fallback instead of refusing, and
    median_heuristic itself still refuses."""
    with pytest.warns(DegenerateSignalWarning, match="one sample has no pairs"):
        fitted = fit(CostSpec(family="kernel"), validate_signal(np.array([[1.0]])))
    assert fitted.gamma == 1.0
    assert fitted.cost(0, 1) == 0.0
    with pytest.raises(SignalTooShortError):
        median_heuristic([[1.0]])


@pytest.mark.parametrize(
    "call, reason",
    [
        (lambda: fit(CostSpec(family="kernel"), np.ones((1, 2))), "one sample has no pairs"),
        (lambda: fit(CostSpec(family="kernel"), np.ones((5, 2))), "pairwise distances are zero"),
        (lambda: median_heuristic(np.ones((5, 2))), "pairwise distances are zero"),
    ],
    ids=["fit-one-sample", "fit-zero-distances", "median-heuristic"],
)
def test_degenerate_bandwidth_warning_names_the_callers_line(call, reason):
    """The fallback bandwidth's warning is about the caller's input, so it
    points at the caller's line, not at segscan's, whichever path emits it."""
    with pytest.warns(DegenerateSignalWarning, match=reason) as record:
        call()
    assert [(w.filename, w.lineno) for w in record] == [(__file__, call.__code__.co_firstlineno)]


@pytest.mark.parametrize("family", ["l2", "normal", "linear", "ar", "kernel", "mahalanobis"])
def test_fit_keeps_no_reference_to_its_signal(family):
    """A fit holds its summaries only: the caller's Signal, and with it the
    float64 copy of the input, is freed as soon as the caller drops it, and
    the fit and its cached engine state still answer."""
    signal = validate_signal(np.random.default_rng(3).normal(size=(60, 2)))
    alive = weakref.ref(signal)
    fitted = fit(CostSpec(family=family), signal)
    result = dynp(fitted, 1)
    whole = fitted.cost(0, 60)
    del signal
    assert alive() is None
    assert fitted.cost(0, 60) == whole
    again = dynp(fitted, 1)
    assert (again.bkps, again.contrast) == (result.bkps, result.contrast)


@pytest.mark.parametrize("conditioning", list(CONDITIONING))
@pytest.mark.parametrize("n_samples", [1000, 2931])
def test_rbf_upper_image_matches_centred_gram(n_samples, conditioning):
    """The full integral image (once the upper triangle's, now the lower's)
    against the double-centred Gram matrix it replaced, with block sums
    taken directly: random segments of any length, both ends, length 1 and
    the whole signal."""
    rng = np.random.default_rng(80 + n_samples)
    data = step_signal(rng, n_samples, 2, conditioning)
    fitted = fit(CostSpec(family="kernel", kernel="rbf"), validate_signal(data))
    reference = oracle.centred_rbf_cost(data, fitted.gamma)
    queries = random_queries(rng, n_samples, 1, count=120)
    singles = rng.integers(0, n_samples, size=10).tolist()
    queries += [(a, a + 1) for a in singles] + [(0, 1), (n_samples - 1, n_samples)]
    cut = int(rng.integers(1, n_samples))
    queries += [(0, cut), (cut, n_samples), (0, n_samples)]
    for a, b in queries:
        value = fitted.cost(a, b)
        expected = reference(a, b)
        assert abs(value - expected) <= 1e-10 * (1.0 + abs(expected)), (a, b, value, expected)


# the signals of the superadditivity checks: a step signal x as it is, and
# near-constant, badly scaled and offset versions of it
SUPERADDITIVITY_SIGNALS = {
    "plain": (0.0, 1.0),
    "near-constant": (5.0, 1e-7),
    "badly-scaled": (1e6, 1e-6),
    "offset": (1e6, 1.0),
}


def collinear_signal():
    """160 rows y, x, x with x = 1e9 * N(0, 1): two identical columns at a
    scale where a fixed ridge of 1e-6 on their variance, or on the
    covariance mahalanobis inverts, is lost in rounding."""
    rng = np.random.default_rng(91)
    x = 1e9 * rng.normal(size=160)
    return np.column_stack([rng.normal(size=160), x, x])


def superadditivity_signal(conditioning):
    if conditioning == "collinear":
        return collinear_signal()
    offset, scale = SUPERADDITIVITY_SIGNALS[conditioning]
    data = step_signal(np.random.default_rng(95), 120, 3, "plain", relation=True)
    return offset + scale * data


def split_triples(rng, n_samples, min_len, count):
    """Random a < t < b with at least min_len samples on each side of t."""
    out = []
    while len(out) < count:
        a = int(rng.integers(0, n_samples - 2 * min_len + 1))
        b = int(rng.integers(a + 2 * min_len, n_samples + 1))
        t = int(rng.integers(a + min_len, b - min_len + 1))
        out.append((a, t, b))
    return out


@pytest.mark.parametrize("conditioning", list(SUPERADDITIVITY_SIGNALS) + ["collinear"])
@pytest.mark.parametrize("family,kw", GUARD_FAMILIES)
def test_costs_are_superadditive(family, kw, conditioning):
    """What pelt's pruning rests on, for every family: splitting a segment
    never raises its cost, up to rounding.  The costs must be finite too:
    -inf would pass the comparison."""
    signal = validate_signal(superadditivity_signal(conditioning))
    fitted = fit(CostSpec(family=family, **kw), signal)
    rng = np.random.default_rng(96)
    for a, t, b in split_triples(rng, fitted.n_samples, fitted.min_seg_len, 300):
        whole, left, right = fitted.cost(a, b), fitted.cost(a, t), fitted.cost(t, b)
        assert np.isfinite([whole, left, right]).all(), (a, t, b, whole, left, right)
        slack = 1e-9 * (1.0 + abs(whole) + abs(left) + abs(right))
        assert whole >= left + right - slack, (a, t, b, whole, left, right)


@pytest.mark.parametrize("conditioning", list(SUPERADDITIVITY_SIGNALS) + ["collinear"])
@pytest.mark.parametrize("family,kw", GUARD_FAMILIES)
def test_monotone_costs_never_fall_as_the_segment_grows(family, kw, conditioning):
    """What a monotone cost class declares and pelt's bounds rest on:
    c(s, t) >= c(s, t - 1) for every segment, with no slack, and c(s, t) >= 0
    from the shortest segment on, so F(s) + penalty bounds a fresh
    candidate's total.  normal's log-determinant falls freely, so its class
    must not declare it, and the plain signal shows it falling."""
    signal = validate_signal(superadditivity_signal(conditioning))
    fitted = fit(CostSpec(family=family, **kw), signal)
    assert fitted.monotone == (family != "normal")
    if family == "normal" and conditioning != "plain":
        return
    n, low = fitted.n_samples, fitted.min_seg_len
    falls = []
    for s in range(n - low):
        row = [fitted.cost(s, t) for t in range(s + low, n + 1)]
        falls += [(s, s + low + i + 1) for i in range(len(row) - 1) if row[i + 1] < row[i]]
        if fitted.monotone:
            assert row[0] >= 0.0, (s, row[0])
    if fitted.monotone:
        assert not falls, falls[:5]
    else:
        assert falls


@pytest.mark.parametrize("family,kw", GUARD_FAMILIES)
def test_costs_are_shift_invariant(family, kw):
    """The plain and the collinear signal against themselves plus 1e6: every
    family costs them alike, which is what lets its summaries be taken of
    the centred signal."""
    spec = CostSpec(family=family, **kw)
    for name in ("plain", "collinear"):
        data = superadditivity_signal(name)
        plain = fit(spec, validate_signal(data))
        offset = fit(spec, validate_signal(1e6 + data))
        rng = np.random.default_rng(97)
        for a, b in summary_queries(rng, plain.n_samples, plain.min_seg_len, 300):
            value = plain.cost(a, b)
            moved = offset.cost(a, b)
            assert abs(moved - value) <= 1e-8 * (1.0 + abs(value)), (name, a, b, value, moved)


def test_auto_mahalanobis_matches_exact_definition_on_collinear_columns():
    """The metric comes from one eigen decomposition of the covariance, with
    every eigenvalue raised by the ridge: on two identical columns at 1e9
    scale the costs match exact rational arithmetic at `close`."""
    data = collinear_signal()
    fitted = fit(CostSpec(family="mahalanobis"), validate_signal(data))
    rng = np.random.default_rng(93)
    assert_matches_oracle(fitted, oracle.exact_auto_mahalanobis(data),
                          summary_queries(rng, 160, 1, 60))


def test_normal_matches_exact_definition_on_collinear_columns():
    """Two identical columns at 1e9 scale: the ridge keeps every segment's
    determinant positive, and the cost is held to the rounding of the one
    pivot the ridge carries.  The LU of a segment's block takes that pivot
    as a difference of entries of about the segment's sum of squares s_j of
    the column, so it is off by about 2^-53 s_j against m * r_j, with
    r_j = 2^-48 S_j (S_j over the whole signal): m times its log is off by
    about 2^-5 s_j / S_j.  Held to 8 times that, summed over the columns."""
    data = collinear_signal()
    fitted = fit(CostSpec(family="normal"), validate_signal(data))
    squares = (data - oracle.lower_median(data)) ** 2
    rng = np.random.default_rng(94)
    for a, b in summary_queries(rng, 160, fitted.min_seg_len, 60):
        value = fitted.cost(a, b)
        expected = oracle.exact_normal_cost(data, a, b)
        bound = 2.0**-2 * float((squares[a:b].sum(axis=0) / squares.sum(axis=0)).sum())
        assert abs(value - expected) <= bound + 1e-9 * (1.0 + abs(expected)), (a, b, value, expected)


def spd_blocks(rng, size, stack=()):
    """Random symmetric positive definite blocks, conditioned like the
    segment systems: a scatter matrix plus a small ridge."""
    rows = rng.normal(size=stack + (size + 3, size))
    return np.einsum("...ti,...tj->...ij", rows, rows) + 1e-8 * np.eye(size)


@pytest.mark.parametrize("stack", [(), (3,), (2, 4)])
@pytest.mark.parametrize("size", range(1, 9))
def test_direct_gufuncs_match_the_linalg_wrappers_bitwise(size, stack):
    """The normal query calls the gufunc behind np.linalg.slogdet directly,
    and the linear and ar queries the one behind np.linalg.cholesky: on
    float64 operands each must give its wrapper's results bit for bit, as
    must the direct solves."""
    rng = np.random.default_rng(100 + size)
    blocks = spd_blocks(rng, size, stack)
    rhs = rng.normal(size=stack + (size, 2))
    vector = rng.normal(size=size)
    for direct, wrapped in zip(_umath_linalg.slogdet(blocks), np.linalg.slogdet(blocks)):
        assert np.array_equal(direct, wrapped)
    assert np.array_equal(_umath_linalg.cholesky_lo(blocks), np.linalg.cholesky(blocks))
    assert np.array_equal(_umath_linalg.solve(blocks, rhs), np.linalg.solve(blocks, rhs))
    assert np.array_equal(_umath_linalg.solve(blocks, rhs[..., :1]),
                          np.linalg.solve(blocks, rhs[..., :1]))
    single = blocks.reshape((-1, size, size))[0]
    assert np.array_equal(_umath_linalg.solve1(single, vector), np.linalg.solve(single, vector))
    # linear and ar stack one vector per group; the wrapper takes them as columns
    vectors = rhs[..., 0]
    assert np.array_equal(_umath_linalg.solve1(blocks, vectors),
                          np.linalg.solve(blocks, vectors[..., None])[..., 0])


@pytest.mark.parametrize("family,kw", [("linear", {}), ("ar", {"order": 2})])
def test_singular_segment_system_raises_linalg_error(noisy_signal, family, kw):
    """The direct solve returns NaN (with numpy's invalid-value warning) for
    a singular system; the query turns that into the LinAlgError the
    np.linalg.solve wrapper raised, which the CLI maps to exit 4."""
    fitted = fit(CostSpec(family=family, **kw), noisy_signal)
    fitted._prod[...] = 0.0
    with pytest.warns(RuntimeWarning), pytest.raises(np.linalg.LinAlgError, match="Singular"):
        fitted.cost(10, 60)


def regression_stress_signal(kind):
    """90 rows of 3 columns that push the regression layout's Cholesky to
    its edges: constant and all-zero columns (a response with no spread at
    all), integer steps, near-constant columns, scales far from 1, two
    identical regressors at 1e9, and a response exactly linear in the
    regressors, whose regressor column 1 is exactly linear in time."""
    rng = np.random.default_rng(96)
    noise = rng.normal(size=(90, 3))
    t = np.arange(90.0)
    if kind == "constant":
        return np.full((90, 3), 5.0)
    if kind == "zero":
        return np.zeros((90, 3))
    if kind == "integer-steps":
        return np.repeat(rng.integers(-4, 5, size=(6, 3)), 15, axis=0).astype(np.float64)
    if kind == "near-constant":
        return 5.0 + 1e-7 * noise
    if kind == "huge":
        return 1e150 * noise
    if kind == "tiny":
        return 1e-150 * noise
    if kind == "collinear":
        return np.column_stack([noise[:, 0], 1e9 * noise[:, 1], 1e9 * noise[:, 1]])
    x2 = (t * t) % 7
    return np.column_stack([3.0 * t - 2.0 * x2 + 1.0, t, x2])


REGRESSION_STRESS = ["constant", "zero", "integer-steps", "near-constant", "huge", "tiny",
                     "collinear", "exactly-linear"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", REGRESSION_STRESS)
def test_regression_costs_stay_finite_on_hard_signals(kind):
    """Over every third start and every second end, no linear or ar cost
    (orders 1 to 30) raises or warns, each is finite and >= 0, and a
    response that is constant over the whole signal costs exactly 0.0: the
    response ridge keeps the last pivot positive, and the clip takes the
    rounding that subtracting it back leaves."""
    data = regression_stress_signal(kind)
    specs = [CostSpec(family="linear")] + [
        CostSpec(family="ar", order=order) for order in (1, 2, 4, 8, 16, 30)
    ]
    for spec in specs:
        fitted = fit(spec, data)
        pairs = [(a, b) for a in range(0, 90, 3) for b in range(2, 91, 2)]
        for a, b in [(a, b) for a, b in pairs if b - a >= fitted.min_seg_len]:
            value = fitted.cost(a, b)
            assert np.isfinite(value) and value >= 0.0, (spec, a, b, value)
            if kind in ("constant", "zero"):
                assert value == 0.0, (spec, a, b, value)


def overflowing_signal():
    """40 rows whose second column is at 1e155: its squares overflow float64."""
    rng = np.random.default_rng(98)
    return np.column_stack([rng.normal(size=40), 1e155 * rng.normal(size=40)])


OVERFLOW_FAMILIES = GUARD_FAMILIES + [
    ("kernel", {"kernel": "rbf"}),
    ("kernel", {"kernel": "linear"}),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family,kw", OVERFLOW_FAMILIES)
def test_fit_refuses_summaries_that_overflow(family, kw):
    """Unchecked, these summaries answer 0.0 or NaN for every segment: fit
    refuses them, naming the family (a kernel fit by its kernel, as the CLI's
    --cost does), and numpy warns of nothing."""
    name = f"{kw['kernel']} kernel" if family == "kernel" else family
    with pytest.raises(NonFiniteValueError, match=f"^{name} cost: .*overflow float64"):
        fit(CostSpec(family=family, **kw), overflowing_signal())


# The summaries as every fit computed them over whole arrays, with a centred
# copy of the signal and whole-array ridges: the reference for the band-wise
# fits, which must reproduce them bit for bit.


def whole_array_centred(data):
    middle = (len(data) - 1) // 2
    return data - np.partition(data, middle, axis=0)[middle]


def whole_array_prefix_outer(rows, base, ridged):
    out = np.zeros((rows.shape[0] + 1,) + rows.shape[1:] + rows.shape[-1:])
    np.einsum("...i,...j->...ij", rows, rows, out=out[1:])
    np.cumsum(out[1:], axis=0, out=out[1:])
    columns = rows[..., :ridged]
    counts = np.arange(len(out), dtype=np.float64).reshape((-1,) + (1,) * (out.ndim - 2))
    diag = np.arange(ridged)
    ridges = costs._ridge(base, np.einsum("t...,t...->...", columns, columns))
    out[..., diag, diag] += ridges * counts
    return out


def whole_array_summaries(spec, data, gamma=None):
    """{attribute: array} of the summaries fit(spec, data) keeps."""
    n, d = data.shape
    if spec.family in ("l2", "mahalanobis") or spec.kernel == "linear" and spec.family == "kernel":
        rows = data
        if spec.family == "mahalanobis":
            rows = costs._mahalanobis_rows(spec, validate_signal(data))
        centred = whole_array_centred(rows)
        columns = np.zeros((d, n + 1))
        np.cumsum(centred.T, axis=1, out=columns[:, 1:])
        sq = np.zeros(n + 1)
        np.cumsum(np.einsum("td,td->t", centred, centred), out=sq[1:])
        return {"sums": columns.T, "sq": sq}
    if spec.family == "normal":
        aug = np.empty((n, d + 1))
        aug[:, :d] = whole_array_centred(data)
        aug[:, d] = 1.0
        return {"_prod": whole_array_prefix_outer(aug, 1e-6, d)}
    centred = whole_array_centred(data)
    if spec.family == "linear":
        rows = np.empty((n, 1, d + 1))
        rows[:, 0, : d - 1] = centred[:, 1:]
        rows[:, 0, d - 1] = 1.0
        rows[:, 0, d] = centred[:, 0]
    elif spec.family == "ar":
        order = spec.order
        rows = np.empty((n - order, d, order + 2))
        for lag in range(1, order + 1):
            rows[:, :, lag - 1] = centred[order - lag : n - lag, :]
        rows[:, :, order] = 1.0
        rows[:, :, order + 1] = centred[order:, :]
    else:
        sq = np.einsum("td,td->t", centred, centred)
        left = np.empty((n, d + 2))
        left[:, :d] = centred
        left[:, d] = sq
        left[:, d + 1] = 1.0
        right = np.empty((d + 2, n))
        right[:d] = (2.0 * gamma) * centred.T
        right[d] = -gamma
        right[d + 1] = -gamma * sq
        return {"_left": left, "_right": right}
    k = rows.shape[-1] - 1
    prod = whole_array_prefix_outer(rows, 1e-8, k - 1)
    ridges = 2.0**-40 * prod[-1, :, k, k]
    ridges[ridges == 0.0] = 1.0
    prod[:, :, k, k] += ridges * np.arange(len(prod))[:, None]
    return {"_prod": prod}


SUMMARY_SPECS = [
    CostSpec(family="l2"),
    CostSpec(family="mahalanobis"),
    CostSpec(family="normal"),
    CostSpec(family="linear"),
    CostSpec(family="ar", order=3),
    CostSpec(family="kernel", kernel="linear"),
    CostSpec(family="kernel", kernel="rbf"),
]


@pytest.mark.parametrize("band_entries", [costs._BAND_ENTRIES, 64, 1])
@pytest.mark.parametrize("dims", [1, 2, 3, 5, 9])
def test_band_wise_fits_keep_the_whole_array_summaries_bitwise(dims, band_entries, monkeypatch):
    """Every fit centres, reduces and ridges its rows one band at a time;
    its summaries are bit for bit those of the whole-array expressions
    above, whether the signal is one band (the default at this size), many
    (64 entries) or one row a band.  The signal is offset, unevenly scaled
    and integral in one column, so the medians and sums are not trivial."""
    rng = np.random.default_rng(300 + dims)
    data = 1e3 + rng.normal(size=(1201, dims)) * rng.uniform(0.1, 10.0, size=dims)
    data[:, 0] = np.round(data[:, 0])
    signal = validate_signal(data)
    monkeypatch.setattr(costs, "_BAND_ENTRIES", band_entries)
    for spec in SUMMARY_SPECS + [CostSpec(family="mahalanobis", metric=np.eye(dims) + 0.5)]:
        fitted = fit(spec, signal)
        expected = whole_array_summaries(spec, signal.data, getattr(fitted, "gamma", None))
        for name, reference in expected.items():
            kept = getattr(fitted, name)
            assert kept.shape == reference.shape, (spec, name)
            assert kept.tobytes() == reference.tobytes(), (spec.family, name)


# Bytes a numpy operation may keep in its iterator buffers (8,192 entries of
# each operand) on top of the band a fit names
NUMPY_BUFFER_BYTES = 1 << 17


def kept_bytes(fitted):
    """Bytes of the arrays a fitted cost keeps, each buffer counted once, plus
    the rbf image's slot list."""
    buffers = {}
    for value in vars(fitted).values():
        if isinstance(value, np.ndarray):
            base = value if value.base is None else value.base
            buffers[id(base)] = base.nbytes
    image = getattr(fitted, "_image", None)
    return sum(buffers.values()) + (sys.getsizeof(image[0]) if image else 0)


# (spec, T, d, bytes of the rows the layout multiplies per sample): the
# mahalanobis rows mapped by the metric, normal's [x, 1], linear's
# [x, 1, y] and ar's lags, intercept and response per dimension
MEMORY_CASES = [
    (CostSpec(family="l2"), 100_000, 3, 0),
    (CostSpec(family="kernel", kernel="linear"), 100_000, 3, 0),
    (CostSpec(family="mahalanobis"), 100_000, 3, 8 * 3),
    (CostSpec(family="normal"), 100_000, 3, 8 * 4),
    (CostSpec(family="linear"), 100_000, 3, 8 * 4),
    (CostSpec(family="ar", order=4), 100_000, 1, 8 * 6),
    (CostSpec(family="kernel", kernel="rbf"), 20_000, 8, 0),
]


@pytest.mark.parametrize(
    "spec,n_samples,dims,row_bytes",
    MEMORY_CASES,
    ids=["l2", "linear-kernel", "mahalanobis", "normal", "linear", "ar", "rbf"],
)
def test_fit_allocates_its_summaries_its_rows_and_one_band(spec, n_samples, dims, row_bytes):
    """A fit's tracemalloc peak, less the summaries it keeps, stays within
    the rows its layout multiplies plus one band of _BAND_ENTRIES float64
    entries (and numpy's iterator buffers): the signal spans several bands
    (rbf, held to 20,000 samples by the dense guard, at d = 8), and no
    centred copy of it, no whole-array temporary of its summaries and no
    per-sample ridge array is made."""
    signal = validate_signal(np.random.default_rng(61).normal(size=(n_samples, dims)))
    tracemalloc.start()
    try:
        fitted = fit(spec, signal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = kept_bytes(fitted)
    bound = row_bytes * n_samples + 8 * costs._BAND_ENTRIES + NUMPY_BUFFER_BYTES
    assert peak - kept <= bound, f"{peak - kept} bytes beyond the {kept} kept; the bound is {bound}"


def assert_rows_equal_cost(fitted, segments):
    """_segment_costs over each end's starts equals cost() on every segment,
    bit for bit (float.hex, so a -0.0 or a NaN would show).  The ends are
    covered first, as dynp's fill covers its grid: an rbf row reads the
    image over those ends alone."""
    by_end = {}
    for a, b in segments:
        by_end.setdefault(b, []).append(a)
    fitted._cover(sorted(by_end))
    for end, starts in by_end.items():
        row = fitted._segment_costs(np.array(starts), end).tolist()
        expected = [fitted.cost(a, end) for a in starts]
        assert [v.hex() for v in row] == [v.hex() for v in expected], (fitted.family, end)


@pytest.mark.parametrize("family,kw", GUARD_FAMILIES)
def test_row_bodies_equal_cost_bitwise(family, kw):
    """Each layout's one-row body, which the announced rows of dynp's fill
    read, gives cost()'s bits on 3,000 random segments, the shortest ones
    at both edges and the whole signal among them.  The rbf rows come from
    an image over the segments' ends alone, as dynp's grid image."""
    rng = np.random.default_rng(97)
    data = step_signal(rng, 320, 3, "plain", relation=True)
    fitted = fit(CostSpec(family=family, **kw), validate_signal(data))
    segments = summary_queries(rng, 320, fitted.min_seg_len, 3000)
    assert_rows_equal_cost(fitted, segments)


@pytest.mark.parametrize("conditioning", ["near-constant", "badly-scaled"])
@pytest.mark.parametrize("family", ["l2", "normal", "linear", "ar", "kernel", "mahalanobis"])
def test_row_bodies_equal_cost_bitwise_on_ill_conditioned_signals(family, conditioning):
    """Every segment of the exactness tests' ill-conditioned instances,
    where the prefix differences cancel most of their digits and the clip
    at 0.0 decides many costs."""
    for data, _ in ill_conditioned_instances(family, conditioning):
        fitted = fitted_for(family, data)
        n, m = fitted.n_samples, fitted.min_seg_len
        assert_rows_equal_cost(fitted, [(a, b) for b in range(m, n + 1) for a in range(b - m + 1)])


@pytest.mark.parametrize("kind", REGRESSION_STRESS)
def test_regression_row_bodies_equal_cost_bitwise_on_hard_signals(kind):
    """linear's and ar's rows on the signals that push their Cholesky to its
    edges, where the clip and the response ridge decide the costs."""
    data = regression_stress_signal(kind)
    for spec in (CostSpec(family="linear"), CostSpec(family="ar", order=2)):
        fitted = fit(spec, data)
        m = fitted.min_seg_len
        assert_rows_equal_cost(fitted, [(a, b) for b in range(m, 91, 3) for a in range(0, b - m + 1, 2)])


def test_announced_row_answers_its_own_thread_in_order():
    """Within _announcing, the row's calls in order read its entries, which
    carry cost()'s bits; a call out of order or at another end, and one
    with bad bounds, take the scalar body or raise as without the row, and
    every call that returns counts one."""
    data = step_signal(np.random.default_rng(98), 60, 2, "plain")
    fitted = fit(CostSpec(family="normal"), validate_signal(data))
    alone = fit(CostSpec(family="normal"), validate_signal(data))
    starts = [0, 5, 10, 30]
    with fitted._announcing() as announce:
        announce(starts, 40)
        out_of_order = fitted.cost(5, 40)
        other_end = fitted.cost(0, 39)
        with pytest.raises(IndexOutOfRangeError):
            fitted.cost(30, 61)
        in_order = [fitted.cost(start, 40) for start in starts]
        assert fitted._rows[threading.get_ident()][3] == len(starts)
    assert fitted._rows == {}
    assert out_of_order.hex() == alone.cost(5, 40).hex()
    assert other_end.hex() == alone.cost(0, 39).hex()
    assert [v.hex() for v in in_order] == [alone.cost(start, 40).hex() for start in starts]
    assert fitted.eval_counter == 2 + len(starts)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dynp_fill_raises_at_a_singular_start_with_the_scalar_count():
    """ar of order 1 on a jump-2 grid: a start s reads prefix row s and an
    end e row e - 1, which is odd, so a NaN in row 10 breaks the segments
    starting at 10 alone.  The first fill row that holds one, end 14, reads
    its starts 0 to 8 from the row body and takes the scalar query at 10,
    which raises LinAlgError: the fill raises it with the eval_counter of
    the scalar calls in the fill's order, and withdraws its row."""
    data = ar_signal(np.random.default_rng(99), 80, 2, "plain")

    def broken():
        fitted = fit(CostSpec(family="ar", order=1), validate_signal(data))
        fitted._prod[10, 0, 0, 0] = np.nan
        return fitted

    scalar, min_size = broken(), 3
    positions = [0, *range(4, 80 - min_size + 1, 2), 80]
    failed = None
    for end in positions:
        try:
            for start in [s for s in positions if s <= end - min_size]:
                failed = (start, end)
                scalar.cost(start, end)
        except np.linalg.LinAlgError:
            break
    assert failed == (10, 14)
    fitted = broken()
    with pytest.raises(np.linalg.LinAlgError, match="Singular"):
        dynp(fitted, 1, SearchConfig(jump=2))
    assert fitted.eval_counter == scalar.eval_counter
    assert fitted._rows == {}
