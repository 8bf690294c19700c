"""Cost families against their from-scratch definitions, plus the contract
details: eval counter, minimum segment lengths, parameter validation."""

import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import _oracles as oracle
from segscan import costs
from segscan import (
    AUTO_METRIC,
    MEDIAN_HEURISTIC,
    CostSpec,
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
        assert close(lin.cost(a, b), l2.cost(a, b))


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
    assert fitted.eval_counter == 0
    for start, end in ((0, m), (n - m, n), (0, n), (7, 40)):
        expected = fitted.cost(start, end)
        for cast in (np.int64, np.int32):
            before = fitted.eval_counter
            assert fitted.cost(cast(start), cast(end)) == expected
            assert fitted.eval_counter == before + 1


def numpy_prefix_cost(prefix, start, end):
    """The whole-row numpy form of the prefix-sum l2 cost, clipped at 0."""
    seg = prefix.sums[end] - prefix.sums[start]
    value = (prefix.sq[end] - prefix.sq[start]) - (seg @ seg) / (end - start)
    return max(value, 0.0)


@pytest.mark.parametrize("dims", [1, 2, 5])
@pytest.mark.parametrize("offset,scale", [(0.0, 1.0), (5.0, 1e-7), (1e6, 1e-6)])
@pytest.mark.parametrize("family", ["l2", "mahalanobis"])
def test_prefix_cost_matches_numpy_form(family, dims, offset, scale):
    rng = np.random.default_rng(14 + dims)
    steps = np.repeat(rng.normal(scale=3.0, size=(4, dims)), 50, axis=0)
    signal = validate_signal(offset + scale * (steps + rng.normal(size=(200, dims))))
    fitted = fit(CostSpec(family=family), signal)
    prefix = fitted._prefix
    queries = random_queries(rng, 200, 1, count=300) + [(0, 1), (199, 200), (0, 200)]
    for a, b in queries:
        value = fitted.cost(a, b)
        assert value >= 0.0
        spread = prefix.sq[b] - prefix.sq[a]
        assert abs(value - numpy_prefix_cost(prefix, a, b)) <= 1e-12 * spread, (a, b)


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
@pytest.mark.parametrize("dims", [2, 3, 5])
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
    """The integral image is built in place and packed to the upper
    triangle: fitting allocates about half an n x n float64 matrix, plus at
    most one row band, and no second buffer for the prefix sums."""
    signal = validate_signal(np.random.default_rng(60).normal(size=(1500, 2)))
    tracemalloc.start()
    try:
        fitted = fit(CostSpec(family="kernel", kernel="rbf"), signal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gram_bytes = 1500 * 1500 * 8
    band_bytes = 8 * costs._BAND_ENTRIES
    assert fitted._flat_image.nbytes <= gram_bytes / 2 + band_bytes
    assert peak < 0.6 * gram_bytes


@pytest.mark.parametrize("n_samples", [1, 2, 3, 255, 256, 257, 1000, 2931])
def test_packed_rbf_image_matches_square_image_bitwise(n_samples):
    """The row-band packing changes where entries live, not how they are
    computed: every cost equals the n x n image's bit for bit.  255 and 256
    samples fit one band (the second exactly), 257 ends in a 2-row band, and
    1000 and 2931 span many bands with a shorter last one."""
    rng = np.random.default_rng(90 + n_samples)
    data = step_signal(rng, n_samples, 2, "plain")
    gamma = 0.5 if n_samples == 1 else MEDIAN_HEURISTIC
    fitted = fit(CostSpec(family="kernel", kernel="rbf", gamma=gamma), validate_signal(data))
    reference = oracle.square_rbf_image_cost(costs._centred(data), fitted.gamma)
    if n_samples <= 257:
        queries = [(a, b) for a in range(n_samples) for b in range(a + 1, n_samples + 1)]
    else:
        queries = random_queries(rng, n_samples, 1, count=2000)
        queries += [(0, 1), (n_samples - 1, n_samples), (0, n_samples)]
    for a, b in queries:
        assert fitted.cost(a, b).hex() == reference(a, b).hex(), (a, b)


def test_dense_guard_names_the_bytes_it_would_allocate():
    """The refusal reports the structure's own size: the packed rbf image
    takes about half of a side x side matrix, dynp's matrix all of it."""
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
    assert f"{8 * side**2:,} bytes;" in str(refused.value)


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


@pytest.mark.parametrize("conditioning", list(CONDITIONING))
@pytest.mark.parametrize("n_samples", [1000, 2931])
def test_rbf_upper_image_matches_centred_gram(n_samples, conditioning):
    """The upper-triangle image against the double-centred Gram matrix it
    replaced, with block sums taken directly: random segments of any length,
    both ends, length 1 and the whole signal."""
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


def superadditivity_signal(conditioning):
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


@pytest.mark.parametrize("conditioning", list(SUPERADDITIVITY_SIGNALS))
@pytest.mark.parametrize("family,kw", GUARD_FAMILIES)
def test_costs_are_superadditive(family, kw, conditioning):
    """What CostSpec.superadditive declares and pelt's pruning rests on:
    splitting a segment never raises its cost, up to rounding."""
    signal = validate_signal(superadditivity_signal(conditioning))
    fitted = fit(CostSpec(family=family, **kw), signal)
    rng = np.random.default_rng(96)
    for a, t, b in split_triples(rng, fitted.n_samples, fitted.min_seg_len, 300):
        whole, left, right = fitted.cost(a, b), fitted.cost(a, t), fitted.cost(t, b)
        slack = 1e-9 * (1.0 + abs(whole) + abs(left) + abs(right))
        assert whole >= left + right - slack, (a, t, b, whole, left, right)


@pytest.mark.parametrize("family,kw", GUARD_FAMILIES)
def test_costs_are_shift_invariant(family, kw):
    """The offset signal is the plain one plus 1e6: every family costs them
    alike, which is what lets its summaries be taken of the centred signal."""
    spec = CostSpec(family=family, **kw)
    plain = fit(spec, validate_signal(superadditivity_signal("plain")))
    offset = fit(spec, validate_signal(superadditivity_signal("offset")))
    rng = np.random.default_rng(97)
    for a, b in summary_queries(rng, plain.n_samples, plain.min_seg_len, 300):
        value = plain.cost(a, b)
        moved = offset.cost(a, b)
        assert abs(moved - value) <= 1e-8 * (1.0 + abs(value)), (a, b, value, moved)


def spd_blocks(rng, size, stack=()):
    """Random symmetric positive definite blocks, conditioned like the
    segment systems: a scatter matrix plus a small ridge."""
    rows = rng.normal(size=stack + (size + 3, size))
    return np.einsum("...ti,...tj->...ij", rows, rows) + 1e-8 * np.eye(size)


@pytest.mark.parametrize("stack", [(), (3,), (2, 4)])
@pytest.mark.parametrize("size", range(1, 9))
def test_direct_gufuncs_match_the_linalg_wrappers_bitwise(size, stack):
    """The normal, linear and ar queries call the gufuncs behind
    np.linalg.slogdet and np.linalg.solve directly: on float64 operands
    they must give the wrappers' results bit for bit."""
    rng = np.random.default_rng(100 + size)
    blocks = spd_blocks(rng, size, stack)
    rhs = rng.normal(size=stack + (size, 2))
    vector = rng.normal(size=size)
    for direct, wrapped in zip(_umath_linalg.slogdet(blocks), np.linalg.slogdet(blocks)):
        assert np.array_equal(direct, wrapped)
    assert np.array_equal(_umath_linalg.solve(blocks, rhs), np.linalg.solve(blocks, rhs))
    assert np.array_equal(_umath_linalg.solve(blocks, rhs[..., :1]),
                          np.linalg.solve(blocks, rhs[..., :1]))
    single = blocks.reshape((-1, size, size))[0]
    assert np.array_equal(_umath_linalg.solve1(single, vector), np.linalg.solve(single, vector))


@pytest.mark.parametrize("family,kw", [("linear", {}), ("ar", {"order": 2})])
def test_singular_segment_system_raises_linalg_error(noisy_signal, family, kw):
    """The direct solve returns NaN (with numpy's invalid-value warning) for
    a singular system; the query turns that into the LinAlgError the
    np.linalg.solve wrapper raised, which the CLI maps to exit 4."""
    fitted = fit(CostSpec(family=family, **kw), noisy_signal)
    fitted._prod[...] = 0.0
    with pytest.warns(RuntimeWarning), pytest.raises(np.linalg.LinAlgError, match="Singular"):
        fitted.cost(10, 60)


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
    refuses them, naming the family, and numpy warns of nothing."""
    with pytest.raises(NonFiniteValueError, match=f"^{family} cost: .*overflow float64"):
        fit(CostSpec(family=family, **kw), overflowing_signal())
