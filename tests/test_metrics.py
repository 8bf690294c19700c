import json

import numpy as np
import pytest

import _oracles as oracle
from segscan import hausdorff, precision_recall, rand_index, validate_breakpoints
from segscan.exceptions import BadParamError, MismatchedLengthError
from test_search_memory import run_capped

LONG_T = 1_000_000
LONG_K = 20_000
# scores the segmentations of two segscan JSON files, truth and prediction
LONG_CHILD = """
import json, sys, tracemalloc
from segscan import hausdorff, precision_recall, rand_index, validate_breakpoints

truth, pred = (validate_breakpoints(json.load(open(path))["bkps"], {T}) for path in sys.argv[1:])
report = {{}}
for name, metric in (("hausdorff", hausdorff), ("rand_index", rand_index)):
    tracemalloc.start()
    report[name] = metric(truth, pred)
    report[name + "_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
scores = precision_recall(truth, pred, margin=2.5)
report.update(precision=scores.precision, recall=scores.recall)
print(json.dumps(report))
""".format(T=LONG_T)


def bk(ends, n):
    return validate_breakpoints(ends, n)


def test_hausdorff_frozen_value():
    assert hausdorff(bk([6], 6), bk([3, 6], 6)) == 3


def test_hausdorff_basics():
    a = bk([10, 30, 50], 50)
    b = bk([12, 28, 50], 50)
    assert hausdorff(a, a) == 0
    assert hausdorff(a, b) == hausdorff(b, a) == 2
    assert isinstance(hausdorff(a, b), int)


def test_rand_index_frozen_value():
    assert rand_index(bk([2, 4], 4), bk([4], 4)) == pytest.approx(1.0 / 3.0)


def test_rand_index_matches_pair_enumeration():
    rng = np.random.default_rng(400)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        top = min(4, n)
        left = sorted(rng.choice(range(1, n), size=int(rng.integers(0, top)), replace=False))
        right = sorted(rng.choice(range(1, n), size=int(rng.integers(0, top)), replace=False))
        a = bk(list(left) + [n], n)
        b = bk(list(right) + [n], n)
        expect = oracle.pair_rand_index(a.ends, b.ends, n)
        assert rand_index(a, b) == pytest.approx(expect, abs=1e-12)


def test_rand_index_extremes():
    a = bk([5, 10], 10)
    assert rand_index(a, a) == 1.0
    assert 0.0 <= rand_index(a, bk([10], 10)) < 1.0
    assert rand_index(bk([1], 1), bk([1], 1)) == 1.0  # no pairs to disagree on


def test_precision_recall_frozen_value():
    scores = precision_recall(bk([3, 6], 6), bk([4, 6], 6), margin=2)
    assert scores.precision == 1.0
    assert scores.recall == 1.0
    assert scores.true_positives == 1


def test_precision_recall_margin_zero_is_exact():
    truth = bk([10, 20, 30], 30)
    assert precision_recall(truth, bk([10, 20, 30], 30), margin=0).true_positives == 2
    assert precision_recall(truth, bk([10, 21, 30], 30), margin=0).true_positives == 1


def test_precision_recall_empty_conventions():
    empty = bk([20], 20)
    one = bk([10, 20], 20)
    both = precision_recall(empty, empty, margin=5)
    assert (both.precision, both.recall) == (1.0, 1.0)
    miss = precision_recall(empty, one, margin=5)
    assert (miss.precision, miss.recall) == (0.0, 0.0)
    skip = precision_recall(one, empty, margin=5)
    assert (skip.precision, skip.recall) == (0.0, 0.0)


def test_precision_recall_matching_is_one_to_one():
    truth = bk([4, 5, 20], 20)
    pred = bk([5, 20], 20)
    scores = precision_recall(truth, pred, margin=2)
    assert scores.true_positives == 1
    assert scores.precision == 1.0
    assert scores.recall == 0.5


def test_precision_recall_tie_takes_smaller_prediction():
    # the first true end (5) is equidistant from 3 and 7; taking 3 leaves 7
    # free for the second true end (8), so both match
    truth = bk([5, 8, 30], 30)
    pred = bk([3, 7, 30], 30)
    scores = precision_recall(truth, pred, margin=2)
    assert scores.true_positives == 2


def test_precision_recall_counts_are_consistent():
    rng = np.random.default_rng(401)
    for _ in range(50):
        n = 60
        kt = int(rng.integers(0, 5))
        kp = int(rng.integers(0, 5))
        t = bk(sorted(rng.choice(range(1, n), size=kt, replace=False).tolist()) + [n], n)
        p = bk(sorted(rng.choice(range(1, n), size=kp, replace=False).tolist()) + [n], n)
        margin = float(rng.integers(0, 8))
        scores = precision_recall(t, p, margin)
        assert 0.0 <= scores.precision <= 1.0
        assert 0.0 <= scores.recall <= 1.0
        assert scores.true_positives <= min(kt, kp)
        if kp:
            assert scores.precision == scores.true_positives / kp
        if kt:
            assert scores.recall == scores.true_positives / kt


def _draw_pair(rng, n, kind):
    """Two end lists for a signal of n samples: random ends at any density
    (kind 0), a truth and predictions at equal distances on both sides of
    its ends (1), a segmentation of one end against random ends (2), or two
    sparse ones (3)."""

    def draw(count):
        count = min(count, n - 1)
        return sorted(rng.choice(np.arange(1, n), size=count, replace=False).tolist()) if count else []

    if kind == 0:
        return draw(int(rng.integers(0, n))), draw(int(rng.integers(0, n)))
    if kind == 1:
        truth = draw(int(rng.integers(0, max(1, n // 6))))
        pred = set()
        for t in truth:
            shift = int(rng.integers(0, 4))
            pred.update((t - shift, t + shift))
        return truth, sorted(e for e in pred if 0 < e < n)
    if kind == 2:
        return [], draw(int(rng.integers(0, n)))
    return draw(int(rng.integers(0, 4))), draw(int(rng.integers(0, 4)))


def test_metrics_equal_the_quadratic_definitions_bit_for_bit():
    """The metrics read sorted ends with bisections; the oracles compare every
    pair of ends, of segments, or of a true end and an unmatched prediction.
    Both ways give the same integers and the same float bits, in both orders
    of the two segmentations."""
    rng = np.random.default_rng(402)
    ties = one_end = 0
    for case in range(2000):
        n = int(rng.integers(1, 81))
        margin = (0, 0.5, 3.7, n + 0.5)[case // 4 % 4]
        left, right = _draw_pair(rng, n, case % 4)
        a, b = bk(left + [n], n), bk(right + [n], n)
        one_end += not left or not right
        ties += any(t - d in right and t + d in right for t in left for d in range(1, int(margin) + 1))
        assert hausdorff(a, b) == hausdorff(b, a) == oracle.all_pairs_hausdorff(a.ends, b.ends)
        for x, y in ((a, b), (b, a)):
            assert rand_index(x, y).hex() == oracle.segment_pair_rand_index(x.ends, y.ends, n).hex()
            scores = precision_recall(x, y, margin)
            expect = oracle.scanning_precision_recall(x.internal, y.internal, margin)
            assert scores.precision.hex() == expect[0].hex()
            assert scores.recall.hex() == expect[1].hex()
            assert scores.true_positives == expect[2]
    assert ties > 100 and one_end > 400, (ties, one_end)


def test_metrics_score_long_segmentations_in_bounded_memory(tmp_path):
    """Two 20,000-change segmentations of a million samples, scored in a
    child capped at 1 GiB of address space, by the library and by segscan
    eval: a K1 x K2 matrix of end distances alone would take 3.2 GB."""
    # each predicted end 3 samples or less from its true end and 43 or more
    # from every other
    truth_ends = [49 * k for k in range(1, LONG_K + 1)] + [LONG_T]
    pred_ends = [49 * k + k % 7 - 3 for k in range(1, LONG_K + 1)] + [LONG_T]
    truth_path, pred_path = tmp_path / "truth.json", tmp_path / "pred.json"
    truth_path.write_text(json.dumps({"T": LONG_T, "bkps": truth_ends}))
    pred_path.write_text(json.dumps({"bkps": pred_ends}))
    # the rand index from sample labels: pairs in one segment of the truth,
    # of the prediction, and of both
    def labels(ends):
        return np.repeat(np.arange(len(ends)), np.diff([0, *ends]))

    def same_pairs(keys):
        counts = np.unique(keys, return_counts=True)[1].tolist()
        return sum(c * (c - 1) // 2 for c in counts)

    total = LONG_T * (LONG_T - 1) // 2
    truth_labels, pred_labels = labels(truth_ends), labels(pred_ends)
    both = same_pairs(truth_labels * (LONG_K + 1) + pred_labels)
    expect_rand = (total - same_pairs(truth_labels) - same_pairs(pred_labels) + 2 * both) / total
    # the true ends with a prediction within 2.5 samples: offsets -2 to 2
    expect_hits = sum(1 for k in range(1, LONG_K + 1) if k % 7 not in (0, 6))

    proc = run_capped("-c", LONG_CHILD, str(truth_path), str(pred_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["hausdorff"] == 3
    assert report["rand_index"] == expect_rand
    assert report["precision"] == report["recall"] == expect_hits / LONG_K
    assert report["hausdorff_peak_mb"] < 10 and report["rand_index_peak_mb"] < 10, report

    proc = run_capped(
        "-m", "segscan", "eval", "--truth", str(truth_path), "--pred", str(pred_path),
        "--margin", "2.5",
    )
    assert proc.returncode == 0, proc.stderr
    keys = ("hausdorff", "rand_index", "precision", "recall")
    assert json.loads(proc.stdout) == {key: report[key] for key in keys}


def test_metrics_reject_mismatched_lengths():
    a = bk([5, 10], 10)
    b = bk([5, 12], 12)
    with pytest.raises(MismatchedLengthError):
        hausdorff(a, b)
    with pytest.raises(MismatchedLengthError):
        rand_index(a, b)
    with pytest.raises(MismatchedLengthError):
        precision_recall(a, b, margin=1)


def test_precision_recall_rejects_bad_margin():
    a = bk([5, 10], 10)
    with pytest.raises(BadParamError):
        precision_recall(a, a, margin=-1)
    with pytest.raises(BadParamError):
        precision_recall(a, a, margin=np.nan)
