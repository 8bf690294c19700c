"""Agreement scores between two segmentations of the same signal.

All three metrics take Breakpoints built for the same signal length and raise
MismatchedLengthError otherwise.  They read the sorted end tuples, so with K
the number of ends of both segmentations together each keeps O(K) memory:
hausdorff and rand_index take O(K log K) time, and precision_recall takes
O(K log K) plus one list deletion per match, a move of at most K pointers.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import Breakpoints, _checked_real
from .exceptions import MismatchedLengthError


def _check_same_length(left: Breakpoints, right: Breakpoints) -> None:
    if left.n_samples != right.n_samples:
        raise MismatchedLengthError(
            f"segmentations refer to different lengths: {left.n_samples} vs {right.n_samples}"
        )


def _farthest(ends: np.ndarray, others: np.ndarray) -> int:
    """Largest distance from an end in ends to its nearest end in others.

    Both are sorted and end at the same terminal, so the first end of others
    not below an end always exists; the nearest is it or the one before it.
    """
    above = np.searchsorted(others, ends)
    below = np.maximum(above - 1, 0)
    return int(np.minimum(others[above] - ends, np.abs(ends - others[below])).max())


def hausdorff(left: Breakpoints, right: Breakpoints) -> int:
    """Largest distance from any end of one segmentation to the other.

    Both full end lists take part, terminal included, so the distance is 0
    exactly when the segmentations are identical.
    """
    _check_same_length(left, right)
    a, b = np.asarray(left.ends), np.asarray(right.ends)
    return max(_farthest(a, b), _farthest(b, a))


def _same_segment_pairs(ends) -> int:
    return sum((end - start) * (end - start - 1) // 2 for start, end in zip((0, *ends), ends))


def rand_index(left: Breakpoints, right: Breakpoints) -> float:
    """Fraction of sample pairs on which the two segmentations agree.

    A pair agrees when both segmentations put it in one segment, or both
    split it.  The runs between the union of both end lists are exactly the
    nonempty overlaps of a left and a right segment, so the pairs both put
    in one segment are counted over those runs, with exact integer
    arithmetic; a single-sample signal has no pairs and scores 1.
    """
    _check_same_length(left, right)
    n = left.n_samples
    if n < 2:
        return 1.0
    overlap_pairs = _same_segment_pairs(sorted(set(left.ends).union(right.ends)))
    total = n * (n - 1) // 2
    agreements = (
        total - _same_segment_pairs(left.ends) - _same_segment_pairs(right.ends) + 2 * overlap_pairs
    )
    return agreements / total


@dataclass(frozen=True)
class PrecisionRecall:
    precision: float
    recall: float
    true_positives: int


def precision_recall(truth: Breakpoints, pred: Breakpoints, margin) -> PrecisionRecall:
    """Match change points one to one within a margin (in samples).

    True ends are processed in increasing order; each takes the nearest still
    unmatched predicted end within the margin, ties going to the smaller
    one.  That end is one of the two around the true end's place in the
    sorted unmatched list.  Terminal ends never take part.  Two empty
    segmentations score (1, 1) by convention; empty against non-empty scores
    (0, 0).  margin is a finite number >= 0, else BadParamError.
    """
    _check_same_length(truth, pred)
    margin = _checked_real("margin", margin)
    true_ends = truth.internal
    pred_ends = pred.internal
    if not true_ends and not pred_ends:
        return PrecisionRecall(precision=1.0, recall=1.0, true_positives=0)
    unmatched = list(pred_ends)
    hits = 0
    for target in true_ends:
        above = bisect_left(unmatched, target)
        near = [i for i in (above - 1, above) if 0 <= i < len(unmatched)]
        best = min(near, key=lambda i: abs(unmatched[i] - target), default=None)
        if best is not None and abs(unmatched[best] - target) <= margin:
            hits += 1
            del unmatched[best]
    return PrecisionRecall(
        precision=hits / max(1, len(pred_ends)),
        recall=hits / max(1, len(true_ends)),
        true_positives=hits,
    )
