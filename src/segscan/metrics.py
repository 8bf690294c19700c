"""Agreement scores between two segmentations of the same signal.

All three metrics take Breakpoints built for the same signal length and raise
MismatchedLengthError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Breakpoints, _checked_real
from .exceptions import MismatchedLengthError


def _check_same_length(left: Breakpoints, right: Breakpoints) -> None:
    if left.n_samples != right.n_samples:
        raise MismatchedLengthError(
            f"segmentations refer to different lengths: {left.n_samples} vs {right.n_samples}"
        )


def hausdorff(left: Breakpoints, right: Breakpoints) -> int:
    """Largest distance from any end of one segmentation to the other.

    Both full end lists take part, terminal included, so the distance is 0
    exactly when the segmentations are identical.
    """
    _check_same_length(left, right)
    a = np.asarray(left.ends)
    b = np.asarray(right.ends)
    gaps = np.abs(a[:, None] - b[None, :])
    return int(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def rand_index(left: Breakpoints, right: Breakpoints) -> float:
    """Fraction of sample pairs on which the two segmentations agree.

    A pair agrees when both segmentations put it in one segment, or both
    split it.  Computed from segment overlap counts in O(K1 * K2) with exact
    integer arithmetic; a single-sample signal has no pairs and scores 1.
    """
    _check_same_length(left, right)
    n = left.n_samples
    if n < 2:
        return 1.0

    def pairs(x: int) -> int:
        return x * (x - 1) // 2

    overlap_pairs = 0
    for a_start, a_end in left.segments():
        for b_start, b_end in right.segments():
            overlap = min(a_end, b_end) - max(a_start, b_start)
            if overlap > 1:
                overlap_pairs += pairs(overlap)
    same_left = sum(pairs(e - s) for s, e in left.segments())
    same_right = sum(pairs(e - s) for s, e in right.segments())
    total = pairs(n)
    agreements = total - same_left - same_right + 2 * overlap_pairs
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
    index.  Terminal ends never take part.  Two empty segmentations score
    (1, 1) by convention; empty against non-empty scores (0, 0).  margin is
    a finite number >= 0, else BadParamError.
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
    return PrecisionRecall(
        precision=hits / max(1, len(pred_ends)),
        recall=hits / max(1, len(true_ends)),
        true_positives=hits,
    )
