"""Search engines minimizing the total segmentation cost.

All engines share one candidate convention: internal segment ends live on the
grid {jump, 2*jump, ...} intersected with [min_size, T - min_size], every
segment is at least min_size samples long, and T itself is always admissible
as the terminal end.  min_size is silently raised to the fitted cost's own
minimum segment length.

dynp() is exact for a fixed number of change points (full dynamic program);
pelt() is exact for a linear penalty and prunes candidates that can never win
again; binseg(), bottomup() and window() are greedy approximations that
accept any of the three stopping rules; solve_budget() finds the fewest
change points whose optimal cost fits a budget by growing the dynp table.
binseg() and window() add change points as lazy moves that one loop,
_add_greedily(), takes under the stopping rule; bottomup() removes them
with its own loop, since its penalty and budget tests point the other way.

Only dynp and solve_budget keep a dense grid x grid segment-cost matrix,
cached on the fitted cost per (min_size, jump) together with the dynp value
table (values and integer backpointers per change count), which is extended
under a lock instead of recomputed.  The other engines hold O(grid) state:
they read dynp's matrix when dynp has already run on the same fitted cost
and grid (window for each segment whose ends are both grid positions), and
otherwise evaluate costs on demand, memoized only within one call, so
repeating a pelt or greedy search pays its evaluations again.  Each engine
counts the costs it evaluates, so n_cost_evals omits other threads' work.
Ties are always broken toward the smallest change point indices.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass

import numpy as np

from .core import DetectionResult, _checked_int, _checked_real, _total, validate_breakpoints
from .costs import _check_dense
from .exceptions import (
    BadParamError,
    BudgetUnreachableError,
    InfeasibleError,
    WindowTooLargeError,
)


@dataclass(frozen=True)
class StoppingRule:
    """Exactly one of n_bkps (fixed count), penalty (per-change cost), or
    budget (total cost ceiling) must be set: n_bkps an integer >= 0, stored
    as int, or penalty or budget a finite number >= 0, stored as float.
    Anything else raises BadParamError."""

    n_bkps: int | None = None
    penalty: float | None = None
    budget: float | None = None

    def __post_init__(self):
        given = [
            name for name in ("n_bkps", "penalty", "budget") if getattr(self, name) is not None
        ]
        if len(given) != 1:
            raise BadParamError(
                f"exactly one stopping rule must be set, got {given or 'none'}"
            )
        name = given[0]
        value = getattr(self, name)
        value = _checked_int(name, value, 0) if name == "n_bkps" else _checked_real(name, value)
        object.__setattr__(self, name, value)

    @property
    def kind(self) -> str:
        if self.n_bkps is not None:
            return "n_bkps"
        if self.penalty is not None:
            return "penalty"
        return "budget"

    @property
    def value(self):
        return getattr(self, self.kind)


@dataclass(frozen=True)
class SearchConfig:
    """Grid constraints shared by all engines.

    min_size is the smallest admissible segment length, jump the subsampling
    step for candidate ends (integers >= 1), window_width the sliding-window
    width (an integer >= 2; only the window engine reads it, and it must be
    set there).  Each is stored as int; anything else raises BadParamError.
    """

    min_size: int = 1
    jump: int = 1
    window_width: int | None = None

    def __post_init__(self):
        for name in ("min_size", "jump"):
            object.__setattr__(self, name, _checked_int(name, getattr(self, name), 1))
        if self.window_width is not None:
            width = _checked_int("window_width", self.window_width, 2)
            object.__setattr__(self, "window_width", width)


def _step(min_size: int, jump: int) -> int:
    """The grid's first end, the smallest multiple of jump >= min_size; packing
    ends from the left, each min_size past the last, picks its multiples."""
    return -(-min_size // jump) * jump


def _grid(n_samples: int, min_size: int, jump: int) -> list[int]:
    """Admissible internal ends: multiples of jump in [min_size, T - min_size]."""
    return list(range(_step(min_size, jump), n_samples - min_size + 1, jump))


def max_changes(n_samples: int, min_size: int, jump: int) -> int:
    """Largest number of change points placeable under the grid constraints:
    the multiples of _step that leave min_size samples after them."""
    return max(0, (n_samples - min_size) // _step(min_size, jump))


def _prepare(fitted, config):
    cfg = config if config is not None else SearchConfig()
    if not isinstance(cfg, SearchConfig):
        raise BadParamError(f"expected a SearchConfig, got {type(cfg).__name__}")
    min_size = max(cfg.min_size, fitted.min_seg_len)
    jump = cfg.jump
    if fitted.n_samples < min_size:
        raise InfeasibleError(
            f"signal length {fitted.n_samples} below the minimum segment length {min_size}"
        )
    positions = [0] + _grid(fitted.n_samples, min_size, jump) + [fitted.n_samples]
    return cfg, min_size, jump, positions


def _prepare_greedy(fitted, stop, config):
    """_prepare for the engines driven by a StoppingRule, which it checks first."""
    if not isinstance(stop, StoppingRule):
        raise BadParamError(f"expected a StoppingRule, got {type(stop).__name__}")
    return _prepare(fitted, config)


def _result(fitted, ends, contrast, n_cost_evals, n_pruned=0) -> DetectionResult:
    bkps = validate_breakpoints(ends, fitted.n_samples)
    return DetectionResult(bkps, contrast, n_cost_evals, n_pruned)


def _segment_cost(fitted, dense):
    """cost(start, end) for one greedy engine call, and the memo it fills.

    Reads dynp's matrix when `dense` holds one for the caller's grid and both
    ends are positions of that grid; otherwise evaluates through fitted.cost
    once per distinct segment of this call and keeps the value in the memo,
    so len(memo) is the number of costs the call has evaluated.
    """
    memo: dict[tuple[int, int], float] = {}

    def evaluated(start: int, end: int) -> float:
        key = (start, end)
        value = memo.get(key)
        if value is None:
            value = fitted.cost(start, end)
            memo[key] = value
        return value

    if dense is None:
        return evaluated, memo
    index = dense.pos_index
    matrix = dense.matrix

    def cost(start: int, end: int) -> float:
        start_idx = index.get(start)
        end_idx = index.get(end)
        if start_idx is None or end_idx is None:
            return evaluated(start, end)
        return float(matrix[end_idx, start_idx])

    return cost, memo


def _dense(fitted, min_size, jump):
    """dynp's state for this grid if dynp has run on this fitted cost, else None."""
    return fitted._search_state.get(("dynp", min_size, jump))


class _DynpState:
    """Dense segment-cost matrix and value table of the dynamic program.

    matrix[e, s] is the cost of [positions[s], positions[e]), +inf where the
    segment is shorter than min_size; one row per end, so a layer's argmin
    runs along contiguous memory.  layers[k][i] is the best cost of
    cutting [0, positions[i]) into k + 1 segments and back[k - 1][i] the grid
    index of that cut's last internal end.  rank orders the newest layer's
    end tuples lexicographically (equal tuples share a rank), so an exact tie
    goes to the smallest (rank[s], s), which is the smallest end tuple.  All
    are retained across calls so a repeat or a smaller k costs nothing, and
    the other engines read the matrix instead of evaluating again.  n_evals
    is the number of costs the fill evaluated."""

    def __init__(self, fitted, min_size: int, positions: list[int]):
        count = len(positions)
        _check_dense(count, "dynp's cost matrix (a larger jump thins the grid)")
        self.positions = positions
        self.pos_index = {pos: i for i, pos in enumerate(positions)}
        self.matrix = np.full((count, count), np.inf)
        cost = fitted.cost
        self.n_evals = 0
        for i, start in enumerate(positions):
            lo = bisect.bisect_left(positions, start + min_size)
            self.matrix[lo:, i] = [cost(start, end) for end in positions[lo:]]
            self.n_evals += count - lo
        # 0.0 + cost, as a left-to-right sum starts, so layer values are
        # bitwise the contrast of their end tuples
        self.layers = [0.0 + self.matrix[:, 0]]
        self.back: list[np.ndarray] = []
        self.rank = np.zeros(count, dtype=np.int64)

    def _extend_to(self, n_layers: int) -> None:
        index = np.arange(len(self.positions))
        while len(self.layers) <= n_layers:
            # starts in tie-break order; argmin keeps the first minimum
            order = np.lexsort((index, self.rank))
            cand = self.matrix.take(order, axis=1)
            cand += self.layers[-1][order]
            pick = cand.argmin(axis=1)
            self.layers.append(cand[index, pick])
            del cand  # before the next layer allocates its own
            self.back.append(order[pick])
            # a cell's tuple is its start's tuple plus that start, and the
            # starts are sorted by exactly that, so the start's place ranks it
            self.rank = pick

    def solve(self, n_bkps: int) -> tuple[tuple[int, ...], float]:
        self._extend_to(n_bkps)
        idx = len(self.positions) - 1
        contrast = float(self.layers[n_bkps][idx])
        if not np.isfinite(contrast):
            raise InfeasibleError(f"no valid segmentation with {n_bkps} change points")
        ends = [self.positions[idx]]
        for back in reversed(self.back[:n_bkps]):
            idx = back[idx]
            ends.append(self.positions[idx])
        return tuple(ends[::-1]), contrast


def _dynp_state(fitted, min_size, jump, positions) -> tuple[_DynpState, int]:
    """The cached state for this grid, built on first use, and the number of
    costs this call evaluated: the fill's if it built the state, else 0.  The
    caller holds fitted._state_lock, so exactly one call reports the fill."""
    key = ("dynp", min_size, jump)
    state = fitted._search_state.get(key)
    if state is not None:
        return state, 0
    state = fitted._search_state[key] = _DynpState(fitted, min_size, positions)
    return state, state.n_evals


def dynp(fitted, n_bkps: int, config: SearchConfig | None = None) -> DetectionResult:
    """Exact minimum-cost segmentation with a fixed number of change points.

    Solves the full dynamic program over the admissible grid from a dense
    grid x grid cost matrix, one numpy pass per change count, then follows
    integer backpointers.  Matrix and value table are cached on the fitted
    cost, so asking again (or for fewer change points) evaluates no new
    segment costs, and the other engines read the same matrix.  Ties go to
    the lexicographically smallest end sequence, kept as a per-layer rank.
    The whole solve holds the fitted cost's state lock.  n_bkps is an
    integer >= 0, else BadParamError.  Raises InfeasibleError, before any
    cost is evaluated, when n_bkps changes do not fit under the constraints,
    and MemoryBudgetError, before allocating, from the one dense-matrix
    guard (costs._check_dense) when the grid has more than 20,000 positions.
    """
    n_bkps = _checked_int("n_bkps", n_bkps, 0)
    _, min_size, jump, positions = _prepare(fitted, config)
    most = max_changes(fitted.n_samples, min_size, jump)
    if n_bkps > most:
        raise InfeasibleError(f"{n_bkps} change points do not fit: the grid admits at most {most}")
    with fitted._state_lock:
        state, n_evals = _dynp_state(fitted, min_size, jump, positions)
        ends, contrast = state.solve(n_bkps)
    return _result(fitted, ends, contrast, n_evals)


def solve_budget(fitted, budget: float, config: SearchConfig | None = None) -> DetectionResult:
    """Fewest change points whose exact optimal cost is at most `budget`.

    Grows the dynp table one change count at a time under its lock, so the
    work is shared with any earlier or later dynp call, and refuses large
    grids the same way.  Raises BudgetUnreachableError when even the largest
    feasible number of change points stays above the budget.
    """
    budget = _checked_real("budget", budget)
    _, min_size, jump, positions = _prepare(fitted, config)
    most = max_changes(fitted.n_samples, min_size, jump)
    with fitted._state_lock:
        state, n_evals = _dynp_state(fitted, min_size, jump, positions)
        contrast = np.inf
        for k in range(most + 1):
            ends, contrast = state.solve(k)
            if contrast <= budget:
                return _result(fitted, ends, contrast, n_evals)
    raise BudgetUnreachableError(
        f"optimal cost {contrast} with {most} change points still exceeds budget {budget}"
    )


def _path_indices(parent, idx) -> list[int]:
    """Grid indices of the internal and final ends encoded by the parent chain."""
    out = []
    while idx > 0:
        out.append(idx)
        idx = parent[idx]
    out.reverse()
    return out


def pelt(fitted, penalty: float, config: SearchConfig | None = None) -> DetectionResult:
    """Exact linearly penalized segmentation with candidate pruning.

    Minimizes total cost plus penalty per segment via F(t) = min over s of
    F(s) + c(s, t) + penalty.  A candidate with F(s) + c(s, t) > F(t) can
    never win again once t itself is old enough to act as a split, so it is
    dropped when the endpoint reaches t + min_size; dropping it at t
    directly would lose exactness for min_size > 1.  Superadditivity of the
    shipped costs is what makes the rule safe; fitting a CostSpec with
    superadditive=False disables pruning (n_pruned stays 0).

    State is O(grid): live candidates, values, parents and the cost of each
    end's last segment.  Segment costs come from dynp's matrix when dynp has
    run on this fitted cost with the same grid; otherwise each live
    (candidate, end) pair is evaluated once, so a repeated call pays again.
    """
    penalty = _checked_real("penalty", penalty)
    _, min_size, jump, positions = _prepare(fitted, config)
    dense = _dense(fitted, min_size, jump)
    cost = fitted.cost
    count = len(positions)
    values = np.full(count, np.inf)
    values[0] = 0.0
    parent = np.full(count, -1, dtype=np.int64)
    last_cost = np.zeros(count)
    doomed_from = np.full(count, np.inf)
    candidates = np.empty(0, dtype=np.int64)
    next_admission = 0
    n_evals = 0
    n_pruned = 0
    prune = fitted.spec.superadditive
    for end_idx in range(1, count):
        end_pos = positions[end_idx]
        admitted = next_admission
        while next_admission < count and positions[next_admission] + min_size <= end_pos:
            next_admission += 1
        if next_admission > admitted:
            candidates = np.concatenate((candidates, np.arange(admitted, next_admission)))
        if prune:
            live = doomed_from[candidates] > end_pos
            n_pruned += len(candidates) - int(np.count_nonzero(live))
            candidates = candidates[live]
        if dense is not None:
            seg_costs = dense.matrix[end_idx, candidates]
        else:
            seg_costs = np.array([cost(positions[s], end_pos) for s in candidates.tolist()])
            n_evals += len(candidates)
        fits = values[candidates] + seg_costs
        totals = fits + penalty
        pick = int(np.argmin(totals))
        best_value = totals[pick]
        ties = np.flatnonzero(totals == best_value)
        if len(ties) > 1:
            # exact tie: keep the lexicographically smaller end sequence, as
            # grid indices, which are ordered like their positions; the shared
            # end must take part, else a path that is a prefix of another
            # would win even when its next end comes later
            pick = min(ties.tolist(), key=lambda j: _path_indices(parent, candidates[j]) + [end_idx])
        values[end_idx] = best_value
        parent[end_idx] = candidates[pick]
        last_cost[end_idx] = seg_costs[pick]
        if prune:
            doomed = (fits > best_value) & np.isinf(doomed_from[candidates])
            doomed_from[candidates[doomed]] = end_pos + min_size
    path = _path_indices(parent, count - 1)
    ends = tuple(positions[i] for i in path)
    contrast = 0.0
    for idx in path:
        contrast += float(last_cost[idx])
    return _result(fitted, ends, contrast, n_evals, n_pruned=n_pruned)


def _add_greedily(fitted, stop, moves, cost, memo) -> DetectionResult:
    """Take a greedy engine's lazy (score, end) moves, best first, until the
    stopping rule holds; the one reader of the rule for binseg and window.

    n_bkps takes that many moves, penalty stops at the first move scoring at
    or below it, budget takes moves while the total cost is above it; moves
    running out first raise InfeasibleError or BudgetUnreachableError.  Only
    the moves the rule pulls are evaluated.
    """
    ends = [fitted.n_samples]
    if stop.kind == "n_bkps":
        for taken in range(stop.n_bkps):
            move = next(moves, None)
            if move is None:
                raise InfeasibleError(f"{stop.n_bkps} change points requested, {taken} placeable")
            bisect.insort(ends, move[1])
    elif stop.kind == "penalty":
        for score, end in moves:
            if score <= stop.penalty:
                break
            bisect.insort(ends, end)
    else:
        while (total := _total(cost, ends)) > stop.budget:
            move = next(moves, None)
            if move is None:
                raise BudgetUnreachableError(f"total cost {total} above budget {stop.budget}")
            bisect.insort(ends, move[1])
    return _result(fitted, ends, _total(cost, ends), len(memo))


def binseg(fitted, stop: StoppingRule, config: SearchConfig | None = None) -> DetectionResult:
    """Greedy top-down splitting: always take the split with the largest gain.

    The gain of splitting [a, b) at s is c(a, b) - c(a, s) - c(s, b).  Each
    unsplit segment's best split is computed once and cached.  The splits
    are moves for _add_greedily: it stops after n_bkps splits, at the first
    best gain at or below the penalty, or once the total cost fits the
    budget.  Ties go to the smallest split index.
    """
    _, min_size, jump, positions = _prepare_greedy(fitted, stop, config)
    cost, memo = _segment_cost(fitted, _dense(fitted, min_size, jump))
    ends_idx = [len(positions) - 1]
    best_split: dict[tuple[int, int], tuple[float, int] | None] = {}

    def segment_best(a_idx: int, b_idx: int):
        key = (a_idx, b_idx)
        if key in best_split:
            return best_split[key]
        lo = bisect.bisect_left(positions, positions[a_idx] + min_size)
        hi = bisect.bisect_right(positions, positions[b_idx] - min_size)
        found = None
        if lo < hi:
            a, b = positions[a_idx], positions[b_idx]
            base = cost(a, b)
            for s in range(lo, hi):
                gain = base - (cost(a, positions[s]) + cost(positions[s], b))
                if found is None or gain > found[0]:
                    found = (gain, s)
        best_split[key] = found
        return found

    def moves():
        while True:
            chosen = None
            start_idx = 0
            for end_idx in ends_idx:
                info = segment_best(start_idx, end_idx)
                if info is not None and (chosen is None or info[0] > chosen[0]):
                    chosen = info
                start_idx = end_idx
            if chosen is None:
                return
            yield chosen[0], positions[chosen[1]]
            bisect.insort(ends_idx, chosen[1])

    return _add_greedily(fitted, stop, moves(), cost, memo)


def bottomup(fitted, stop: StoppingRule, config: SearchConfig | None = None) -> DetectionResult:
    """Greedy bottom-up merging from the finest admissible grid.

    Starts from the densest valid set of internal ends and repeatedly deletes
    the end whose removal raises the total cost least (smallest index on a
    tie).  Stops when n_bkps ends remain, when the smallest merge penalty
    exceeds the penalty value, or just before the total cost would exceed the
    budget.  The merge deltas sit in a min-heap; a merge re-prices only the
    two neighbouring ends, so a step costs O(log grid) instead of a rescan.
    """
    _, min_size, jump, positions = _prepare_greedy(fitted, stop, config)
    cost, memo = _segment_cost(fitted, _dense(fitted, min_size, jump))
    terminal = len(positions) - 1
    # the finest valid ends, the multiples of _step: every stride-th grid index
    stride = _step(min_size, jump) // jump
    count = max_changes(fitted.n_samples, min_size, jump)
    internal = list(range(1, 1 + count * stride, stride))
    if stop.kind == "n_bkps" and stop.n_bkps > len(internal):
        raise InfeasibleError(
            f"{stop.n_bkps} change points requested but the finest grid has {len(internal)}"
        )
    # merge deltas keyed (delta, grid index, left, right): the heap's top is
    # the cheapest merge with the smallest index on a tie; an entry whose end
    # is gone or has other neighbours by now is dropped when it surfaces
    heap: list[tuple[float, int, int, int]] = []
    # ends whose current merge delta is not on the heap yet; they are
    # evaluated at the next pick, as a rescan of every end would
    unpriced = set(internal)

    def neighbours(where: int) -> tuple[int, int]:
        left = internal[where - 1] if where > 0 else 0
        right = internal[where + 1] if where + 1 < len(internal) else terminal
        return left, right

    def cheapest() -> tuple[float, int]:
        for mid in unpriced:
            left, right = neighbours(bisect.bisect_left(internal, mid))
            a, m, b = positions[left], positions[mid], positions[right]
            heapq.heappush(heap, (cost(a, b) - (cost(a, m) + cost(m, b)), mid, left, right))
        unpriced.clear()
        while True:
            delta, mid, left, right = heap[0]
            where = bisect.bisect_left(internal, mid)
            if where < len(internal) and internal[where] == mid and neighbours(where) == (left, right):
                return delta, where
            heapq.heappop(heap)

    def merge(where: int) -> None:
        heapq.heappop(heap)
        # the two neighbours now merge across a longer segment
        unpriced.update(internal[max(where - 1, 0) : where + 2])
        unpriced.discard(internal.pop(where))

    if stop.kind == "n_bkps":
        while len(internal) > stop.n_bkps:
            _, where = cheapest()
            merge(where)
    elif stop.kind == "penalty":
        while internal:
            delta, where = cheapest()
            if delta > stop.penalty:
                break
            merge(where)
    else:
        # every segment here is one a merge delta or the contrast evaluates
        ends = [positions[i] for i in [0, *internal, terminal]]
        seg_costs = np.array([cost(a, b) for a, b in zip(ends, ends[1:])])
        while internal:
            _, where = cheapest()
            left, right = neighbours(where)
            merged = cost(positions[left], positions[right])
            trial = np.concatenate((seg_costs[:where], [merged], seg_costs[where + 2 :]))
            # np.cumsum adds left to right, so this is _total of the trial ends
            if np.cumsum(trial)[-1] > stop.budget:
                break
            seg_costs = trial
            merge(where)
    ends = tuple(positions[i] for i in internal) + (positions[terminal],)
    contrast = _total(cost, ends)
    return _result(fitted, ends, contrast, len(memo))


def window(fitted, stop: StoppingRule, config: SearchConfig | None = None) -> DetectionResult:
    """Sliding-window discrepancy: score each admissible t by how much a cut
    at t improves the cost of the window around it.

    Z(t) = c(t - w/2, t + w/2) - c(t - w/2, t) - c(t, t + w/2) over grid
    points with a half window on both sides.  Candidate change points are the
    local maxima of Z (plateaus keep their leftmost point).  In decreasing
    score order (smallest t on a tie), the peaks at least min_size away from
    every earlier pick are moves for _add_greedily: it stops after n_bkps
    peaks, at the first score at or below the penalty, or once the total
    cost fits the budget.  After dynp on the same fitted cost and grid, a
    segment whose ends are both grid positions is read from its matrix.
    Requires config.window_width; raises WindowTooLargeError when it exceeds
    the signal.
    """
    cfg, min_size, jump, _ = _prepare_greedy(fitted, stop, config)
    n_samples = fitted.n_samples
    width = cfg.window_width
    if width is None:
        raise BadParamError("window_width must be set for the window engine")
    if width > n_samples:
        raise WindowTooLargeError(f"window_width {width} exceeds signal length {n_samples}")
    if width < 2 * min_size:
        raise BadParamError(
            f"window_width {width} below twice the minimum segment length {min_size}"
        )
    half = width // 2
    seg_cost, memo = _segment_cost(fitted, _dense(fitted, min_size, jump))
    grid = _grid(n_samples, half, jump)
    scores = [
        seg_cost(t - half, t + half) - seg_cost(t - half, t) - seg_cost(t, t + half)
        for t in grid
    ]

    # local maxima with plateaus collapsing to their leftmost point
    peaks: list[tuple[int, float]] = []
    i = 0
    while i < len(grid):
        k = i
        while k + 1 < len(grid) and scores[k + 1] == scores[i]:
            k += 1
        left = scores[i - 1] if i > 0 else -np.inf
        right = scores[k + 1] if k + 1 < len(grid) else -np.inf
        if scores[i] > left and scores[i] > right:
            peaks.append((grid[i], scores[i]))
        i = k + 1
    ranked = sorted(peaks, key=lambda item: (-item[1], item[0]))

    def moves():
        chosen: list[int] = []
        for t, score in ranked:
            if all(abs(t - u) >= min_size for u in chosen):
                chosen.append(t)
                yield score, t

    return _add_greedily(fitted, stop, moves(), seg_cost, memo)
