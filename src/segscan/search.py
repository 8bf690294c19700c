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
in one loop of its own, since its penalty and budget tests point the other
way.

Only dynp and solve_budget keep a dense grid x grid segment-cost matrix,
cached on the fitted cost per (min_size, jump) together with the dynp value
table (values and integer backpointers per change count), which is extended
under a lock instead of recomputed.  The other engines hold O(grid) state:
they read dynp's matrix when dynp has already run on the same fitted cost
and grid (window for each segment whose ends are both grid positions), and
otherwise evaluate costs on demand; a greedy call memoizes them in its own
functools.cache, so repeating a pelt or greedy search pays its evaluations
again.  On monotone costs, every family but normal, pelt evaluates only the
candidates its heap of lower bounds, their last costs, leaves a chance to win.
Each engine counts the costs it evaluates (a greedy call its cache's
currsize), so n_cost_evals omits other threads' work.
Ties are always broken toward the smallest change point indices.

Before an engine reads a cost, _prepare names its grid ends, every position
but 0, to the fitted cost (FittedCost._cover); window names them in the same
call as its windows' right ends.  A start needs no naming.  The rbf kernel
builds its integral image there, over the ends named so far, so its image
build counts in the engine's time, not in fit's; the other families ignore
the call.
"""

from __future__ import annotations

import bisect
import functools
import heapq
from dataclasses import dataclass

import numpy as np

from .core import DetectionResult, _checked_int, _checked_real, _total, validate_breakpoints
from .costs import _band_rows, _check_dense
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


# _prepare's stop for the engines that no StoppingRule drives
_NO_RULE = object()


def _prepare(fitted, config, stop=_NO_RULE, cover=True):
    """The prologue every engine shares: stop checked first when the engine
    takes a StoppingRule, then the config, the effective min_size and jump,
    the grid positions with 0 and T, all but 0 named to the fitted cost's
    _cover (unless cover is False: window names them together with its own
    ends), and dynp's state for that grid if dynp has run on this fitted
    cost, else None."""
    if stop is not _NO_RULE and not isinstance(stop, StoppingRule):
        raise BadParamError(f"expected a StoppingRule, got {type(stop).__name__}")
    cfg = config if config is not None else SearchConfig()
    if not isinstance(cfg, SearchConfig):
        raise BadParamError(f"expected a SearchConfig, got {type(cfg).__name__}")
    min_size = max(cfg.min_size, fitted.min_seg_len)
    jump = cfg.jump
    if fitted.n_samples < min_size:
        raise InfeasibleError(
            f"signal length {fitted.n_samples} below the minimum segment length {min_size}"
        )
    ends = _grid(fitted.n_samples, min_size, jump) + [fitted.n_samples]
    if cover:
        fitted._cover(ends)
    positions = [0, *ends]
    dense = fitted._search_state.get(("dynp", min_size, jump))
    return cfg, min_size, jump, positions, dense


def _result(fitted, ends, contrast, n_cost_evals, n_pruned=0) -> DetectionResult:
    bkps = validate_breakpoints(ends, fitted.n_samples)
    return DetectionResult(bkps, contrast, n_cost_evals, n_pruned)


def _segment_cost(fitted, dense):
    """cost(start, end) for one greedy engine call, and the functools.cache
    behind it.

    Reads dynp's matrix when `dense` holds one for the caller's grid and both
    ends are positions of that grid; otherwise evaluates through fitted.cost
    once per distinct segment of this call, so the cache's currsize is the
    number of costs the call has evaluated.
    """
    evaluated = functools.cache(fitted.cost)
    if dense is None:
        return evaluated, evaluated
    index = dense.pos_index
    matrix = dense.matrix

    def cost(start: int, end: int) -> float:
        start_idx = index.get(start)
        end_idx = index.get(end)
        if start_idx is None or end_idx is None:
            return evaluated(start, end)
        return float(matrix[end_idx, start_idx])

    return cost, evaluated


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
        count = len(self.positions)
        index = np.arange(count)
        step = _band_rows(count)
        while len(self.layers) <= n_layers:
            # starts in tie-break order; argmin keeps the first minimum
            order = np.lexsort((index, self.rank))
            before = self.layers[-1][order]
            pick = np.empty(count, dtype=np.intp)
            layer = np.empty(count)
            # the permuted copy is taken one row band at a time, so it stays
            # band-sized instead of a second matrix
            for lo in range(0, count, step):
                hi = min(count, lo + step)
                cand = self.matrix[lo:hi].take(order, axis=1)
                cand += before
                pick[lo:hi] = cand.argmin(axis=1)
                layer[lo:hi] = cand[index[: hi - lo], pick[lo:hi]]
            self.layers.append(layer)
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
    _, min_size, jump, positions, _ = _prepare(fitted, config)
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
    _, min_size, jump, positions, _ = _prepare(fitted, config)
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


def _first_tuple(parent, depth, tied) -> tuple:
    """The entry of `tied`, (candidate, ...) tuples in index order, whose end
    tuple (parent chain, then the shared end) is smallest: the smaller child
    below the chains' lowest common ancestor, or the descendant if one is
    the other's ancestor.  It walks the chains there and builds no path."""
    win = tied[0]
    for entry in tied[1:]:
        a, b = win[0], entry[0]
        b_first = depth[b] > depth[a]
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b and parent[a] != parent[b]:
            a, b = parent[a], parent[b]
        if b_first if a == b else b < a:
            win = entry
    return win


def _pelt_scan(fitted, dense, penalty, min_size, positions):
    """pelt's step over every live candidate at once, for the two cases that
    read them all: dynp's matrix, and normal, whose costs bound nothing.
    Returns each end's parent and last segment cost, n_evals and n_pruned."""
    count = len(positions)
    values = np.full(count, np.inf)
    values[0] = 0.0
    parent, depth, last_cost = [0] * count, [0] * count, [0.0] * count
    doomed_from = np.full(count, np.inf)
    candidates = np.empty(0, dtype=np.int64)
    next_admission = n_evals = n_pruned = 0
    for end_idx in range(1, count):
        end_pos = positions[end_idx]
        admitted = next_admission
        next_admission = bisect.bisect_right(positions, end_pos - min_size)
        if next_admission > admitted:
            candidates = np.concatenate((candidates, np.arange(admitted, next_admission)))
        live = doomed_from[candidates] > end_pos
        n_pruned += len(candidates) - int(np.count_nonzero(live))
        candidates = candidates[live]
        if dense is not None:
            seg_costs = dense.matrix[end_idx, candidates]
        else:
            seg_costs = np.array([fitted.cost(positions[s], end_pos) for s in candidates.tolist()])
            n_evals += len(candidates)
        fits = values[candidates] + seg_costs
        totals = fits + penalty
        pick = int(totals.argmin())
        best = totals[pick]
        tied = (totals == best).nonzero()[0]
        if len(tied) > 1:
            pick = _first_tuple(parent, depth, [*zip(candidates[tied].tolist(), tied)])[1]
        winner = int(candidates[pick])
        values[end_idx], last_cost[end_idx] = best, float(seg_costs[pick])
        parent[end_idx], depth[end_idx] = winner, depth[winner] + 1
        doomed = (fits > best) & np.isinf(doomed_from[candidates])
        doomed_from[candidates[doomed]] = end_pos + min_size
    return parent, last_cost, n_evals, n_pruned


def _pelt_heap(fitted, dense, penalty, min_size, positions):
    """pelt's step on monotone costs without dynp's matrix (dense is None),
    in work proportional to the candidates it evaluates; it returns what
    _pelt_scan does.  The heap holds one (key, grid index) entry per live
    candidate: -inf while it is fresh, then its exact total at the last end
    it was evaluated at, F(s) + c(s, t') + penalty, which bounds its total
    at any later end from below."""
    cost, push, pop, inf = fitted.cost, heapq.heappush, heapq.heappop, np.inf
    count = len(positions)
    values, doomed_from, heap = [0.0] * count, [inf] * count, []
    parent, depth, last_cost = [0] * count, [0] * count, [0.0] * count
    admitted = n_evals = n_pruned = 0
    for end_idx in range(1, count):
        end_pos = positions[end_idx]
        while positions[admitted] <= end_pos - min_size:
            push(heap, (-inf, admitted))
            admitted += 1
        best, ties, done = inf, [], []
        # at most: a bound landing exactly on the best total joins the tie-break
        while heap and heap[0][0] <= best:
            s = pop(heap)[1]
            if doomed_from[s] <= end_pos:
                n_pruned += 1
                continue
            seg_cost = cost(positions[s], end_pos)
            fit = values[s] + seg_cost
            total = fit + penalty
            done.append((fit, total, s))
            if total <= best:
                if total < best:
                    best, ties = total, []
                ties.append((s, seg_cost))
        n_evals += len(done)
        winner, last_cost[end_idx] = _first_tuple(parent, depth, sorted(ties))
        values[end_idx] = best
        parent[end_idx], depth[end_idx] = winner, depth[winner] + 1
        for fit, total, s in done:
            if fit > best and doomed_from[s] == inf:
                doomed_from[s] = end_pos + min_size
            push(heap, (total, s))
    return parent, last_cost, n_evals, n_pruned


def pelt(fitted, penalty: float, config: SearchConfig | None = None) -> DetectionResult:
    """Exact linearly penalized segmentation with candidate pruning.

    Minimizes total cost plus penalty per segment via F(t) = min over s of
    F(s) + c(s, t) + penalty.  A candidate with F(s) + c(s, t) > F(t) can
    never win again once t itself is old enough to act as a split, so it is
    dropped when the endpoint reaches t + min_size; dropping it at t
    directly would lose exactness for min_size > 1.  The rule is safe
    because every cost family is superadditive (test_costs_are_superadditive
    checks it), so pelt always prunes.

    State is O(grid).  Without dynp's matrix, on the monotone families (all
    but normal), a candidate's last evaluated cost bounds its later costs
    from below, and pelt evaluates only the candidates a heap of those
    bounds leaves a chance to win (_pelt_heap); it prunes lazily there,
    n_pruned counting the doomed candidates popped from t + min_size on.
    dynp's matrix and normal read every live candidate at each end in one
    numpy step (_pelt_scan).  Values, argmin and ties are bitwise those of
    evaluating every live candidate; an exact tie goes to the smallest end
    tuple.  A repeated call pays its evaluations again.
    """
    penalty = _checked_real("penalty", penalty)
    _, min_size, jump, positions, dense = _prepare(fitted, config)
    step = _pelt_heap if dense is None and fitted.monotone else _pelt_scan
    parent, last_cost, n_evals, n_pruned = step(fitted, dense, penalty, min_size, positions)
    path = _path_indices(parent, len(positions) - 1)
    ends = tuple(positions[i] for i in path)
    contrast = 0.0
    for idx in path:
        contrast += last_cost[idx]
    return _result(fitted, ends, contrast, n_evals, n_pruned=n_pruned)


def _add_greedily(fitted, stop, moves, cost, evaluated) -> DetectionResult:
    """Take a greedy engine's lazy (score, end) moves, best first, until the
    stopping rule holds; the one reader of the rule for binseg and window.
    moves(ends) reads ends, the sorted list of T and every end taken so far.

    n_bkps takes that many moves, penalty stops at the first move scoring at
    or below it, budget takes moves while the total cost is above it; moves
    running out first raise InfeasibleError or BudgetUnreachableError.  Only
    the moves the rule pulls are evaluated.
    """
    ends = [fitted.n_samples]
    moves = moves(ends)
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
    return _result(fitted, ends, _total(cost, ends), evaluated.cache_info().currsize)


def binseg(fitted, stop: StoppingRule, config: SearchConfig | None = None) -> DetectionResult:
    """Greedy top-down splitting: always take the split with the largest gain.

    The gain of splitting [a, b) at s is c(a, b) - c(a, s) - c(s, b).  Each
    unsplit segment's best split is computed once and cached.  The splits
    are moves for _add_greedily: it stops after n_bkps splits, at the first
    best gain at or below the penalty, or once the total cost fits the
    budget.  Ties go to the smallest split index.
    """
    _, min_size, jump, positions, dense = _prepare(fitted, config, stop)
    cost, evaluated = _segment_cost(fitted, dense)

    @functools.cache
    def segment_best(a: int, b: int):
        lo = bisect.bisect_left(positions, a + min_size)
        hi = bisect.bisect_right(positions, b - min_size)
        found = None
        if lo < hi:
            base = cost(a, b)
            for s in positions[lo:hi]:
                gain = base - (cost(a, s) + cost(s, b))
                if found is None or gain > found[0]:
                    found = (gain, s)
        return found

    def moves(ends):
        while True:
            chosen = None
            start = 0
            for end in ends:
                info = segment_best(start, end)
                if info is not None and (chosen is None or info[0] > chosen[0]):
                    chosen = info
                start = end
            if chosen is None:
                return
            yield chosen

    return _add_greedily(fitted, stop, moves, cost, evaluated)


def bottomup(fitted, stop: StoppingRule, config: SearchConfig | None = None) -> DetectionResult:
    """Greedy bottom-up merging from the finest admissible grid.

    Starts from the densest valid set of internal ends and repeatedly deletes
    the end whose removal raises the total cost least (smallest index on a
    tie).  Stops when n_bkps ends remain, when the smallest merge penalty
    exceeds the penalty value, or just before the total cost would exceed the
    budget.  The merge deltas sit in one array aligned with the ends; a merge
    re-prices only the two neighbouring ends, so a step is one argmin plus
    an O(grid) shift that closes the gap.
    """
    _, min_size, jump, positions, dense = _prepare(fitted, config, stop)
    cost, evaluated = _segment_cost(fitted, dense)
    kind = stop.kind
    terminal = len(positions) - 1
    # the finest valid ends, the multiples of _step: every stride-th grid index
    stride = _step(min_size, jump) // jump
    count = max_changes(fitted.n_samples, min_size, jump)
    internal = list(range(1, 1 + count * stride, stride))
    if kind == "n_bkps" and stop.n_bkps > len(internal):
        raise InfeasibleError(
            f"{stop.n_bkps} change points requested but the finest grid has {len(internal)}"
        )
    # deltas[i] is the merge delta of internal[i]; argmin keeps the first
    # minimum, the smallest end on a tie.  The ends in unpriced are evaluated
    # at the next pick, as a rescan of every end would
    deltas = np.empty(len(internal))
    unpriced = range(len(internal))

    def neighbours(where: int) -> tuple[int, int]:
        left = internal[where - 1] if where > 0 else 0
        right = internal[where + 1] if where + 1 < len(internal) else terminal
        return left, right

    if kind == "budget":
        # every segment here is one a merge delta or the contrast evaluates
        ends = [positions[i] for i in [0, *internal, terminal]]
        seg_costs = np.array([cost(a, b) for a, b in zip(ends, ends[1:])])
    while internal and (kind != "n_bkps" or len(internal) > stop.n_bkps):
        for i in unpriced:
            left, right = neighbours(i)
            a, m, b = positions[left], positions[internal[i]], positions[right]
            deltas[i] = cost(a, b) - (cost(a, m) + cost(m, b))
        where = int(deltas.argmin())
        if kind == "penalty" and deltas[where] > stop.penalty:
            break
        if kind == "budget":
            left, right = neighbours(where)
            merged = cost(positions[left], positions[right])
            trial = np.concatenate((seg_costs[:where], [merged], seg_costs[where + 2 :]))
            # np.cumsum adds left to right, so this is _total of the trial ends
            if np.cumsum(trial)[-1] > stop.budget:
                break
            seg_costs = trial
        del internal[where]
        deltas[where:-1] = deltas[where + 1 :]
        deltas = deltas[:-1]
        # the two neighbours now merge across a longer segment
        unpriced = range(max(where - 1, 0), min(where + 1, len(internal)))
    ends = tuple(positions[i] for i in internal) + (positions[terminal],)
    contrast = _total(cost, ends)
    return _result(fitted, ends, contrast, evaluated.cache_info().currsize)


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
    cfg, min_size, jump, positions, dense = _prepare(fitted, config, stop, cover=False)
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
    seg_cost, evaluated = _segment_cost(fitted, dense)
    grid = _grid(n_samples, half, jump)
    # one image over the grid and the windows' right ends, which lie off the
    # grid unless jump divides half
    fitted._cover(positions[1:] + [t + half for t in grid])
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

    def moves(ends):
        # T is at least half >= min_size past every peak
        for t, score in ranked:
            if all(abs(t - u) >= min_size for u in ends):
                yield score, t

    return _add_greedily(fitted, stop, moves, seg_cost, evaluated)
