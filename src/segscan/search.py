"""Search engines minimizing the total segmentation cost.

All engines share one candidate convention: internal segment ends live on the
grid {jump, 2*jump, ...} intersected with [min_size, T - min_size], every
segment is at least min_size samples long, and T itself is always admissible
as the terminal end.  min_size is silently raised to the fitted cost's own
minimum segment length.

dynp() is exact for a fixed number of change points (full dynamic program);
pelt() is exact for a linear penalty, pruning candidates that can never win
again where it evaluates costs; binseg(), bottomup() and window() are
greedy approximations that accept any of the three stopping rules;
solve_budget() finds the fewest change points whose optimal cost fits a
budget by growing the dynp table.
Every engine's stopping argument is one StoppingRule, checked in the one
prologue, _prepare, with the config: dynp, pelt and solve_budget wrap
their scalar in one.  There an n_bkps above max_changes is refused with
InfeasibleError before any cost is evaluated.
binseg() and window() add change points as lazy moves that one loop,
_add_greedily(), takes under the stopping rule; bottomup() removes them
in one loop of its own, since its penalty and budget tests point the other
way.

Every engine call reads segment costs through the one _Reader that
_prepare returns.  It names the grid's ends, every position but 0, to the
fitted cost's _cover in one call, together with any ends the engine adds
(window's right ends); a start needs no naming.  The rbf kernel builds its
integral image there, so the build counts in the engine's time, not in
fit's; the other families ignore the call.  The reader answers cost(s, e)
and counts in n_evals the costs it evaluates: the call's n_cost_evals,
which omits other threads' work.  The two loops that evaluate many
segments at once, dynp's fill (every grid start to one grid end, row by
row) and pelt's heap step, call fitted.cost themselves and add to that
count.

Only dynp and solve_budget keep a grid x grid segment-cost matrix, packed
to its lower triangle in row-band blocks as the rbf integral image is
(costs._band_blocks), cached on the fitted cost per (min_size, jump)
together with the dynp value table (values and integer backpointers per
change count), which is extended under a lock instead of recomputed.  Once
it exists, every reader's cost() on that grid reads from it, uncounted,
every segment whose ends are both grid positions, and pelt's row step
reads each end's admitted starts as one slice of a view of the matrix row.
The other engines hold O(grid) state and no memo: each evaluates a
segment at most once per call, and repeating a call pays again.  binseg
keeps two cost rows over the grid, sliced per unsplit segment, and a heap
of each segment's best split; window keeps arrays of its window costs, and
bottomup one list of its current ends and arrays of its segment and
spanning costs.  Without the matrix pelt prunes in one loop, which
evaluates only the candidates its heap of lower bounds leaves a chance to
win: F(s) + penalty until a candidate is first evaluated, then its last
total, each plus the least a segment can cost, 0.0 on monotone costs
(every family but normal) and -inf on normal's, so normal evaluates every
live candidate.  Over the matrix, where reads are free, its row step runs
the unpruned recursion.  Ties are always broken toward the smallest
change point indices.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DetectionResult, _checked_int, _checked_real, _total, validate_breakpoints
from .costs import _band_blocks, _band_rows, _check_dense
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


def _grid(n_samples: int, min_size: int, jump: int) -> range:
    """Admissible internal ends: multiples of jump in [min_size, T - min_size]."""
    return range(_step(min_size, jump), n_samples - min_size + 1, jump)


def max_changes(n_samples: int, min_size: int, jump: int) -> int:
    """Largest number of change points placeable under the grid constraints:
    the multiples of _step that leave min_size samples after them."""
    return max(0, (n_samples - min_size) // _step(min_size, jump))


def _prepare(fitted, config, stop, more=lambda cfg, min_size: []):
    """The prologue every engine shares, the one place its stopping rule is
    checked: the rule first, then the config, then the signal length and
    the ends, any iterable, that more(cfg, min_size) returns.  An n_bkps
    above max_changes raises InfeasibleError before the _Reader is built,
    so before any cost is evaluated or any rbf image built.  Returns the
    config, the effective min_size, max_changes, the grid positions with 0
    and T (one list, built once), and the call's _Reader, which also names
    more's ends."""
    if not isinstance(stop, StoppingRule):
        raise BadParamError(f"expected a StoppingRule, got {type(stop).__name__}")
    cfg = config if config is not None else SearchConfig()
    if not isinstance(cfg, SearchConfig):
        raise BadParamError(f"expected a SearchConfig, got {type(cfg).__name__}")
    min_size = max(cfg.min_size, fitted.min_seg_len)
    if fitted.n_samples < min_size:
        raise InfeasibleError(
            f"signal length {fitted.n_samples} below the minimum segment length {min_size}"
        )
    positions = [0, *_grid(fitted.n_samples, min_size, cfg.jump), fitted.n_samples]
    extra = more(cfg, min_size)
    most = max_changes(fitted.n_samples, min_size, cfg.jump)
    if stop.kind == "n_bkps" and stop.n_bkps > most:
        raise InfeasibleError(
            f"{stop.n_bkps} change points do not fit: the grid admits at most {most}"
        )
    return cfg, min_size, most, positions, _Reader(fitted, min_size, cfg.jump, positions, extra)


class _Reader:
    """One engine call's segment costs: cost() reads dynp's matrix (state,
    looked up once the ends are named), uncounted, where it holds the
    segment, and evaluates through fitted.cost otherwise, counting in
    n_evals.  dynp's fill and pelt's heap step evaluate through fitted.cost
    themselves and add to n_evals; pelt's row step slices state's rows."""

    def __init__(self, fitted, min_size, jump, positions, more):
        fitted._cover(itertools.chain(itertools.islice(positions, 1, None), more))
        self.fitted, self.positions, self.n_evals = fitted, positions, 0
        self.key = ("dynp", min_size, jump)
        self.state = fitted._search_state.get(self.key)

    def cost(self, start: int, end: int) -> float:
        if self.state is not None:
            start_idx, end_idx = map(self.state.pos_index.get, (start, end))
            # a start at or past its end is not in the triangle
            if start_idx is not None and end_idx is not None and start < end:
                return self.state.pieces[end_idx][self.state.base[end_idx] + start_idx]
        self.n_evals += 1
        return self.fitted.cost(start, end)

    def dynp_state(self, min_size: int) -> _DynpState:
        """dynp's state for this grid, filled on first use, its evaluations
        counted in this reader.  The caller holds fitted._state_lock, so one
        call alone fills and counts it."""
        state = self.fitted._search_state.get(self.key)
        if state is None:
            state = self.fitted._search_state[self.key] = _DynpState(self, min_size)
        return state


def _result(reader, ends, contrast, n_pruned=0) -> DetectionResult:
    bkps = validate_breakpoints(ends, reader.fitted.n_samples)
    return DetectionResult(bkps, contrast, reader.n_evals, n_pruned)


class _DynpState:
    """The dynamic program's segment-cost matrix and value table.

    The matrix is the packed lower triangle of costs._band_blocks, the rbf
    integral image's layout with every row kept: row e holds columns 0..e,
    the cost of [positions[s], positions[e]) at column s, +inf where the
    segment is shorter than min_size, and each band of rows is one block as
    wide as its last row, read through rects, or pieces and base for one
    entry.  layers[k][i] is the best cost of cutting [0, positions[i]) into
    k + 1 segments and back[k - 1][i] the grid index of that cut's last
    internal end.  rank orders the newest layer's end tuples
    lexicographically (equal tuples share a rank), so an exact tie goes to
    the smallest (rank[s], s), which is the smallest end tuple.  All are
    retained across calls so a repeat or a smaller k costs nothing, and
    readers read the matrix through pos_index.  The fill evaluates row by
    row through fitted.cost, every start at least min_size before the end,
    and adds its count to the filling call's reader."""

    def __init__(self, reader: _Reader, min_size: int):
        positions = reader.positions
        count = len(positions)
        _check_dense(count, "dynp's cost matrix (a larger jump thins the grid)")
        self.positions = positions
        self.pos_index = {pos: i for i, pos in enumerate(positions)}
        self.index = np.arange(count)
        self.step = _band_rows(count)
        self.bands, _, self.rects, self.pieces, self.base = _band_blocks(count, self.index, np.inf)
        cost = reader.fitted.cost
        for end_idx, end in enumerate(positions):
            hi = bisect.bisect_right(positions, end - min_size)
            reader.n_evals += hi
            self.row(end_idx)[:hi] = [cost(start, end) for start in positions[:hi]]
        # 0.0 + cost, as a left-to-right sum starts, so layer values are
        # bitwise the contrast of their end tuples
        self.layers = [0.0 + np.concatenate([rect[:, 0] for rect in self.rects])]
        self.back: list[np.ndarray] = []
        self.rank = np.zeros(count, dtype=np.intp)

    def row(self, end_idx: int) -> np.ndarray:
        """The matrix's row end_idx, columns 0..end_idx and maybe more +inf, as
        a view."""
        return self.rects[end_idx // self.step][end_idx % self.step]

    def _extend_to(self, n_layers: int) -> None:
        index = self.index
        while len(self.layers) <= n_layers:
            # the permuted copy of one block, reused by every block: a fresh
            # copy per block can cost a fresh mapping and its page faults
            scratch = np.empty(max(rect.size for rect in self.rects))
            # starts in tie-break order; argmin keeps the first minimum
            order = np.lexsort((index, self.rank))
            place = np.empty_like(order)
            place[order] = index
            prev = self.layers[-1]
            layer, back = np.empty(len(index)), np.empty_like(order)
            # block by block, the block's columns in that order: its rows are
            # +inf from column hi on, so a finite row keeps its first minimum.
            # The indices are in range, and mode="clip" spares numpy's
            # buffered copy of out that the default mode makes
            for (lo, hi), rect in zip(self.bands, self.rects):
                cols = order[order < hi] if hi < len(index) else order
                cand = scratch[: rect.size].reshape(rect.shape)
                np.take(rect, cols, axis=1, out=cand, mode="clip")
                cand += prev[cols]
                pick = cand.argmin(axis=1)
                layer[lo:hi] = cand[index[: hi - lo], pick]
                back[lo:hi] = cols[pick]
            self.layers.append(layer)
            self.back.append(back)
            # a cell's tuple is its start's tuple plus that start, and the
            # starts are sorted by exactly that, so the start's place ranks it
            self.rank = place[back]

    def solve(self, n_bkps: int) -> tuple[tuple[int, ...], float]:
        self._extend_to(n_bkps)
        idx = len(self.positions) - 1
        contrast = float(self.layers[n_bkps][idx])
        if not math.isfinite(contrast):
            raise InfeasibleError(f"no valid segmentation with {n_bkps} change points")
        ends = [self.positions[idx]]
        for back in reversed(self.back[:n_bkps]):
            idx = int(back[idx])
            ends.append(self.positions[idx])
        return tuple(ends[::-1]), contrast


def dynp(fitted, n_bkps: int, config: SearchConfig | None = None) -> DetectionResult:
    """Exact minimum-cost segmentation with a fixed number of change points.

    Solves the full dynamic program over the admissible grid from the grid
    x grid cost matrix, packed to its lower triangle, one numpy pass over
    the triangle per change count, then follows integer backpointers.
    Matrix and value table are cached on the fitted cost, so asking again
    (or for fewer change points) evaluates no new segment costs, and the
    other engines read the same matrix.  Ties go to the lexicographically
    smallest end sequence, kept as a per-layer rank.  The whole solve holds
    the fitted cost's state lock.  n_bkps is an integer >= 0, else
    BadParamError.  Raises InfeasibleError from _prepare, before any cost is
    evaluated, when n_bkps exceeds max_changes, and MemoryBudgetError,
    before allocating, from the one dense-matrix guard (costs._check_dense)
    when the grid has more than 20,000 positions.
    """
    stop = StoppingRule(n_bkps=n_bkps)
    _, min_size, _, _, reader = _prepare(fitted, config, stop)
    with fitted._state_lock:
        ends, contrast = reader.dynp_state(min_size).solve(stop.n_bkps)
    return _result(reader, ends, contrast)


def solve_budget(fitted, budget: float, config: SearchConfig | None = None) -> DetectionResult:
    """Fewest change points whose exact optimal cost is at most `budget`.

    Grows the dynp table one change count at a time under its lock, so the
    work is shared with any earlier or later dynp call, and refuses large
    grids the same way.  Raises BudgetUnreachableError when even the largest
    feasible number of change points stays above the budget.
    """
    stop = StoppingRule(budget=budget)
    _, min_size, most, _, reader = _prepare(fitted, config, stop)
    with fitted._state_lock:
        state = reader.dynp_state(min_size)
        contrast = np.inf
        for k in range(most + 1):
            ends, contrast = state.solve(k)
            if contrast <= stop.budget:
                return _result(reader, ends, contrast)
    raise BudgetUnreachableError(
        f"optimal cost {contrast} with {most} change points still exceeds budget {stop.budget}"
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
    """The entry of `tied`, (candidate, ...) tuples of distinct candidates in
    any order, whose end tuple (parent chain, then the shared end) is
    smallest: the smaller child below the chains' lowest common ancestor, or
    the descendant if one is the other's ancestor.  It walks the chains
    there and builds no path."""
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


def _pelt_rows(reader, penalty, min_size):
    """pelt's step over dynp's matrix (reader.state), where a read costs
    nothing and pruning at rounding level would settle ties away from the
    recursion: the unpruned recursion, every admitted start at each end as
    one slice of the matrix row, read uncounted, so the winner is a grid
    index.  Returns what _pelt_heap does, n_pruned 0."""
    positions = reader.positions
    count = len(positions)
    # F(0) = 0; a start is admitted only after its own value is written
    values = np.zeros(count)
    parent, depth, last_cost = [0] * count, [0] * count, [0.0] * count
    admitted = 0
    for end_idx in range(1, count):
        end_pos = positions[end_idx]
        while positions[admitted] <= end_pos - min_size:
            admitted += 1
        seg_costs = reader.state.row(end_idx)[:admitted]
        totals = (values[:admitted] + seg_costs) + penalty
        winner = int(totals.argmin())
        best = totals[winner]
        tied = (totals == best).nonzero()[0].tolist()
        if len(tied) > 1:
            winner = _first_tuple(parent, depth, [*zip(tied)])[0]
        values[end_idx], last_cost[end_idx] = best, float(seg_costs[winner])
        parent[end_idx], depth[end_idx] = winner, depth[winner] + 1
    return parent, last_cost, 0


def _pelt_heap(reader, penalty, min_size):
    """pelt's step without dynp's matrix, in work proportional to the
    candidates it evaluates through fitted.cost (counted in the reader).
    The heap holds one (key, grid index) entry per live candidate, a lower
    bound on its total at any later end: F(s) + penalty until it is first
    evaluated, then its exact total at the last end it was evaluated at,
    F(s) + c(s, t') + penalty, each plus the fit's floor, the least a
    segment can cost.  On monotone costs the floor is 0.0, which moves no
    key's bits, and rounding is monotone, so the keys bound the totals.
    normal's costs bound nothing: its floor is -inf, every live candidate
    is popped and evaluated at every end, pop order does not matter, and a
    list stands in for the heap.  An exact tie is settled as it is found,
    against the winner so far.  Returns each end's parent and last cost,
    n_pruned."""
    cost, inf = reader.fitted.cost, np.inf
    if reader.fitted.monotone:
        floor, push, pop = 0.0, heapq.heappush, heapq.heappop
    else:
        floor, push, pop = -inf, list.append, list.pop
    positions = reader.positions
    count = len(positions)
    values, doomed_from, heap = [0.0] * count, [inf] * count, []
    parent, depth, last_cost = [0] * count, [0] * count, [0.0] * count
    admitted = n_pruned = 0
    for end_idx in range(1, count):
        end_pos = positions[end_idx]
        while positions[admitted] <= end_pos - min_size:
            push(heap, (values[admitted] + penalty + floor, admitted))
            admitted += 1
        best, win, done = inf, None, []
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
            if total < best:
                best, win = total, (s, seg_cost)
            elif total == best:
                win = _first_tuple(parent, depth, (win, (s, seg_cost)))
        reader.n_evals += len(done)
        winner, last_cost[end_idx] = win
        values[end_idx] = best
        parent[end_idx], depth[end_idx] = winner, depth[winner] + 1
        for fit, total, s in done:
            if fit > best and doomed_from[s] == inf:
                doomed_from[s] = end_pos + min_size
            push(heap, (total + floor, s))
    return parent, last_cost, n_pruned


def pelt(fitted, penalty: float, config: SearchConfig | None = None) -> DetectionResult:
    """Exact linearly penalized segmentation, pruning where it evaluates.

    Minimizes total cost plus penalty per segment via F(t) = min over s of
    (F(s) + c(s, t)) + penalty, in one of two steps.  Without dynp's matrix
    pelt evaluates costs in one loop (_pelt_heap), where a candidate with
    F(s) + c(s, t) > F(t) can never win again once t itself is old enough
    to act as a split, so it is dropped when the endpoint reaches
    t + min_size; dropping it at t directly would lose exactness for
    min_size > 1.  The rule is safe because every cost family is
    superadditive (test_costs_are_superadditive checks it).

    On the monotone families (all but normal) costs are >= 0 and a
    candidate's last evaluated cost bounds its later costs from below, so
    the loop evaluates only the candidates a heap of those bounds leaves a
    chance to win.  normal's costs bound nothing, so there it evaluates
    every live candidate at every end.  It prunes lazily, n_pruned counting
    the doomed candidates popped from t + min_size on, and counts each
    fitted.cost call in n_cost_evals.  After dynp on the same fitted cost
    and grid, the row step (_pelt_rows) slices every admitted start at each
    end straight from a row of its matrix, uncounted, so pelt prunes
    nothing, n_pruned and n_cost_evals are 0, and the answer is the
    recursion's, bit for bit.  On a fresh fit, pruning and the heap's
    bounds hold only up to rounding, so on tie-heavy signals the answer can
    settle an exact tie differently from the recursion, or lie a few
    roundings above its objective.

    State is O(grid).  An exact tie goes to the smallest end tuple.  A
    repeated call pays its evaluations again.
    """
    stop = StoppingRule(penalty=penalty)
    _, min_size, _, positions, reader = _prepare(fitted, config, stop)
    step = _pelt_heap if reader.state is None else _pelt_rows
    parent, last_cost, n_pruned = step(reader, stop.penalty, min_size)
    path = _path_indices(parent, len(positions) - 1)
    ends = tuple(positions[i] for i in path)
    contrast = 0.0
    for idx in path:
        contrast += last_cost[idx]
    return _result(reader, ends, contrast, n_pruned=n_pruned)


def _add_greedily(reader, stop, moves, cost) -> DetectionResult:
    """Take a greedy engine's lazy (score, end) moves, best first, until the
    stopping rule holds; the one reader of the rule for binseg and window.
    moves(ends) reads ends, the sorted list of T and every end taken so far.

    n_bkps takes that many moves, penalty stops at the first move scoring at
    or below it, budget takes moves while the total cost is above it; moves
    running out first raise InfeasibleError or BudgetUnreachableError.  A
    count above max_changes never gets here (_prepare refuses it), but one
    within it can still run out: the picks so far can leave too little room
    around them, as a binseg split at 5 does at T = 10 with min_size 3.
    Only the moves the rule pulls are evaluated.
    """
    ends = [reader.fitted.n_samples]
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
    return _result(reader, ends, _total(cost, ends))


def binseg(fitted, stop: StoppingRule, config: SearchConfig | None = None) -> DetectionResult:
    """Greedy top-down splitting: always take the split with the largest gain.

    The gain of splitting [a, b) at s is c(a, b) - c(a, s) - c(s, b).  Each
    unsplit segment keeps two cost rows over its split positions, c(a, .)
    and c(., b), as its slices of two arrays indexed by grid position: the
    children of a split inherit a prefix of the left row and a suffix of
    the right one, and each evaluates only the row ending or starting at the
    split, at the next pull of the moves.  The root is scanned there too, so
    n_bkps = 0 scans nothing.  A scanned segment's best split, the first
    argmax of its gains, enters one heap keyed (-gain, split), so a pull
    takes the largest gain, the smallest split on a tie, in O(log K).  The
    splits are moves for _add_greedily: it stops after n_bkps splits, at the
    first best gain at or below the penalty, or once the total cost fits the
    budget, reading the current segments' costs from a dict filled from the
    rows.  State is O(grid), and no segment is evaluated twice.  An n_bkps
    above max_changes is refused before any cost is evaluated.
    """
    _, min_size, _, positions, reader = _prepare(fitted, config, stop)
    # left[i] = c(a, positions[i]) and right[i] = c(positions[i], b) over the
    # split positions i of each unsplit segment [a, b)
    left, right = np.empty(len(positions)), np.empty(len(positions))
    # c(a, b) of the current segments; the root's is evaluated when first read
    costs = {}

    def cost(a: int, b: int) -> float:
        if (a, b) not in costs:
            costs[a, b] = reader.cost(a, b)
        return costs[a, b]

    def moves(ends):
        # (a, b, whether its left row is new, whether its right row is new) of
        # the segments to scan at this pull; the heap holds one (-gain, split,
        # a, b, grid index) entry per scanned segment with a split
        scan, heap = [(0, fitted.n_samples, True, True)], []
        while True:
            for a, b, new_left, new_right in scan:
                lo = bisect.bisect_left(positions, a + min_size)
                hi = bisect.bisect_right(positions, b - min_size)
                if lo < hi:
                    splits = positions[lo:hi]
                    if new_left:
                        left[lo:hi] = [reader.cost(a, s) for s in splits]
                    if new_right:
                        right[lo:hi] = [reader.cost(s, b) for s in splits]
                    gains = cost(a, b) - (left[lo:hi] + right[lo:hi])
                    i = int(gains.argmax())
                    heapq.heappush(heap, (-float(gains[i]), splits[i], a, b, lo + i))
            if not heap:
                return
            gain, s, a, b, i = heapq.heappop(heap)
            costs[a, s], costs[s, b] = float(left[i]), float(right[i])
            scan = [(a, s, False, True), (s, b, True, False)]
            yield -gain, s
            # pulled again, so the split was taken
            del costs[a, b]

    return _add_greedily(reader, stop, moves, cost)


def bottomup(fitted, stop: StoppingRule, config: SearchConfig | None = None) -> DetectionResult:
    """Greedy bottom-up merging from the finest admissible grid.

    Starts from the densest valid set of internal ends and repeatedly deletes
    the end whose removal raises the total cost least (smallest index on a
    tie).  Stops when n_bkps ends remain, when the smallest merge penalty
    exceeds the penalty value, or just before the total cost would exceed the
    budget.  One list holds the grid indices of 0, the remaining ends and
    T, so an end's neighbours are the entries beside it.  Arrays indexed by
    grid position hold each current segment's cost, at its end, and each
    internal end's spanning cost, that of the segment a merge there leaves;
    the merge deltas sit in one array aligned with the internal ends.  A
    merge re-prices only the two neighbouring ends: a step is one argmin
    plus an O(grid) deletion and shift that close the gap, and under the
    budget rule a re-sum of the running totals from the merged end on.  A
    new span holds the removed end and a neighbour, where every segment
    evaluated before held at most one of them, so none is evaluated twice
    and no memo is kept.  The finest grid holds max_changes ends, which
    _prepare returns after refusing a larger n_bkps before any cost is
    evaluated.
    """
    cfg, min_size, count, positions, reader = _prepare(fitted, config, stop)
    kind = stop.kind
    # the finest valid ends, the multiples of _step: every stride-th grid
    # index, between 0 and the terminal, so the internal end ends[i + 1] and
    # its neighbours are ends[i : i + 3]
    stride = _step(min_size, cfg.jump) // cfg.jump
    ends = [0, *range(1, 1 + count * stride, stride), len(positions) - 1]
    # seg is 0.0 off the current ends, so np.cumsum(seg), which adds left to
    # right from seg[0] = 0.0, ends in _total of the current ends, bitwise
    seg, span = np.zeros(len(positions)), np.empty(len(positions))
    for a, b in itertools.pairwise(ends):
        seg[b] = reader.cost(positions[a], positions[b])
    # the budget's running sums, np.cumsum(seg) of the merges taken: a merge
    # re-adds them from its end on, carrying the sum before it
    sums = np.cumsum(seg)
    # deltas[i] is the merge delta of ends[i + 1]; argmin keeps the first
    # minimum, the smallest end on a tie.  The ends in unpriced are priced
    # at the next pick, as a rescan of every end would
    deltas = np.empty(count)
    unpriced = range(count)
    while len(ends) > 2 and (kind != "n_bkps" or len(ends) - 2 > stop.n_bkps):
        for i in unpriced:
            left, end, right = ends[i : i + 3]
            span[end] = reader.cost(positions[left], positions[right])
            deltas[i] = span[end] - (seg[end] + seg[right])
        where = int(deltas.argmin())
        if kind == "penalty" and deltas[where] > stop.penalty:
            break
        end, right = ends[where + 1 : where + 3]
        before = seg[end], seg[right]
        seg[end], seg[right] = 0.0, span[end]
        if kind == "budget":
            trial = np.concatenate((sums[end - 1 : end], seg[end:]))
            np.cumsum(trial, out=trial)
            if trial[-1] > stop.budget:
                seg[end], seg[right] = before
                break
            sums[end:] = trial[1:]
        del ends[where + 1]
        deltas[where:-1] = deltas[where + 1 :]
        deltas = deltas[:-1]
        # the two neighbours now merge across a longer segment
        unpriced = range(max(where - 1, 0), min(where + 1, len(ends) - 2))
    return _result(reader, [positions[i] for i in ends[1:]], float(np.cumsum(seg)[-1]))


def window(fitted, stop: StoppingRule, config: SearchConfig | None = None) -> DetectionResult:
    """Sliding-window discrepancy: score each admissible t by how much a cut
    at t improves the cost of the window around it.

    Z(t) = c(t - w/2, t + w/2) - c(t - w/2, t) - c(t, t + w/2) over grid
    points with a half window on both sides.  Candidate change points are the
    local maxima of Z (plateaus keep their leftmost point).  In decreasing
    score order (smallest t on a tie), the peaks at least min_size away from
    every earlier pick are moves for _add_greedily: it stops after n_bkps
    peaks, at the first score at or below the penalty, or once the total
    cost fits the budget.  The full-window and half-window costs of every
    centre are kept in float arrays, each evaluated once: c(t - w/2, t) is
    read as the right half of the centre t - w/2 when that is one, and the
    rule's totals and the contrast read their segments from the arrays when
    a window holds them.  After dynp on the same fitted cost and grid, a
    segment whose ends are both grid positions is read from its matrix.
    Requires config.window_width; raises WindowTooLargeError when it exceeds
    the signal.  An n_bkps above max_changes is refused after the width is
    checked and before any cost is evaluated.
    """
    n_samples = fitted.n_samples

    def right_ends(cfg, min_size):
        width = cfg.window_width
        if width is None:
            raise BadParamError("window_width must be set for the window engine")
        if width > n_samples:
            raise WindowTooLargeError(f"window_width {width} exceeds signal length {n_samples}")
        if width < 2 * min_size:
            raise BadParamError(
                f"window_width {width} below twice the minimum segment length {min_size}"
            )
        # named with the grid for one image; they lie off it unless jump divides half
        return (t + width // 2 for t in _grid(n_samples, width // 2, cfg.jump))

    cfg, min_size, _, _, reader = _prepare(fitted, config, stop, right_ends)
    half = cfg.window_width // 2
    grid = _grid(n_samples, half, cfg.jump)
    # windows[:, i] = c(t - half, t + half), c(t - half, t) and c(t, t + half)
    # for t = grid[i]; c(t - half, t) is the right half of the centre t - half
    # when that is on the grid, which it is only when jump divides half
    windows = np.empty((3, len(grid)))
    for i, t in enumerate(grid):
        if t - half in grid:
            left_half = windows[2, grid.index(t - half)]
        else:
            left_half = reader.cost(t - half, t)
        windows[:, i] = reader.cost(t - half, t + half), left_half, reader.cost(t, t + half)
    scores = (windows[0] - windows[1] - windows[2]).tolist()
    others = {}

    def seg_cost(a: int, b: int) -> float:
        """A segment of the rule or the contrast: read from the windows when
        one holds it, else evaluated once."""
        for row, length, t in ((0, 2 * half, a + half), (1, half, b), (2, half, a)):
            if b - a == length and t in grid:
                return float(windows[row, grid.index(t)])
        if (a, b) not in others:
            others[a, b] = reader.cost(a, b)
        return others[a, b]

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

    return _add_greedily(reader, stop, moves, seg_cost)
