"""An rbf cost is a function of the fit and the segment alone.

An engine has the rbf image built over the ends of its grid, sum_of_costs
over the ends it sums.  That holds for a fit's first image: once one is
built, any end it lacks, named by a later engine or sum_of_costs or read by
a cost() call, has the full image built, so a fit builds at most two.
Every image that holds an entry holds the same bits, so a cost at grid ends
equals a fresh fit's value bit for bit, whether an engine or cost() ran
first, and every engine answers the same either way.  The grids cover one
band and a partial one (255 to 257 samples), many bands (1000 and 2931), a
grid with every end (jump 1), every end but two (min_size 2), and coarse
grids: at jump 50 most of 2931 samples' bands of 22 rows keep no row, and
at jump 22 kept rows fall on bands' first and last rows.
"""

import numpy as np
import pytest

from segscan import (
    CostSpec,
    SearchConfig,
    StoppingRule,
    binseg,
    bottomup,
    dynp,
    fit,
    pelt,
    solve_budget,
    sum_of_costs,
    validate_breakpoints,
    window,
)
from segscan.costs import KernelCost, _band_rows
from segscan.exceptions import SegscanError

SIZES = [1, 2, 3, 255, 256, 257, 1000, 2931]
GRIDS = [(1, 1), (2, 1), (1, 3), (5, 3), (1, 10), (1, 22), (1, 50)]
# dynp's matrix takes one cost per pair of grid ends: it runs on the grids
# of at most this many ends
DYNP_ENDS = 400
# the ends whose pairs are compared, on grids with more
COMPARED_ENDS = 150


def rbf_signal(n_samples):
    rng = np.random.default_rng(100 + n_samples)
    levels = np.repeat(rng.normal(scale=2.0, size=(4, 2)), -(-n_samples // 4), axis=0)
    return levels[:n_samples] + rng.normal(size=(n_samples, 2))


def engine_calls(n_samples, min_size, jump):
    """Every engine on this grid, as name -> call(fitted)."""
    width = max(2 * min_size, min(n_samples, 40))
    config = SearchConfig(min_size=min_size, jump=jump, window_width=width)
    stop = StoppingRule(n_bkps=2)
    calls = {
        "pelt": lambda fitted: pelt(fitted, 3.0, config),
        "binseg": lambda fitted: binseg(fitted, stop, config),
        "bottomup": lambda fitted: bottomup(fitted, stop, config),
        "window": lambda fitted: window(fitted, StoppingRule(penalty=0.5), config),
    }
    ends = len(range(0, n_samples + 1, jump))
    if ends <= DYNP_ENDS:
        calls["dynp"] = lambda fitted: dynp(fitted, 2, config)
        calls["solve_budget"] = lambda fitted: solve_budget(fitted, 0.5 * n_samples, config)
    return calls


def answers(fitted, calls):
    out = {}
    for name, call in calls.items():
        try:
            result = call(fitted)
        except SegscanError as exc:
            out[name] = repr(exc)
        else:
            out[name] = (
                result.bkps.ends,
                result.contrast.hex(),
                result.n_cost_evals,
                result.n_pruned,
            )
    return out


def grid_ends(n_samples, min_size, jump):
    return [0] + list(range(-(-min_size // jump) * jump, n_samples - min_size + 1, jump)) + [
        n_samples
    ]


def compared_pairs(ends, rng):
    if len(ends) > COMPARED_ENDS:
        inner = rng.choice(ends[1:-1], size=COMPARED_ENDS - 2, replace=False).tolist()
        ends = sorted([ends[0], *inner, ends[-1]])
    return [(s, e) for i, s in enumerate(ends) for e in ends[i + 1 :]]


@pytest.mark.parametrize("min_size, jump", GRIDS)
@pytest.mark.parametrize("n_samples", SIZES)
def test_rbf_costs_at_grid_ends_equal_a_fresh_fit(n_samples, min_size, jump):
    signal = rbf_signal(n_samples)
    spec = CostSpec(family="kernel", kernel="rbf", gamma=0.5)
    calls = engine_calls(n_samples, min_size, jump)
    pairs = compared_pairs(
        grid_ends(n_samples, min_size, jump), np.random.default_rng(n_samples + jump)
    )
    # a fresh fit whose first cost() builds the full image
    fresh = fit(spec, signal)
    expected = [fresh.cost(s, e).hex() for s, e in pairs]

    engine_first = fit(spec, signal)
    found = answers(engine_first, calls)
    assert [engine_first.cost(s, e).hex() for s, e in pairs] == expected

    cost_first = fit(spec, signal)
    assert [cost_first.cost(s, e).hex() for s, e in pairs] == expected
    assert answers(cost_first, calls) == found
    assert [cost_first.cost(s, e).hex() for s, e in pairs] == expected


def test_rbf_engine_grids_build_no_full_image():
    """On a coarse grid the engines read only the grid image.  A grid end's
    row holds every column up to its own, so a cost() ending there reads it
    at any start, on the grid or off it, with a fresh fit's bits; the fit
    keeps no image row per sample until a cost() ending off the grid asks
    for one."""
    n_samples = 2931
    spec = CostSpec(family="kernel", kernel="rbf")
    signal = rbf_signal(n_samples)
    fitted = fit(spec, signal)
    for call in engine_calls(n_samples, 1, 10).values():
        call(fitted)
    ends = grid_ends(n_samples, 1, 10)
    rows = len(ends) - 1
    assert len(fitted._image[1]) == rows
    rng = np.random.default_rng(11)
    pairs = [(5, 1500), (0, 10), (1, 10), (9, 10), (1, n_samples), (2929, 2930)]
    for end in rng.choice(ends[1:], size=100).tolist():
        pairs.append((int(rng.integers(0, end)), end))
    fresh = fit(spec, signal)
    expected = [fresh.cost(s, e).hex() for s, e in pairs]
    assert [fitted.cost(s, e).hex() for s, e in pairs] == expected
    assert len(fitted._image[1]) == rows
    fitted.cost(5, 17)
    assert len(fitted._image[1]) == n_samples


def image_rows(image, ends):
    """Row j = e - 1 of an image built by KernelCost._build, columns 0..j,
    per end e, as int64 bit patterns."""
    slot, pieces, base, _ = image
    rows = {}
    for end in ends:
        at = base[slot[end]]
        rows[end] = np.frombuffer(pieces[slot[end]], dtype=np.int64)[at : at + end].copy()
    return rows


@pytest.mark.parametrize("n_samples", [255, 1000, 2931])
def test_grid_image_rows_equal_the_full_image(n_samples):
    """_build over any ascending subset of ends holds each kept row with
    the full image's bits: dense and sparse random subsets, single rows
    (end 1's, whose running sums are one column wide, and the last), both
    edges of one band, bands that keep their first and last rows only, and
    every end but one, so whole bands sit beside partial ones."""
    fitted = fit(CostSpec(family="kernel", kernel="rbf"), rbf_signal(n_samples))
    full = fitted._build(range(1, n_samples + 1))
    step = _band_rows(n_samples)
    rng = np.random.default_rng(n_samples)
    subsets = [[1], [2], [n_samples], [step], [step + 1], [step, step + 1, 2 * step]]
    # the first and last rows (ends lo + 1 and lo + step) of one band, and of every band
    middle = step * (n_samples // step // 2)
    subsets.append([middle + 1, middle + step])
    subsets.append([end for lo in range(0, n_samples, step) for end in (lo + 1, lo + step)])
    subsets.append([end for end in range(1, n_samples + 1) if end != n_samples // 2])
    for share in (0.01, 0.1, 0.5, 0.9):
        mask = rng.random(n_samples) < share
        subsets.append((np.flatnonzero(mask) + 1).tolist() or [n_samples])
    expected = image_rows(full, range(1, n_samples + 1))
    for kept in subsets:
        kept = sorted({min(end, n_samples) for end in kept})
        image = fitted._build(kept)
        assert image[3] == full[3]
        found = image_rows(image, kept)
        assert all(np.array_equal(found[end], expected[end]) for end in kept), kept[:5]


@pytest.mark.parametrize("width", [2, 3, 17, 300])
def test_numpy_reduces_axis_0_row_by_row(width):
    """KernelCost._build sums a grid image's running rows with one axis-0
    np.add.reduce per kept row and relies on numpy adding the rows one after
    another, in order, as the in-place loop of a whole band does, for any
    block at least 2 columns wide: C-contiguous, or a column slice of a
    wider one, written into a row of another array."""
    rng = np.random.default_rng(width)
    wider = rng.normal(size=(40, width + 5)) * 10.0 ** rng.integers(-8, 8, size=(40, width + 5))
    for n_rows in (2, 3, 8, 9, 40):
        for block in (np.ascontiguousarray(wider[:n_rows, :width]), wider[:n_rows, :width]):
            looped = block[0].copy()
            for row in block[1:]:
                np.add(looped, row, out=looped)
            out = np.empty((2, width))
            np.add.reduce(block, axis=0, out=out[1])
            assert out[1].tobytes() == looped.tobytes(), (n_rows, block.flags.c_contiguous)


@pytest.mark.parametrize("jump", [1, 3, 10])
def test_rbf_costs_are_exact_where_every_pair_underflows(jump):
    """At gamma 1e10 every kernel value off the diagonal underflows to 0, so
    a segment of m samples costs m - 1, and the image's centring rounds
    nothing: every cost, and binseg's contrast over four segments of 300
    samples, is exact on any grid."""
    fitted = fit(CostSpec(family="kernel", kernel="rbf", gamma=1e10), rbf_signal(300))
    result = binseg(fitted, StoppingRule(n_bkps=3), SearchConfig(jump=jump))
    assert result.contrast == 296.0
    ends = grid_ends(300, 1, jump)
    assert all(fitted.cost(s, e) == e - s - 1 for i, s in enumerate(ends) for e in ends[i + 1 :])


def counted_builds(monkeypatch):
    """The number of kept ends of each KernelCost._build call, in order."""
    builds = []
    build = KernelCost._build

    def counted(self, kept):
        builds.append(len(kept))
        return build(self, kept)

    monkeypatch.setattr(KernelCost, "_build", counted)
    return builds


def test_window_builds_one_image_over_the_grid_and_its_right_ends(monkeypatch):
    """At jump 10 and half width 45 the windows' right ends t + 45 lie off
    the grid.  window names them in the same _cover call as the grid, so
    the image is built once, over the 300 grid ends and the 291 right ends,
    and its answer has the bits of the same call on a fresh fit's full
    image."""
    n_samples = 3000
    spec = CostSpec(family="kernel", kernel="rbf")
    signal = rbf_signal(n_samples)
    config = SearchConfig(jump=10, window_width=90)
    stop = StoppingRule(n_bkps=3)
    builds = counted_builds(monkeypatch)
    result = window(fit(spec, signal), stop, config)
    assert builds == [591]
    fresh = fit(spec, signal)
    fresh.cost(0, n_samples)
    assert builds == [591, n_samples]
    expected = window(fresh, stop, config)
    assert result.bkps.ends == expected.bkps.ends
    assert result.contrast.hex() == expected.contrast.hex()
    assert result.contrast == sum_of_costs(fresh, result.bkps)


def test_sum_of_costs_builds_image_rows_for_its_ends_alone():
    """sum_of_costs names its ends to the fit before it sums, as an engine
    names its grid, so a fresh rbf fit builds one image row per segment end
    instead of one per sample, and the total has a full image's bits."""
    n_samples = 2931
    spec = CostSpec(family="kernel", kernel="rbf")
    signal = rbf_signal(n_samples)
    fresh = fit(spec, signal)
    bkps = binseg(fresh, StoppingRule(n_bkps=3), SearchConfig(jump=10)).bkps
    fitted = fit(spec, signal)
    value = sum_of_costs(fitted, bkps)
    assert len(fitted._image[1]) == len(bkps.ends)
    full = fit(spec, signal)
    full.cost(0, n_samples)
    assert len(full._image[1]) == n_samples
    assert value.hex() == sum_of_costs(full, bkps).hex()


def test_sums_of_many_segmentations_build_at_most_two_images(monkeypatch):
    """20 random 3-change segmentations summed on one fit: the first builds
    an image over its four ends, the second misses ends and builds the full
    image, and the other 18 build nothing.  Each total has the bits of a
    fresh fit's full-image total."""
    n_samples = 2931
    spec = CostSpec(family="kernel", kernel="rbf")
    signal = rbf_signal(n_samples)
    full = fit(spec, signal)
    full.cost(0, n_samples)
    rng = np.random.default_rng(31)
    segmentations = [
        validate_breakpoints(
            sorted(rng.choice(np.arange(1, n_samples), size=3, replace=False).tolist())
            + [n_samples],
            n_samples,
        )
        for _ in range(20)
    ]
    expected = [sum_of_costs(full, bkps).hex() for bkps in segmentations]
    builds = counted_builds(monkeypatch)
    fitted = fit(spec, signal)
    assert [sum_of_costs(fitted, bkps).hex() for bkps in segmentations] == expected
    assert builds == [4, n_samples]


def test_a_second_grid_builds_the_full_image(monkeypatch):
    """binseg at jump 7 and then pelt at jump 10 on one fit: the image is
    built over the jump-7 grid and then in full, never over the union of
    both grids, and each call answers as it does on a fresh fit."""
    n_samples = 2931
    spec = CostSpec(family="kernel", kernel="rbf")
    signal = rbf_signal(n_samples)
    stop = StoppingRule(n_bkps=3)
    binseg_7 = {"binseg": lambda fitted: binseg(fitted, stop, SearchConfig(jump=7))}
    pelt_10 = {"pelt": lambda fitted: pelt(fitted, 5.0, SearchConfig(jump=10))}
    expected = answers(fit(spec, signal), binseg_7) | answers(fit(spec, signal), pelt_10)
    builds = counted_builds(monkeypatch)
    fitted = fit(spec, signal)
    assert answers(fitted, binseg_7) | answers(fitted, pelt_10) == expected
    assert builds == [len(grid_ends(n_samples, 1, 7)) - 1, n_samples]
