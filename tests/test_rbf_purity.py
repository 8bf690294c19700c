"""An rbf cost is a function of the fit and the segment alone.

An engine has the rbf image built over the ends of its grid, and a cost()
call whose ends no image covers has the full image built.  Every image that
holds an entry holds the same bits, so a cost at grid ends equals a fresh
fit's value bit for bit, whether an engine or cost() ran first, and every
engine answers the same either way.  The grids cover one band and a partial
one (255 to 257 samples), many bands (1000 and 2931), a grid with every end
(jump 1), every end but two (min_size 2), and coarse grids.
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
    window,
)
from segscan.costs import KernelCost
from segscan.exceptions import SegscanError

SIZES = [1, 2, 3, 255, 256, 257, 1000, 2931]
GRIDS = [(1, 1), (2, 1), (1, 3), (5, 3), (1, 10)]
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
    builds = []
    build = KernelCost._build

    def counted(self, kept):
        builds.append(len(kept))
        return build(self, kept)

    monkeypatch.setattr(KernelCost, "_build", counted)
    result = window(fit(spec, signal), stop, config)
    assert builds == [591]
    fresh = fit(spec, signal)
    fresh.cost(0, n_samples)
    assert builds == [591, n_samples]
    expected = window(fresh, stop, config)
    assert result.bkps.ends == expected.bkps.ends
    assert result.contrast.hex() == expected.contrast.hex()
    assert result.contrast == sum_of_costs(fresh, result.bkps)
