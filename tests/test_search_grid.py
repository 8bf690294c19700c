"""The grid rules in closed form against the greedy packing loop, on every
small grid: the change count limit, bottomup's finest grid, the refusal one
past the limit before any cost is read, and window's candidate centres."""

import numpy as np
import pytest

import _oracles as oracle
from segscan import (
    CostSpec,
    SearchConfig,
    StoppingRule,
    binseg,
    bottomup,
    dynp,
    fit,
    max_changes,
    window,
)
from segscan.exceptions import InfeasibleError

N_MAX = 80
SIZES = range(1, 12)
JUMPS = range(1, 12)


@pytest.mark.parametrize("jump", JUMPS)
def test_grid_rules_match_greedy_packing(jump):
    for n in range(1, N_MAX + 1):
        fitted = fit(CostSpec("l2"), np.zeros(n))
        for min_size in SIZES:
            packed = oracle.greedy_packing(n, min_size, jump)
            count = max_changes(n, min_size, jump)
            assert count == len(packed), (n, min_size, jump)
            if n < min_size:
                continue  # the engines refuse the signal itself
            config = SearchConfig(min_size=min_size, jump=jump)
            finest = bottomup(fitted, StoppingRule(n_bkps=count), config)
            assert finest.bkps.internal == tuple(packed), (n, min_size, jump)
            # every engine that takes a count refuses one past the limit
            # before it evaluates anything
            too_many = StoppingRule(n_bkps=count + 1)
            refusals = [
                lambda: bottomup(fitted, too_many, config),
                lambda: binseg(fitted, too_many, config),
                lambda: dynp(fitted, count + 1, config),
            ]
            if n >= 2 * min_size:
                window_config = SearchConfig(min_size, jump, window_width=2 * min_size)
                refusals.append(lambda: window(fitted, too_many, window_config))
            for refuse in refusals:
                before = fitted.eval_counter
                with pytest.raises(InfeasibleError, match=f"the grid admits at most {count}$"):
                    refuse()
                assert fitted.eval_counter == before, (n, min_size, jump)


@pytest.mark.parametrize("engine", [dynp, binseg, bottomup, window], ids=lambda e: e.__name__)
def test_refused_count_builds_no_rbf_image(engine):
    data = np.repeat([0.0, 4.0, 1.0], 20)
    fitted = fit(CostSpec("kernel"), data)
    config = SearchConfig(min_size=3, jump=2, window_width=10)
    most = max_changes(len(data), 3, 2)
    stop = most + 1 if engine is dynp else StoppingRule(n_bkps=most + 1)
    with pytest.raises(InfeasibleError, match=f"the grid admits at most {most}$"):
        engine(fitted, stop, config)
    assert fitted._image[1] is None
    assert fitted.eval_counter == 0


@pytest.mark.parametrize("jump", JUMPS)
def test_window_scores_the_grid_of_its_half_width(jump):
    for n in range(2, N_MAX + 1):
        fitted = fit(CostSpec("l2"), np.zeros(n))
        calls = []
        original = fitted.cost

        def cost(start, end):
            calls.append((start, end))
            return original(start, end)

        fitted.cost = cost
        for width in range(2, min(n, 2 * max(SIZES) + 1) + 1):
            half = width // 2
            calls.clear()
            window(fitted, StoppingRule(penalty=1.0), SearchConfig(jump=jump, window_width=width))
            # no peak on a flat signal: the contrast of ends (n,) comes last,
            # reading [0, n) unless a score already did
            if calls and calls[-1] == (0, n):
                calls.pop()
            # a score reads [t - half, t + half); no other segment is 2 * half long
            centres = [start + half for start, end in calls if end - start == 2 * half]
            assert centres == oracle.admissible_grid(n, half, jump), (n, width, jump)
