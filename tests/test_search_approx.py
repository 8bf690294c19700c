"""Approximate engines: hand-checked small cases, stopping rules, grid
compliance, and dominance of the exact solver."""

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
    sum_of_costs,
    validate_signal,
    window,
)
from segscan.exceptions import (
    BadParamError,
    BudgetUnreachableError,
    InfeasibleError,
    WindowTooLargeError,
)

STEP = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


def fresh_fitted(data, **kw):
    return fit(CostSpec(**kw), validate_signal(data))


def staircase(rng=None, lengths=(50, 50, 50), levels=(0.0, 5.0, -3.0), noise=0.0):
    data = np.repeat(levels, lengths).astype(float)
    if noise and rng is not None:
        data = data + rng.normal(scale=noise, size=data.shape)
    return data


def test_stopping_rule_validation():
    assert StoppingRule(n_bkps=3).kind == "n_bkps"
    assert StoppingRule(penalty=0.5).value == 0.5
    assert StoppingRule(budget=10.0).kind == "budget"
    with pytest.raises(BadParamError):
        StoppingRule()
    with pytest.raises(BadParamError):
        StoppingRule(n_bkps=2, penalty=1.0)
    with pytest.raises(BadParamError):
        StoppingRule(n_bkps=-1)
    with pytest.raises(BadParamError):
        StoppingRule(penalty=-0.1)
    with pytest.raises(BadParamError):
        StoppingRule(budget=np.nan)


def test_engines_reject_wrong_stop_type():
    fitted = fresh_fitted(STEP)
    for engine in (binseg, bottomup, window):
        with pytest.raises(BadParamError):
            engine(fitted, 2)


def test_binseg_single_split():
    result = binseg(fresh_fitted(STEP), StoppingRule(n_bkps=1))
    assert result.bkps.ends == (3, 6)
    assert result.contrast == 0.0


def test_binseg_tie_takes_smallest_split():
    # [0,0,1,1,0,0]: splitting at 2 or at 4 leaves the same residual, so the
    # gains tie exactly and the smaller index must win
    result = binseg(fresh_fitted(np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])), StoppingRule(n_bkps=1))
    assert result.bkps.ends == (2, 6)
    # after the split at 4, [0, 4) at 2 and [4, 8) at 6 gain exactly 9 each:
    # a tie across two segments, which the smaller split must win too
    result = binseg(fresh_fitted(np.array([0.0, 0, 3, 3, 10, 10, 13, 13])), StoppingRule(n_bkps=2))
    assert result.bkps.ends == (2, 4, 8)


def test_binseg_recovers_clean_staircase():
    result = binseg(fresh_fitted(staircase()), StoppingRule(n_bkps=2))
    assert result.bkps.ends == (50, 100, 150)


def test_binseg_penalty_stopping():
    fitted = fresh_fitted(staircase())
    small = binseg(fitted, StoppingRule(penalty=1e-6))
    assert small.bkps.ends == (50, 100, 150)
    huge = binseg(fitted, StoppingRule(penalty=1e9))
    assert huge.bkps.ends == (150,)


def test_binseg_budget_stopping():
    rng = np.random.default_rng(300)
    data = staircase(rng, noise=1.0)
    fitted = fresh_fitted(data)
    v0 = fitted.cost(0, len(data))
    result = binseg(fitted, StoppingRule(budget=v0 * 0.5))
    assert result.contrast <= v0 * 0.5
    with pytest.raises(BudgetUnreachableError):
        binseg(fitted, StoppingRule(budget=1e-9), SearchConfig(min_size=60))


def test_binseg_infeasible_split_count():
    with pytest.raises(InfeasibleError):
        binseg(fresh_fitted(STEP), StoppingRule(n_bkps=2), SearchConfig(min_size=3))


def test_bottomup_single_merge_survivor():
    result = bottomup(fresh_fitted(STEP), StoppingRule(n_bkps=1))
    assert result.bkps.ends == (3, 6)
    assert result.contrast == 0.0


def test_bottomup_recovers_clean_staircase():
    result = bottomup(fresh_fitted(staircase()), StoppingRule(n_bkps=2))
    assert result.bkps.ends == (50, 100, 150)


def test_bottomup_penalty_stopping():
    fitted = fresh_fitted(staircase())
    result = bottomup(fitted, StoppingRule(penalty=0.5))
    assert result.bkps.ends == (50, 100, 150)
    everything = bottomup(fitted, StoppingRule(penalty=1e12))
    assert everything.bkps.ends == (150,)


def test_bottomup_budget_merges_while_it_fits():
    result = bottomup(fresh_fitted(STEP), StoppingRule(budget=0.0))
    assert result.bkps.ends == (3, 6)
    assert result.contrast == 0.0


def test_bottomup_budget_below_finest_grid_returns_finest():
    # merging only ever raises the cost, so when even the finest admissible
    # grid misses the budget the engine returns that grid unchanged
    rng = np.random.default_rng(301)
    fitted = fresh_fitted(rng.normal(size=30))
    result = bottomup(fitted, StoppingRule(budget=1e-12), SearchConfig(min_size=7))
    assert result.bkps.ends == (7, 14, 21, 30)
    assert result.contrast > 1e-12


def test_bottomup_infeasible_count():
    with pytest.raises(InfeasibleError):
        bottomup(fresh_fitted(STEP), StoppingRule(n_bkps=4), SearchConfig(min_size=2))


def test_window_hand_example():
    # scores over the admissible grid are [0, 0.25, 1.0, 0.25, 0]; the single
    # local maximum sits exactly on the true change
    data = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    result = window(fresh_fitted(data), StoppingRule(n_bkps=1), SearchConfig(window_width=4))
    assert result.bkps.ends == (4, 8)


def test_window_recovers_clean_staircase():
    result = window(
        fresh_fitted(staircase()),
        StoppingRule(n_bkps=2),
        SearchConfig(window_width=40),
    )
    assert result.bkps.ends == (50, 100, 150)


def test_window_penalty_and_budget():
    fitted = fresh_fitted(staircase())
    config = SearchConfig(window_width=40)
    by_pen = window(fitted, StoppingRule(penalty=10.0), config)
    assert by_pen.bkps.ends == (50, 100, 150)
    by_budget = window(fitted, StoppingRule(budget=1e-9), config)
    assert by_budget.bkps.ends == (50, 100, 150)
    noisy = fresh_fitted(staircase(np.random.default_rng(305), noise=1.0))
    with pytest.raises(BudgetUnreachableError):
        window(noisy, StoppingRule(budget=1e-12), config)


def test_window_parameter_validation():
    fitted = fresh_fitted(staircase())
    with pytest.raises(BadParamError):
        window(fitted, StoppingRule(n_bkps=1))
    with pytest.raises(WindowTooLargeError):
        window(fitted, StoppingRule(n_bkps=1), SearchConfig(window_width=151))
    with pytest.raises(BadParamError):
        window(fitted, StoppingRule(n_bkps=1), SearchConfig(min_size=30, window_width=40))


def test_window_infeasible_peak_count():
    with pytest.raises(InfeasibleError):
        window(
            fresh_fitted(np.zeros(20)),
            StoppingRule(n_bkps=2),
            SearchConfig(window_width=10),
        )


def test_window_respects_separation():
    rng = np.random.default_rng(302)
    data = staircase(rng, noise=0.8)
    result = window(
        fresh_fitted(data),
        StoppingRule(n_bkps=3),
        SearchConfig(min_size=10, jump=2, window_width=30),
    )
    assert result.bkps.complies(min_size=10, jump=2)


def test_approx_engines_never_beat_dynp():
    rng = np.random.default_rng(303)
    for trial in range(8):
        data = rng.normal(size=70) + np.repeat(rng.normal(scale=2.0, size=5), 14)
        fitted = fresh_fitted(data)
        for k in (1, 2, 3):
            exact = dynp(fitted, k).contrast
            for engine in (binseg, bottomup):
                got = engine(fitted, StoppingRule(n_bkps=k)).contrast
                assert got >= exact - 1e-9
            try:
                got = window(
                    fitted, StoppingRule(n_bkps=k), SearchConfig(window_width=20)
                ).contrast
            except InfeasibleError:
                continue
            assert got >= exact - 1e-9


def test_approx_contrast_matches_sum_of_costs():
    rng = np.random.default_rng(304)
    data = staircase(rng, noise=0.5)
    fitted = fresh_fitted(data)
    for engine in (binseg, bottomup):
        result = engine(fitted, StoppingRule(n_bkps=2))
        assert result.contrast == sum_of_costs(fitted, result.bkps)
    result = window(fitted, StoppingRule(n_bkps=2), SearchConfig(window_width=30))
    assert result.contrast == pytest.approx(sum_of_costs(fitted, result.bkps), rel=1e-12)


# every cost family the CLI offers the greedy engines, with its defaults
GREEDY_FAMILIES = ["l2", "normal", "linear", "ar", "kernel", "mahalanobis"]


def bottomup_instances(seed, count):
    """Random signals and grids, plus integer constant runs whose merges tie
    exactly at 0.0 so that only the smallest-index rule decides."""
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(count):
        n = int(rng.integers(12, 70))
        if trial % 3 == 0:
            runs = rng.integers(-2, 3, size=(int(rng.integers(2, 6)), 2)).astype(float)
            data = np.repeat(runs, n // len(runs) + 1, axis=0)[:n]
        else:
            data = rng.normal(size=(n, 2))
            data[n // 2 :] += rng.normal(scale=2.0, size=2)
        config = SearchConfig(min_size=int(rng.integers(1, 4)), jump=int(rng.integers(1, 4)))
        out.append((data, config))
    return out


@pytest.mark.parametrize("family", GREEDY_FAMILIES)
def test_bottomup_matches_greedy_reference(family):
    """Same ends, contrast and evaluation count as the rescanning reference,
    under all three stopping rules, with and without dynp's matrix."""
    rng = np.random.default_rng(410)
    for trial, (data, config) in enumerate(bottomup_instances(400 + len(family), 12)):
        spec = CostSpec(family=family)
        probe = fit(spec, validate_signal(data))
        min_size = max(config.min_size, probe.min_seg_len)
        whole = probe.cost(0, len(data))
        stops = [
            dict(n_bkps=int(rng.integers(0, 5))),
            dict(penalty=float(rng.uniform(0.0, 3.0))),
            dict(penalty=0.0),
            dict(budget=max(0.0, whole * float(rng.uniform(0.1, 1.0)))),
        ]
        for stop in stops:
            memo = oracle.MemoCost(probe.cost)
            expected = oracle.greedy_bottomup(
                memo, len(data), min_size=min_size, jump=config.jump, **stop
            )
            label = f"{family} trial {trial} {stop}"
            fitted = fit(spec, validate_signal(data))
            if expected is None:
                with pytest.raises(InfeasibleError):
                    bottomup(fitted, StoppingRule(**stop), config)
                continue
            contrast = oracle.total_cost(memo, expected)
            result = bottomup(fitted, StoppingRule(**stop), config)
            assert result.bkps.ends == expected, label
            assert result.contrast == contrast, label
            assert result.n_cost_evals == len(memo.memo), label
            warm = fit(spec, validate_signal(data))
            dynp(warm, 0, config)
            again = bottomup(warm, StoppingRule(**stop), config)
            assert (again.bkps.ends, again.contrast, again.n_cost_evals) == (expected, contrast, 0)


# window's plateau edges, as (data, config, width): a constant signal, whose
# one plateau spans the grid and peaks at the first centre; a ramp after a
# flat stretch, whose last plateau touches the last centre, at a half width
# that jump divides and at one it does not; grids of exactly one centre and
# of none (n = width, and a jump that does not divide half).  Every family's
# min_size, up to 6, fits twice in each width
RAMP = np.column_stack([np.r_[np.zeros(20), np.arange(1.0, 21.0)]] * 2)
SHORT = np.random.default_rng(431).normal(size=(12, 2))
PLATEAU_EDGES = [
    (np.zeros((30, 2)), SearchConfig(), 12),
    (RAMP, SearchConfig(jump=2), 12),
    (RAMP, SearchConfig(min_size=2, jump=4), 14),
    (SHORT, SearchConfig(), 12),
    (SHORT, SearchConfig(jump=4), 12),
]


# the constant signal's rbf fit falls back to gamma 1.0, with a warning
@pytest.mark.filterwarnings("ignore::segscan.exceptions.DegenerateSignalWarning")
@pytest.mark.parametrize("family", GREEDY_FAMILIES)
def test_split_engines_match_greedy_references(family):
    """binseg and window, with and without dynp's matrix, give the ends,
    contrast, evaluation count and error class of their rescanning
    references under all three stopping rules, on random instances (window
    at a random width) and on window's plateau edges."""
    rng = np.random.default_rng(420)
    instances = bottomup_instances(430 + len(family), 12)
    instances = [(data, config, None) for data, config in instances] + PLATEAU_EDGES
    for trial, (data, config, width) in enumerate(instances):
        spec = CostSpec(family=family)
        probe = fit(spec, validate_signal(data))
        n = len(data)
        min_size = max(config.min_size, probe.min_seg_len)
        if width is None:
            width = int(rng.integers(2 * min_size, min(n, 2 * min_size + 12) + 1))
        window_config = SearchConfig(config.min_size, config.jump, window_width=width)
        whole = probe.cost(0, n)
        stops = [
            dict(n_bkps=int(rng.integers(0, 5))),
            dict(n_bkps=n // min_size),  # more than fit: the moves run out
            dict(penalty=float(rng.uniform(0.0, 3.0))),
            dict(penalty=0.0),
            dict(budget=max(0.0, whole * float(rng.uniform(0.1, 1.0)))),
        ]
        warm = fit(spec, validate_signal(data))
        dynp(warm, 0, config)
        on_grid = {0, n, *oracle.admissible_grid(n, min_size, config.jump)}
        cases = [
            (binseg, config, oracle.greedy_binseg, {}, None),
            (binseg, config, oracle.greedy_binseg, {}, warm),
            (window, window_config, oracle.greedy_window, {"width": width}, None),
            (window, window_config, oracle.greedy_window, {"width": width}, warm),
        ]
        for stop in stops:
            for engine, engine_config, reference, extra, fitted in cases:
                label = f"{family} trial {trial} {engine.__name__} {stop} warm={fitted is warm}"
                memo = oracle.MemoCost(probe.cost)
                expected = reference(memo, n, min_size=min_size, jump=config.jump, **extra, **stop)
                fitted = fit(spec, validate_signal(data)) if fitted is None else fitted
                evals_before = fitted.eval_counter
                if expected is None:
                    error = InfeasibleError if "n_bkps" in stop else BudgetUnreachableError
                    with pytest.raises(error):
                        engine(fitted, StoppingRule(**stop), engine_config)
                else:
                    result = engine(fitted, StoppingRule(**stop), engine_config)
                    assert result.bkps.ends == expected, label
                    assert result.contrast == oracle.total_cost(memo, expected), label
                    assert result.n_cost_evals == fitted.eval_counter - evals_before, label
                # a fresh fit evaluates what the reference does; after dynp,
                # only the segments with an end off dynp's grid.  A count
                # above max_changes, as n // min_size always is, is refused
                # before anything is evaluated
                evals = len(memo.memo)
                if fitted is warm:
                    evals = sum(1 for segment in memo.memo if not on_grid.issuperset(segment))
                if stop.get("n_bkps", 0) > max_changes(n, min_size, config.jump):
                    evals = 0
                assert fitted.eval_counter - evals_before == evals, label


@pytest.mark.parametrize("kw", [{"family": "l2"}, {"family": "kernel", "kernel": "rbf"}])
def test_window_after_dynp_on_a_unit_grid_evaluates_nothing(kw):
    """With min_size 1 and jump 1 every window segment is a cell of dynp's
    matrix, so window pays no evaluation and answers as on a cold fit."""
    data = staircase(np.random.default_rng(440), noise=0.5)
    config = SearchConfig(min_size=1, jump=1, window_width=20)
    budget = 0.5 * fresh_fitted(data, **kw).cost(0, len(data))
    warm = fresh_fitted(data, **kw)
    dynp(warm, 0, config)
    for stop in (StoppingRule(n_bkps=2), StoppingRule(penalty=1.0), StoppingRule(budget=budget)):
        cold = window(fresh_fitted(data, **kw), stop, config)
        again = window(warm, stop, config)
        assert cold.n_cost_evals > 0
        assert again.n_cost_evals == 0, stop
        assert again.bkps.ends == cold.bkps.ends, stop
        assert again.contrast.hex() == cold.contrast.hex(), stop


def test_bottomup_budget_equal_to_a_trial_total_still_merges():
    """The budget test is `total > budget`: a merge landing exactly on the
    budget is taken, which only an exact left-to-right total gets right.
    Every greedy total is tried as the budget."""
    for seed in range(3):
        data = staircase(np.random.default_rng(seed), lengths=(20, 20, 20), noise=0.3)
        memo = oracle.MemoCost(fresh_fitted(data).cost)
        n = len(data)
        assert oracle.greedy_bottomup(memo, n, budget=0.0) == tuple(range(1, n + 1))
        for k in range(n):
            budget = oracle.total_cost(memo, oracle.greedy_bottomup(memo, n, n_bkps=k))
            result = bottomup(fresh_fitted(data), StoppingRule(budget=budget), SearchConfig())
            assert result.bkps.ends == oracle.greedy_bottomup(memo, n, budget=budget), (seed, k)
            assert result.bkps.n_bkps <= k
            assert result.contrast <= budget
