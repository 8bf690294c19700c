"""Penalized exact search against exhaustive enumeration, and the pruning
contract."""

import functools
import itertools

import numpy as np
import pytest

import _oracles as oracle
from segscan import (
    CostSpec,
    SearchConfig,
    StoppingRule,
    dynp,
    fit,
    pelt,
    sum_of_costs,
    validate_signal,
)
from segscan.exceptions import BadParamError
from segscan.search import _first_tuple, _path_indices, _prepare


FAMILIES = {
    "l2": dict(family="l2"),
    "normal": dict(family="normal"),
    "linear": dict(family="linear"),
    "ar": dict(family="ar", order=1),
    "kernel": dict(family="kernel", kernel="rbf"),
    "mahalanobis": dict(family="mahalanobis"),
}


def fresh_fitted(data, **kw):
    return fit(CostSpec(**kw), validate_signal(data))


def random_instances():
    """30 short signals with one mean shift, and a min_size of 1 or 2 each."""
    rng = np.random.default_rng(200)
    for trial in range(30):
        n = int(rng.integers(6, 14))
        data = rng.normal(size=n) + np.repeat(
            rng.normal(scale=2.0, size=2), [n // 2, n - n // 2]
        )
        yield trial, data, int(rng.integers(1, 3))


def test_pelt_matches_enumeration_on_random_instances():
    for trial, data, min_size in random_instances():
        n = len(data)
        fitted = fresh_fitted(data)
        memo = oracle.MemoCost(fitted.cost)
        table = [
            (ends, oracle.total_cost(memo, ends))
            for ends in oracle.iter_segmentations(n, min_size, 1)
        ]
        for penalty in (0.05, 0.5, 2.0, 10.0):
            expect_ends, expect_contrast = min(
                table, key=lambda item: (item[1] + penalty * len(item[0]), item[0])
            )
            result = pelt(fitted, penalty, SearchConfig(min_size=min_size))
            assert result.bkps.ends == expect_ends, f"trial {trial} pen={penalty}"
            assert abs(result.contrast - expect_contrast) <= 1e-9 * (
                1.0 + abs(expect_contrast)
            )


def test_optimal_partitioning_matches_enumeration():
    """The unpruned recursion that the pelt tests take as reference finds
    enumeration's optimum, ties included."""
    for trial, data, min_size in random_instances():
        memo = oracle.MemoCost(fresh_fitted(data).cost)
        for penalty in (0.05, 0.5, 2.0, 10.0):
            expected = oracle.best_penalized(memo, len(data), penalty, min_size=min_size)
            found = oracle.optimal_partitioning(memo, len(data), penalty, min_size)
            assert found == expected, f"trial {trial} pen={penalty}"


def test_first_tuple_picks_the_smallest_end_tuple_in_any_order():
    """pelt settles an exact tie as it finds it, folding the winner so far
    with each new candidate, so _first_tuple must not depend on the order of
    its entries.  On random parent forests (parent[i] < i, rooted at 0) it
    returns the tied candidate whose end tuple, its chain plus the shared
    end, is smallest, for every order of the ties and for a pairwise fold:
    a descendant beats its ancestor."""
    rng = np.random.default_rng(207)
    for trial in range(300):
        count = int(rng.integers(2, 40))
        parent, depth = [0] * count, [0] * count
        for i in range(1, count):
            # parents up to 1 to 5 back make deep chains as well as bushes
            parent[i] = int(rng.integers(max(0, i - int(rng.integers(1, 6))), i))
            depth[i] = depth[parent[i]] + 1
        size = min(count, int(rng.integers(2, 6)))
        tied = [(int(c), f"payload {c}") for c in rng.choice(count, size, replace=False)]
        expected = min(tied, key=lambda entry: (*_path_indices(parent, entry[0]), count))
        for order in itertools.permutations(tied):
            assert _first_tuple(parent, depth, order) == expected, (trial, order)
            folded = functools.reduce(lambda win, entry: _first_tuple(parent, depth, (win, entry)), order)
            assert folded == expected, (trial, order)


def recursion(spec, data, penalty, config):
    """The unpruned recursion over a fresh fit of spec, as (ends, contrast
    bits)."""
    fresh = fit(spec, validate_signal(data))
    min_size = max(config.min_size, fresh.min_seg_len)
    ends, contrast = oracle.optimal_partitioning(
        oracle.MemoCost(fresh.cost), len(data), penalty, min_size, config.jump
    )
    return ends, contrast.hex()


def after_dynp_and_recursion(fitted, data, penalty, config):
    """pelt on fitted after dynp on the same grid, and the unpruned recursion
    over a fresh fit of the same family, each as (ends, contrast bits)."""
    dynp(fitted, 0, config)
    result = pelt(fitted, penalty, config)
    assert (result.n_pruned, result.n_cost_evals) == (0, 0)
    found = (result.bkps.ends, result.contrast.hex())
    return found, recursion(fitted.spec, data, penalty, config)


def test_pelt_over_dynp_matrix_is_the_unpruned_recursion():
    """Over dynp's matrix a read costs nothing, so pelt scans every admitted
    start and prunes none.  On this case pruning at rounding level once
    answered (2, 4, 10, 12, ..., 24), an end tuple above the recursion's
    with the same contrast."""
    data = np.array([1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1], float)
    fitted = fresh_fitted(data[:, None], family="mahalanobis")
    found, expected = after_dynp_and_recursion(
        fitted, data[:, None], 0.0, SearchConfig(min_size=2, jump=2)
    )
    assert found == expected == ((2, 4, 6, 8, *range(12, 25, 2)), "0x1.1fffab10d36e1p+3")


@pytest.mark.parametrize("family", list(FAMILIES))
def test_pelt_over_dynp_matrix_matches_the_recursion_on_tie_heavy_signals(family):
    """Small 0/1 signals, half with 1e-9 noise, at penalties 0, 1e-9 and 1
    tie many segmentations, some only up to rounding; pelt over dynp's matrix
    returns the recursion's ends and contrast bits on every one."""
    rng = np.random.default_rng(208)
    spec = dict(FAMILIES[family], **({"gamma": 1.0} if family == "kernel" else {}))
    for trial in range(80):
        n, dims = int(rng.integers(8, 25)), int(rng.integers(1, 3))
        data = rng.integers(0, 2, size=(n, dims)).astype(float)
        if trial % 2:
            data += 1e-9 * rng.normal(size=data.shape)
        config = SearchConfig(min_size=int(rng.integers(1, 4)), jump=int(rng.integers(1, 3)))
        penalty = (0.0, 1e-9, 1.0)[trial % 3]
        fitted = fresh_fitted(data, **spec)
        found, expected = after_dynp_and_recursion(fitted, data, penalty, config)
        assert found == expected, (trial, penalty, config)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_reader_row_reads_dynp_matrix_without_evaluating(family):
    """After dynp on a grid, a fresh reader's row holds a second fresh fit's
    cost() at every start min_size or more before the end, bit for bit, and
    +inf at every start closer to it, for index arrays and the prefix
    slices pelt reads, and it evaluates nothing: neither the reader's
    n_evals nor the fit's eval_counter moves."""
    rng = np.random.default_rng(209)
    data = rng.normal(size=(40, 2)) + np.repeat(rng.normal(scale=2.0, size=(2, 2)), 20, axis=0)
    config = SearchConfig(min_size=2, jump=2)
    fitted = fresh_fitted(data, **FAMILIES[family])
    other = fresh_fitted(data, **FAMILIES[family])
    dynp(fitted, 0, config)
    before = fitted.eval_counter
    _, min_size, _, positions, reader = _prepare(fitted, config, StoppingRule(penalty=0.0))
    for end_idx, end in enumerate(positions):
        expected = np.array(
            [other.cost(start, end) if end - start >= min_size else np.inf for start in positions[:end_idx]]
        )
        for starts in (np.arange(end_idx), rng.permutation(end_idx)[: end_idx // 2], slice(end_idx)):
            row = reader.row(end_idx, starts)
            assert row.tobytes() == expected[starts].tobytes(), (end_idx, starts)
    assert (reader.n_evals, fitted.eval_counter) == (0, before)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="pruning on costs superadditive only up to rounding settles this tie away from the recursion",
)
def test_pelt_rows_on_a_fresh_fit_match_the_recursion_on_a_tie():
    """normal's pruned heap loop runs on a fresh fit, where its costs are
    superadditive only up to rounding.  On this 0/1 signal, trial 276 of the
    tie-heavy generator above at seed 1 restricted to normal on fresh fits,
    it answers (6, 8, ..., 16) where the recursion answers (2, 8, ..., 16),
    at the same contrast."""
    data = np.array([1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 1], float)[:, None]
    config = SearchConfig(min_size=1, jump=2)
    result = pelt(fresh_fitted(data, family="normal"), 0.0, config)
    expected = recursion(CostSpec(family="normal"), data, 0.0, config)
    assert expected[0] == (2, 8, 10, 12, 14, 16)
    assert (result.bkps.ends, result.contrast.hex()) == expected


def test_pelt_hand_example():
    fitted = fresh_fitted(np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]))
    result = pelt(fitted, penalty=0.1)
    assert result.bkps.ends == (3, 6)
    assert result.contrast == 0.0


def test_pelt_zero_penalty_takes_finest_grid():
    # with no penalty every zero-gain refinement is kept, smallest ends first
    fitted = fresh_fitted(np.zeros(8))
    result = pelt(fitted, penalty=0.0)
    assert result.bkps.ends == (1, 2, 3, 4, 5, 6, 7, 8)


def test_pelt_huge_penalty_keeps_one_segment():
    rng = np.random.default_rng(201)
    fitted = fresh_fitted(rng.normal(size=50))
    result = pelt(fitted, penalty=1e9)
    assert result.bkps.ends == (50,)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_pelt_prunes_and_pruning_is_lossless(family):
    rng = np.random.default_rng(202)
    data = rng.normal(size=200) + np.repeat(rng.normal(scale=3.0, size=4), 50)
    fitted = fresh_fitted(data, **FAMILIES[family])
    pruned = pelt(fitted, penalty=2.0)
    assert pruned.n_pruned > 0
    memo = oracle.MemoCost(fitted.cost)
    expected = oracle.optimal_partitioning(memo, len(data), 2.0, fitted.min_seg_len)
    assert (pruned.bkps.ends, pruned.contrast) == expected


def normal_shifts(rng, n_samples, dims):
    """1-5 changes of mean and scale at random places, per column."""
    cuts = np.sort(rng.choice(np.arange(1, n_samples), size=int(rng.integers(1, 6)), replace=False))
    sizes = np.diff([0, *cuts.tolist(), n_samples])
    means = np.repeat(rng.normal(scale=2.0, size=(len(sizes), dims)), sizes, axis=0)
    scales = np.repeat(rng.uniform(0.3, 3.0, size=(len(sizes), dims)), sizes, axis=0)
    return means + scales * rng.normal(size=(n_samples, dims))


def test_pelt_on_normal_prunes_and_counts_as_textbook_pelt():
    """normal's costs bound nothing, so on a fresh fit pelt evaluates every
    live candidate at every end and drops a doomed one min_size ends on.
    On 40 signals of T 30-300, min_size 1-3 and jump 1-2, at penalties
    that prune strongly and weakly, the ends, contrast bits, evaluations
    and pruned count are textbook PELT's with the same drop rule, and
    n_cost_evals is what the fit counted."""
    rng = np.random.default_rng(210)
    for trial in range(40):
        n = int(rng.integers(30, 301))
        data = normal_shifts(rng, n, int(rng.integers(1, 3)))
        config = SearchConfig(min_size=int(rng.integers(1, 4)), jump=int(rng.integers(1, 3)))
        penalty = float(rng.uniform(2.0, 10.0) if trial % 2 else rng.uniform(30.0, 120.0))
        fitted = fresh_fitted(data, family="normal")
        min_size = max(config.min_size, fitted.min_seg_len)
        ends, contrast, evaluations, pruned = oracle.pruned_partitioning(
            fresh_fitted(data, family="normal").cost, n, penalty, min_size, config.jump
        )
        before = fitted.eval_counter
        result = pelt(fitted, penalty, config)
        assert result.n_cost_evals == fitted.eval_counter - before, trial
        found = (result.bkps.ends, result.contrast.hex(), result.n_cost_evals, result.n_pruned)
        assert found == (ends, contrast.hex(), evaluations, pruned), (trial, penalty, config)


def test_pelt_is_optimal_at_its_own_change_count():
    rng = np.random.default_rng(203)
    for seed in range(10):
        data = np.random.default_rng(seed).normal(size=80) + np.repeat(
            rng.normal(scale=2.5, size=4), 20
        )
        fitted = fresh_fitted(data)
        result = pelt(fitted, penalty=3.0)
        exact = dynp(fitted, result.bkps.n_bkps)
        assert result.contrast == exact.contrast
        assert result.bkps.ends == exact.bkps.ends


def test_pelt_respects_grid():
    rng = np.random.default_rng(204)
    fitted = fresh_fitted(rng.normal(size=60))
    result = pelt(fitted, penalty=0.5, config=SearchConfig(min_size=4, jump=3))
    assert result.bkps.complies(min_size=4, jump=3)


def test_pelt_contrast_excludes_penalty():
    rng = np.random.default_rng(205)
    fitted = fresh_fitted(rng.normal(size=40))
    result = pelt(fitted, penalty=1.0)
    assert result.contrast == sum_of_costs(fitted, result.bkps)


def test_pelt_validates_penalty():
    fitted = fresh_fitted(np.zeros(10))
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(BadParamError):
            pelt(fitted, bad)


def segment_lengths(rng, n_samples, n_segments):
    """n_segments lengths of 50 to 150 samples summing to n_samples."""
    lengths = 50 + rng.multinomial(n_samples - 50 * n_segments, np.full(n_segments, 1.0 / n_segments))
    assert lengths.max() <= 150
    return lengths


def shifted_means(rng, n_samples, n_segments, dims):
    """Each segment's mean 2 to 5 away from the last per dimension, with a
    random sign, plus unit noise."""
    lengths = segment_lengths(rng, n_samples, n_segments)
    steps = np.where(rng.random((n_segments, dims)) < 0.5, -1.0, 1.0) * rng.uniform(
        2.0, 5.0, size=(n_segments, dims)
    )
    return np.repeat(np.cumsum(steps, axis=0), lengths, axis=0) + rng.normal(size=(n_samples, dims))


def switching_ar(rng, n_samples, n_segments):
    """AR(1) segments whose coefficient alternates between 0.8 and -0.6,
    driven by unit noise."""
    coefs = np.repeat(np.resize([0.8, -0.6], n_segments), segment_lengths(rng, n_samples, n_segments))
    noise = rng.normal(size=n_samples)
    data = np.zeros(n_samples)
    for t in range(1, n_samples):
        data[t] = coefs[t] * data[t - 1] + noise[t]
    return data


def long_case(family):
    """8,000 samples with 80 changes: mean shifts for l2, switching AR(1)
    coefficients for ar; the signal and its fitted cost."""
    rng = np.random.default_rng(206)
    if family == "l2":
        data = shifted_means(rng, 8000, 81, 2)
        return data, fresh_fitted(data)
    data = switching_ar(rng, 8000, 81)
    return data, fresh_fitted(data, family="ar", order=1)


@pytest.mark.parametrize("family", ["l2", "ar"])
def test_pelt_evaluates_few_candidates_per_sample(family):
    """On monotone costs pelt evaluates a live candidate only while its bound
    leaves it a chance to win, and a fresh candidate's bound is already
    F(s) + penalty: 8,000 samples and 80 changes cost 4.4 evaluations a
    sample for l2 and 7.67 for ar here (5.4 and 8.66 when a fresh candidate
    was evaluated at its first end; every live candidate at every end is 55
    and 75), and n_cost_evals is exactly the cost calls the search made."""
    data, fitted = long_case(family)
    start = fitted.eval_counter
    result = pelt(fitted, penalty=3.0 * data.ndim * np.log(len(data)))
    assert result.n_cost_evals == fitted.eval_counter - start
    per_sample = {"l2": 5.0, "ar": 8.0}[family]
    assert result.n_cost_evals <= per_sample * len(data), result.n_cost_evals
    assert result.bkps.n_bkps >= 60


@pytest.mark.parametrize("family", ["l2", "ar"])
def test_pelt_evaluates_each_segment_at_most_once(family):
    """Every cost call of one pelt search is a distinct segment, the calls
    are what n_cost_evals counts, and the search still prunes."""
    data, fitted = long_case(family)
    calls = []

    def recorded(start, end):
        calls.append((start, end))
        return type(fitted).cost(fitted, start, end)

    fitted.cost = recorded
    result = pelt(fitted, penalty=3.0 * data.ndim * np.log(len(data)))
    assert len(set(calls)) == len(calls)
    assert len(calls) == result.n_cost_evals
    assert result.n_pruned > 0
