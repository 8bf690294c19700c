"""Exact search: dynp against exhaustive enumeration and a dense reference
of its table, plus the caching and tie-breaking contracts."""

import sys
import threading

import numpy as np
import pytest

import _oracles as oracle
from segscan import (
    CostSpec,
    SearchConfig,
    StoppingRule,
    costs,
    dynp,
    fit,
    max_changes,
    solve_budget,
    sum_of_costs,
    validate_signal,
)
from segscan.generators import GenSpec, pw_constant
from segscan.exceptions import BadParamError, BudgetUnreachableError, InfeasibleError
from segscan.search import _prepare

FAMILIES = {
    "l2": dict(family="l2"),
    "normal": dict(family="normal"),
    "linear": dict(family="linear"),
    "ar": dict(family="ar", order=1),
    "kernel": dict(family="kernel", kernel="rbf", gamma=1.0),
    "mahalanobis": dict(family="mahalanobis"),
}


def fresh_fitted(data, family="l2", **kw):
    return fit(CostSpec(family=family, **kw), validate_signal(data))


def test_dynp_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(100)
    for trial in range(40):
        n = int(rng.integers(6, 15))
        d = int(rng.integers(1, 3))
        data = rng.normal(size=(n, d)) + np.repeat(
            rng.normal(scale=2.0, size=(2, d)), [n // 2, n - n // 2], axis=0
        )
        min_size = int(rng.integers(1, 3))
        jump = int(rng.integers(1, 3))
        fitted = fresh_fitted(data)
        memo = oracle.MemoCost(fitted.cost)
        config = SearchConfig(min_size=min_size, jump=jump)
        for k in range(4):
            expect_ends, expect_value = oracle.best_fixed_k(
                memo, n, k, min_size=max(min_size, fitted.min_seg_len), jump=jump
            )
            if expect_ends is None:
                with pytest.raises(InfeasibleError):
                    dynp(fitted, k, config)
                continue
            result = dynp(fitted, k, config)
            assert result.bkps.ends == expect_ends, f"trial {trial} k={k}"
            assert result.contrast == expect_value, f"trial {trial} k={k}"


def test_dynp_zero_changes():
    fitted = fresh_fitted(np.arange(10.0))
    result = dynp(fitted, 0)
    assert result.bkps.ends == (10,)
    assert result.contrast == fitted.cost(0, 10)


def test_dynp_tie_breaks_to_smallest_ends():
    # [0,0,0,1,1,1] with two cuts: any pair containing 3 gives zero cost,
    # so the winner must be the lexicographically smallest, (1, 3)
    fitted = fresh_fitted(np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]))
    result = dynp(fitted, 2)
    assert result.bkps.ends == (1, 3, 6)
    assert result.contrast == 0.0


def test_dynp_respects_grid_constraints():
    rng = np.random.default_rng(101)
    data = rng.normal(size=60)
    for min_size, jump in [(2, 1), (3, 2), (5, 5), (1, 4)]:
        fitted = fresh_fitted(data)
        result = dynp(fitted, 3, SearchConfig(min_size=min_size, jump=jump))
        assert result.bkps.complies(min_size=min_size, jump=jump)


def test_dynp_effective_min_size_comes_from_cost():
    # normal on 2-d data needs 3 samples per segment even when config says 1
    rng = np.random.default_rng(102)
    fitted = fresh_fitted(rng.normal(size=(30, 2)), family="normal")
    result = dynp(fitted, 2, SearchConfig(min_size=1))
    assert result.bkps.min_segment_length() >= 3


def test_dynp_validates_n_bkps():
    fitted = fresh_fitted(np.zeros(10))
    for bad in (-1, True, 1.5, "2"):
        with pytest.raises(BadParamError):
            dynp(fitted, bad)


def test_dynp_infeasible_requests():
    fitted = fresh_fitted(np.zeros(10))
    with pytest.raises(InfeasibleError):
        dynp(fitted, 10)  # max_changes(10, 1, 1) == 9 internal ends at most
    with pytest.raises(InfeasibleError):
        dynp(fitted, 3, SearchConfig(min_size=4))
    with pytest.raises(InfeasibleError):
        dynp(fresh_fitted(np.zeros(5)), 0, SearchConfig(min_size=6))


def test_max_changes_counts_greedy_packing():
    assert max_changes(10, 1, 1) == 9
    assert max_changes(10, 3, 1) == 2
    assert max_changes(10, 2, 4) == 2
    assert max_changes(4, 5, 1) == 0


def test_dynp_reports_table_fill_evals_once():
    rng = np.random.default_rng(103)
    fitted = fresh_fitted(rng.normal(size=30))
    result = dynp(fitted, 2, SearchConfig(min_size=3, jump=2))
    positions = [0] + [p for p in range(4, 28, 2)] + [30]
    admissible = sum(
        1
        for i, a in enumerate(positions)
        for b in positions[i + 1 :]
        if b - a >= 3
    )
    assert result.n_cost_evals == admissible
    assert fitted.eval_counter == admissible


def test_dynp_refuses_an_impossible_count_before_the_fill():
    signal, _ = pw_constant(GenSpec(300, 2, 3, 0.5, 7))
    fitted = fit(CostSpec("l2"), signal)
    config = SearchConfig(min_size=5)
    with pytest.raises(InfeasibleError, match="the grid admits at most 59"):
        dynp(fitted, 400, config)
    assert fitted.eval_counter == 0
    result = dynp(fitted, 3, config)
    positions = [0] + list(range(5, 296)) + [300]
    fill = sum(1 for a in positions for b in positions if b - a >= 5)
    assert fill == 41_624
    assert result.n_cost_evals == fill


def check_against_dense(spec, data, config, n_layers=None):
    """dynp's packed state on a fit of data against oracle.dense_dynp over a
    second fit's cost(): every matrix entry, read as a row view and as one
    reader.cost, and every layer bitwise; backpointers and ranks on every
    finite cell; the ends and contrast bits of every K up to n_layers,
    max_changes by default."""
    fitted, other = fit(spec, data), fit(spec, data)
    dynp(fitted, 0, config)
    _, min_size, most, positions, reader = _prepare(fitted, config, StoppingRule(n_bkps=0))
    state = reader.state
    n_layers = most if n_layers is None else n_layers
    matrix, layers, backs, ranks = oracle.dense_dynp(other.cost, positions, min_size, n_layers)
    for e, end in enumerate(positions):
        assert state.row(e)[: e + 1].tobytes() == matrix[e, : e + 1].tobytes(), e
        for s, start in enumerate(positions[:e]):
            assert reader.cost(start, end).hex() == matrix[e, s].hex(), (s, e)
    assert reader.n_evals == 0
    for k in range(n_layers + 1):
        result = dynp(fitted, k, config)
        assert result.bkps.ends == oracle.dense_dynp_ends(positions, backs, k), k
        assert result.contrast.hex() == layers[k][-1].hex(), k
        assert state.layers[k].tobytes() == layers[k].tobytes(), k
        if k:
            finite = np.isfinite(layers[k])
            assert np.array_equal(state.back[k - 1][finite], backs[k - 1][finite]), k
            assert np.array_equal(state.rank[finite], ranks[k - 1][finite]), k


@pytest.mark.parametrize("band_entries", [None, 40], ids=["shipped-bands", "many-bands"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_packed_dynp_state_matches_a_dense_reference(family, band_entries, monkeypatch):
    """Tie-heavy signals of 8 to 30 samples, min_size 1 to 3 and jump 1 or
    2, every K up to max_changes: random 0/1 and small-integer samples, and
    a short 0/1 block repeated, whose exact ties the tie-break order settles
    most often.  The shipped bands hold such a grid in one block; at 40
    entries a band it spans several, so each layer reads only a band's
    columns in the tie-break order."""
    if band_entries is not None:
        monkeypatch.setattr(costs, "_BAND_ENTRIES", band_entries)
    rng = np.random.default_rng(110)
    for trial in range(30):
        n, dims = int(rng.integers(8, 31)), int(rng.integers(1, 3))
        if trial % 3 == 2:
            block = rng.integers(0, 2, size=(int(rng.integers(2, 6)), dims))
            data = np.tile(block, (n, 1))[:n].astype(float)
        else:
            data = rng.integers(0, 2 if trial % 3 else 5, size=(n, dims)).astype(float)
        config = SearchConfig(min_size=int(rng.integers(1, 4)), jump=int(rng.integers(1, 3)))
        check_against_dense(CostSpec(**FAMILIES[family]), validate_signal(data), config)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_packed_dynp_state_matches_a_dense_reference_across_shipped_bands(family):
    """A 0/1 signal of 300 samples makes a grid of about 300 positions,
    two of the shipped bands, the second one partial; ten layers."""
    data = np.random.default_rng(111).integers(0, 2, size=(300, 1)).astype(float)
    check_against_dense(CostSpec(**FAMILIES[family]), validate_signal(data), SearchConfig(), 10)


def test_dynp_caches_across_calls():
    rng = np.random.default_rng(104)
    fitted = fresh_fitted(rng.normal(size=50))
    first = dynp(fitted, 4)
    assert first.n_cost_evals > 0
    again = dynp(fitted, 4)
    assert again.n_cost_evals == 0
    assert again.bkps.ends == first.bkps.ends
    assert again.contrast == first.contrast
    smaller = dynp(fitted, 2)
    assert smaller.n_cost_evals == 0
    # a different grid is a different cache entry
    other = dynp(fitted, 2, SearchConfig(jump=2))
    assert other.n_cost_evals > 0


def test_dynp_shared_across_threads_keeps_one_table():
    # threads extending one cached table must not each append layers; a
    # short switch interval makes them interleave inside the layer loop
    signal, _ = pw_constant(GenSpec(600, 2, 6, 1.0, 3))
    reference = fit(CostSpec(family="l2"), signal)
    expected = [dynp(reference, k) for k in range(9)]
    budget = expected[8].contrast
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(3):
            shared = fit(CostSpec(family="l2"), signal)
            dynp(shared, 0)
            calls = {
                "dynp 4": (lambda: dynp(shared, 4), expected[4]),
                "dynp 6": (lambda: dynp(shared, 6), expected[6]),
                "budget": (lambda: solve_budget(shared, budget), solve_budget(reference, budget)),
            }
            found = {}
            threads = [
                threading.Thread(target=lambda key=key: found.update({key: calls[key][0]()}))
                for key in calls
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert found.keys() == calls.keys(), f"trial {trial}"
            answers = [(key, found[key], want) for key, (_, want) in calls.items()]
            answers += [(f"dynp {k}", dynp(shared, k), want) for k, want in enumerate(expected)]
            for label, got, want in answers:
                assert got.bkps.ends == want.bkps.ends, f"trial {trial} {label}"
                assert got.contrast == want.contrast, f"trial {trial} {label}"
    finally:
        sys.setswitchinterval(interval)


def test_dynp_contrast_equals_sum_of_costs():
    rng = np.random.default_rng(105)
    fitted = fresh_fitted(rng.normal(size=(45, 2)))
    result = dynp(fitted, 3)
    assert result.contrast == sum_of_costs(fitted, result.bkps)


def test_solve_budget_returns_fewest_changes():
    steps = np.repeat([0.0, 4.0, 8.0], 20)
    fitted = fresh_fitted(steps)
    result = solve_budget(fitted, budget=1e-12)
    assert result.bkps.ends == (20, 40, 60)
    loose = solve_budget(fitted, budget=1e9)
    assert loose.bkps.ends == (60,)


def test_solve_budget_consistent_with_dynp():
    rng = np.random.default_rng(106)
    fitted = fresh_fitted(rng.normal(size=40))
    v2 = dynp(fitted, 2).contrast
    result = solve_budget(fitted, budget=v2)
    assert result.bkps.n_bkps <= 2
    assert result.contrast <= v2


def test_solve_budget_unreachable():
    rng = np.random.default_rng(107)
    fitted = fresh_fitted(rng.normal(size=30))
    with pytest.raises(BudgetUnreachableError):
        solve_budget(fitted, budget=1e-9, config=SearchConfig(min_size=10))
    with pytest.raises(BadParamError):
        solve_budget(fitted, budget=-1.0)
    with pytest.raises(BadParamError):
        solve_budget(fitted, budget=np.inf)
