"""Exact engines against exhaustive enumeration and pelt against the
unpruned recursion for every cost family, and the engines' answers
independent of whether dynp's cost matrix exists.

Segment costs go through one memo of fitted.cost, as in AC-1, so the
comparison isolates the search; AC-2 certifies the cost values themselves.
The exact-tie instance is an integer-valued l2 signal of constant runs
whose boundaries lie on every grid used, so all refinements of the runs
cost exactly 0.0 and only the tie-break decides.
"""

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
    pelt,
    validate_signal,
)
from segscan.exceptions import SegscanError

FAMILIES = {
    "l2": dict(family="l2"),
    "normal": dict(family="normal"),
    "linear": dict(family="linear"),
    "ar": dict(family="ar", order=1),
    "kernel": dict(family="kernel", kernel="rbf"),
    "mahalanobis": dict(family="mahalanobis"),
}
TIE_DATA = np.repeat([[2.0, -1.0], [-1.0, 3.0], [2.0, 3.0]], 4, axis=0)
# at 4 changes their optimum ties with segmentations whose last end is
# smaller, or which share the last end but not the first, so only the
# lexicographic order of whole end tuples picks the winner
DEEP_TIES = (
    np.array([0.0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0]),
    np.array([1.0, 1, 2, 1, 2, 1, 1, 2, 1, 0, 1]),
)


def random_instance(rng, family, sizes):
    """A signal with one planted change and a random grid config."""
    n = int(rng.integers(*sizes))
    data = rng.normal(size=(n, 2))
    cut = n // 2
    if family == "normal":
        data[cut:] *= rng.uniform(2.0, 4.0)
    elif family == "linear":
        data[:, 0] = np.where(np.arange(n) < cut, 1.0, -1.0) * 2.0 * data[:, 1] + 0.1 * data[:, 0]
    else:
        data[cut:] += rng.normal(scale=2.0, size=2)
    config = SearchConfig(min_size=int(rng.integers(1, 4)), jump=int(rng.integers(1, 4)))
    return data, config


def instances(family, count, seed, sizes=(8, 13)):
    rng = np.random.default_rng(seed)
    out = [random_instance(rng, family, sizes) for _ in range(count)]
    if family == "l2":
        out += [(TIE_DATA, SearchConfig(min_size=m, jump=j)) for m in (1, 3) for j in (1, 2, 4)]
    return out


def fitted_for(family, data, **extra):
    return fit(CostSpec(**FAMILIES[family], **extra), validate_signal(data))


def penalties(memo, n):
    """Penalties spanning the cost scale of the instance, plus zero."""
    scale = abs(memo(0, n)) / 4.0 + 0.01
    return (0.0, 0.1 * scale, scale, 10.0 * scale)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_exact_engines_match_enumeration(family):
    count = 8
    cases = instances(family, count, seed=300)
    if family == "l2":
        cases += [(data, SearchConfig()) for data in DEEP_TIES]
    for trial, (data, config) in enumerate(cases):
        n = len(data)
        fresh = fitted_for(family, data)
        min_size = max(config.min_size, fresh.min_seg_len)
        memo = oracle.MemoCost(fitted_for(family, data).cost)
        expected = {
            pen: oracle.best_penalized(memo, n, pen, min_size=min_size, jump=config.jump)
            for pen in penalties(memo, n)
        }
        for pen, (expect_ends, expect_contrast) in expected.items():
            result = pelt(fresh, pen, config)
            assert result.bkps.ends == expect_ends, f"{family} trial {trial} pen={pen}"
            assert result.contrast == expect_contrast, f"{family} trial {trial} pen={pen}"

        warm = fitted_for(family, data)
        # the tie instances follow the random ones and go deeper, where a
        # layer-2-or-later rank decides
        for k in range(6 if trial >= count else 3):
            expect_ends, expect_value = oracle.best_fixed_k(
                memo, n, k, min_size=min_size, jump=config.jump
            )
            if expect_ends is None:
                break
            result = dynp(warm, k, config)
            assert result.bkps.ends == expect_ends, f"{family} trial {trial} k={k}"
            assert result.contrast == expect_value, f"{family} trial {trial} k={k}"
        # k = 0 always fits, so dynp's matrix exists from here on
        for pen, (expect_ends, expect_contrast) in expected.items():
            result = pelt(warm, pen, config)
            assert result.n_cost_evals == 0
            assert result.bkps.ends == expect_ends, f"{family} trial {trial} pen={pen} warm"
            assert result.contrast == expect_contrast, f"{family} trial {trial} pen={pen} warm"


@pytest.mark.parametrize("family", list(FAMILIES))
def test_greedy_engines_same_with_and_without_dynp_matrix(family):
    stops = (StoppingRule(n_bkps=1), StoppingRule(penalty=1.0), StoppingRule(budget=1.0))
    for trial, (data, config) in enumerate(instances(family, 6, seed=301)):
        warm = fitted_for(family, data)
        dynp(warm, 0, config)
        for engine in (binseg, bottomup):
            for stop in stops:
                try:
                    cold_result = engine(fitted_for(family, data), stop, config)
                except SegscanError as exc:
                    with pytest.raises(type(exc)):
                        engine(warm, stop, config)
                    continue
                warm_result = engine(warm, stop, config)
                label = f"{family} trial {trial} {engine.__name__} {stop}"
                assert warm_result.n_cost_evals == 0, label
                assert warm_result.bkps.ends == cold_result.bkps.ends, label
                assert warm_result.contrast == cold_result.contrast, label


# offset and scale applied to the random instances: near-constant signals and
# badly scaled ones, where the prefix-sum costs lose most of their digits
ILL_CONDITIONED = {"near-constant": (5.0, 1e-7), "badly-scaled": (1e6, 1e-6)}


def ill_conditioned_instances(family, conditioning):
    offset, scale = ILL_CONDITIONED[conditioning]
    return [(offset + scale * data, config) for data, config in instances(family, 8, seed=303)]


def unpruned(fitted, memo, pen, config):
    """oracle.optimal_partitioning on pelt's grid for this fit and config."""
    min_size = max(config.min_size, fitted.min_seg_len)
    return oracle.optimal_partitioning(memo, fitted.n_samples, pen, min_size, config.jump)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_pruned_pelt_equals_unpruned(family):
    """Pruning relies on superadditivity, and skipping the candidates whose
    bound cannot win on monotone costs; check both are lossless per family
    against the unpruned recursion, on random and on ill-conditioned
    instances, bit for bit, at fixed penalties and at penalties on the scale
    of the instance's costs."""
    cases = {"random": instances(family, 5, seed=302, sizes=(40, 90))}
    cases.update((name, ill_conditioned_instances(family, name)) for name in ILL_CONDITIONED)
    for name, cases_of_name in cases.items():
        for trial, (data, config) in enumerate(cases_of_name):
            fitted = fitted_for(family, data)
            memo = oracle.MemoCost(fitted.cost)
            for pen in (0.5, 5.0, 50.0) + penalties(memo, len(data)):
                result = pelt(fitted, pen, config)
                label = f"{family} {name} trial {trial} pen={pen}"
                expected = unpruned(fitted, memo, pen, config)
                assert (result.bkps.ends, result.contrast) == expected, label


def test_pruned_pelt_equals_unpruned_at_exact_ties():
    """Short signals of small integers at penalties of whole and half units:
    l2 costs there are often exact binary fractions, so segmentations with
    different change counts tie exactly on the penalised objective, and a
    candidate whose bound lands exactly on the best total must still be
    evaluated and take part in the tie-break."""
    rng = np.random.default_rng(304)
    for trial in range(60):
        n = int(rng.integers(6, 16))
        data = rng.integers(0, int(rng.integers(2, 4)), size=n).astype(float)
        config = SearchConfig(min_size=int(rng.integers(1, 3)))
        fitted = fitted_for("l2", data)
        memo = oracle.MemoCost(fitted.cost)
        for pen in (0.5, 1.0, 1.5, 2.0):
            result = pelt(fitted, pen, config)
            expected = unpruned(fitted, memo, pen, config)
            assert (result.bkps.ends, result.contrast) == expected, f"trial {trial} pen={pen}"


# the families whose costs come from prefix sums of the rows; on integers
# they are often exact binary fractions
PREFIX_FAMILIES = {
    "l2": dict(family="l2"),
    "mahalanobis": dict(family="mahalanobis"),
    "linear-kernel": dict(family="kernel", kernel="linear"),
}


@pytest.mark.parametrize("family", list(PREFIX_FAMILIES))
def test_pruned_pelt_equals_unpruned_at_exact_ties_on_coarse_grids(family):
    """Small-integer and all-zero signals on grids with min_size up to 4 and
    jump up to 3: totals, and so pelt's heap keys, tie exactly, candidates
    are doomed several ends before they are dropped, and penalty 0 makes
    every refinement of a constant run tie.  pelt must equal the unpruned
    recursion bit for bit."""
    rng = np.random.default_rng(305)
    for trial in range(40):
        n = int(rng.integers(6, 41))
        if trial % 5 == 0:
            data = np.zeros((n, 2))
        else:
            data = rng.integers(0, int(rng.integers(2, 4)), size=(n, 2)).astype(float)
        config = SearchConfig(min_size=int(rng.integers(1, 5)), jump=int(rng.integers(1, 4)))
        fitted = fit(CostSpec(**PREFIX_FAMILIES[family]), validate_signal(data))
        memo = oracle.MemoCost(fitted.cost)
        for pen in (0.0, 0.5, 1.0, 1.5, 2.0):
            result = pelt(fitted, pen, config)
            expected = unpruned(fitted, memo, pen, config)
            label = f"{family} trial {trial} pen={pen} {config}"
            assert (result.bkps.ends, result.contrast) == expected, label


@pytest.mark.parametrize("conditioning", list(ILL_CONDITIONED))
@pytest.mark.parametrize("family", list(FAMILIES))
def test_exact_engines_match_enumeration_on_ill_conditioned_signals(family, conditioning):
    """dynp and the unpruned recursion assume nothing of the costs, so they
    stay exact whatever rounding does to the cost values, and pelt matches
    the recursion bit for bit."""
    for trial, (data, config) in enumerate(ill_conditioned_instances(family, conditioning)):
        n = len(data)
        fresh = fitted_for(family, data)
        min_size = max(config.min_size, fresh.min_seg_len)
        memo = oracle.MemoCost(fitted_for(family, data).cost)
        label = f"{family} {conditioning} trial {trial}"
        for pen in penalties(memo, n):
            expected = unpruned(fresh, memo, pen, config)
            assert expected == oracle.best_penalized(
                memo, n, pen, min_size=min_size, jump=config.jump
            ), f"{label} pen={pen}"
            result = pelt(fresh, pen, config)
            assert (result.bkps.ends, result.contrast) == expected, f"{label} pen={pen}"
        warm = fitted_for(family, data)
        for k in range(3):
            expect_ends, expect_value = oracle.best_fixed_k(
                memo, n, k, min_size=min_size, jump=config.jump
            )
            if expect_ends is None:
                break
            result = dynp(warm, k, config)
            assert result.bkps.ends == expect_ends, f"{label} k={k}"
            assert result.contrast == expect_value, f"{label} k={k}"


def test_pruned_pelt_matches_enumeration_on_ill_conditioned_signals():
    """Every family summarises the centred signal, so its costs keep
    superadditivity on offset signals and pruning stays exact."""
    mismatches = []
    for family in FAMILIES:
        for conditioning in ILL_CONDITIONED:
            for trial, (data, config) in enumerate(ill_conditioned_instances(family, conditioning)):
                n = len(data)
                fresh = fitted_for(family, data)
                min_size = max(config.min_size, fresh.min_seg_len)
                memo = oracle.MemoCost(fitted_for(family, data).cost)
                for pen in penalties(memo, n):
                    expected = oracle.best_penalized(
                        memo, n, pen, min_size=min_size, jump=config.jump
                    )
                    result = pelt(fresh, pen, config)
                    if (result.bkps.ends, result.contrast) != expected:
                        mismatches.append(f"{family} {conditioning} trial {trial} pen={pen}")
    assert not mismatches, mismatches


# integer levels 0 and 65536 with no noise: inside a level the regressor is
# exactly constant, and its squares, 2^32 a row, leave no digit in the prefix
# sums for a ridge of a fixed 1e-8 a row
INTEGER_STEPS = {"up": (0.0, 65536.0), "down": (65536.0, 0.0)}


def integer_step_signal(family, levels):
    """8 rows a level.  ar: the step itself; linear: the step as the
    regressor, the step plus small integer noise as the response."""
    step = np.repeat(levels, 8)
    if family == "ar":
        return step[:, None]
    noise = np.random.default_rng(310).integers(-3, 4, size=len(step))
    return np.column_stack([step + noise, step])


@pytest.mark.parametrize("levels", list(INTEGER_STEPS))
@pytest.mark.parametrize("family", ["linear", "ar"])
def test_exact_engines_match_enumeration_on_integer_steps(family, levels):
    """The slope ridge never falls below the rounding of the prefix sums, so
    every segment stays solvable: pruned pelt and dynp run and match
    enumeration."""
    data = integer_step_signal(family, INTEGER_STEPS[levels])
    n = len(data)
    config = SearchConfig()
    fresh = fitted_for(family, data)
    min_size = max(config.min_size, fresh.min_seg_len)
    memo = oracle.MemoCost(fitted_for(family, data).cost)
    for pen in penalties(memo, n):
        expected = oracle.best_penalized(memo, n, pen, min_size=min_size)
        result = pelt(fresh, pen, config)
        assert (result.bkps.ends, result.contrast) == expected, pen
    warm = fitted_for(family, data)
    for k in range(3):
        result = dynp(warm, k, config)
        expected = oracle.best_fixed_k(memo, n, k, min_size=min_size)
        assert (result.bkps.ends, result.contrast) == expected, k
