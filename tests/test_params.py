"""One rule for every integer and real parameter, wherever it is passed.

Integers: Python or numpy integers, not bool, at least the site's minimum,
stored as int.  Reals: anything float() takes except bool, str and bytes,
finite and >= 0 (> 0 for gamma), stored as float.  Flags: Python or numpy
bools only, stored as bool.  Every violation raises BadParamError.
"""

import warnings
from operator import attrgetter

import numpy as np
import pytest

from segscan import (
    CostSpec,
    GenSpec,
    SearchConfig,
    StoppingRule,
    binseg,
    bottomup,
    dynp,
    fit,
    pelt,
    precision_recall,
    solve_budget,
    validate_breakpoints,
    window,
)
from segscan.exceptions import BadParamError

DATA = np.repeat([0.0, 3.0, -1.0], 10) + np.tile([0.1, -0.1], 15)
TRUTH = validate_breakpoints((10, 20, 30), 30)


def _fitted():
    return fit(CostSpec("l2"), DATA)


# name, minimum, a valid value, make(value), read(made) -> the stored value, or
# None for a call, whose result must then equal the call with a Python number
INT_SITES = [
    ("StoppingRule.n_bkps", 0, 2, lambda v: StoppingRule(n_bkps=v), attrgetter("n_bkps")),
    ("SearchConfig.min_size", 1, 2, lambda v: SearchConfig(min_size=v), attrgetter("min_size")),
    ("SearchConfig.jump", 1, 2, lambda v: SearchConfig(jump=v), attrgetter("jump")),
    ("SearchConfig.window_width", 2, 4, lambda v: SearchConfig(window_width=v),
     attrgetter("window_width")),
    ("CostSpec.order", 1, 2, lambda v: CostSpec("ar", order=v), attrgetter("order")),
    ("GenSpec.n_samples", 1, 20, lambda v: GenSpec(n_samples=v), attrgetter("n_samples")),
    ("GenSpec.n_dims", 1, 2, lambda v: GenSpec(20, n_dims=v), attrgetter("n_dims")),
    ("GenSpec.n_bkps", 0, 2, lambda v: GenSpec(20, n_bkps=v), attrgetter("n_bkps")),
    ("GenSpec.seed", 0, 7, lambda v: GenSpec(20, seed=v), attrgetter("seed")),
    ("dynp.n_bkps", 0, 2, lambda v: dynp(_fitted(), v), None),
]

# name, positive, a valid value, make(value), read as for INT_SITES
REAL_SITES = [
    ("StoppingRule.penalty", False, 1.5, lambda v: StoppingRule(penalty=v),
     attrgetter("penalty")),
    ("StoppingRule.budget", False, 1.5, lambda v: StoppingRule(budget=v), attrgetter("budget")),
    ("CostSpec.gamma", True, 0.5, lambda v: CostSpec("kernel", gamma=v), attrgetter("gamma")),
    ("GenSpec.noise_std", False, 0.5, lambda v: GenSpec(20, noise_std=v),
     attrgetter("noise_std")),
    ("precision_recall.margin", False, 1.5, lambda v: precision_recall(TRUTH, TRUTH, v), None),
    ("pelt.penalty", False, 1.5, lambda v: pelt(_fitted(), v), None),
    ("solve_budget.budget", False, 1.5, lambda v: solve_budget(_fitted(), v), None),
]

MALFORMED = ["x", [1], True, np.True_, np.nan, np.inf, -np.inf]


def _label(name, value):
    text = repr(value)
    return f"{name}-{text if len(text) < 20 else 'huge-' + type(value).__name__}"


def _int_cases():
    for name, minimum, _good, make, _read in INT_SITES:
        bad = MALFORMED + [minimum - 1, np.int64(minimum - 1), float(minimum + 1),
                           np.float64(minimum + 1), str(minimum + 1)]
        if name != "SearchConfig.window_width":  # None leaves the width unset
            bad.append(None)
        for value in bad:
            yield pytest.param(make, value, id=_label(name, value))


def _real_cases():
    for name, positive, _good, make, _read in REAL_SITES:
        bad = MALFORMED + [None, -1.0, np.float64(-1e-300), "1.5", b"1.5", 10**400]
        if positive:
            bad += [0.0, np.float64(0.0), 0]
        for value in bad:
            yield pytest.param(make, value, id=_label(name, value))


@pytest.mark.parametrize(("make", "value"), [*_int_cases(), *_real_cases()])
def test_malformed_parameter_raises_bad_param(make, value):
    with pytest.raises(BadParamError):
        make(value)


@pytest.mark.parametrize(
    ("make", "good", "read"),
    [pytest.param(make, good, read, id=name) for name, _, good, make, read in INT_SITES],
)
def test_numpy_integers_are_stored_as_int(make, good, read):
    for value in (np.int64(good), np.int32(good), np.uint8(good)):
        made = make(value)
        if read is None:
            assert made == make(good)
        else:
            assert type(read(made)) is int and read(made) == good


@pytest.mark.parametrize(
    ("make", "good", "read"),
    [pytest.param(make, good, read, id=name) for name, _, good, make, read in REAL_SITES],
)
def test_numpy_reals_are_stored_as_float(make, good, read):
    for value in (np.float64(good), np.float32(good), np.int64(1)):
        made = make(value)
        if read is None:
            assert made == make(float(value))
        else:
            assert type(read(made)) is float and read(made) == float(value)


def test_cost_spec_has_no_superadditive_field():
    """Every family is superadditive and pelt always prunes, so there is no
    declaration to make: the keyword is refused like any unknown one."""
    with pytest.raises(TypeError, match="superadditive"):
        CostSpec("l2", superadditive=True)


# a metric numpy cannot read as a real float64 matrix, or one with non-finite
# entries; a complex one is refused rather than cut to its real part
@pytest.mark.parametrize(
    ("metric", "match"),
    [
        pytest.param([["a", "b"], ["c", "d"]], "PSD matrix", id="strings"),
        pytest.param([[1.0, 2.0], [3.0]], "PSD matrix", id="ragged"),
        pytest.param([[1.0, [2.0]], [3.0, 4.0]], "PSD matrix", id="ragged-nested"),
        pytest.param([[1.0 + 2.0j, 0.0], [0.0]], "PSD matrix", id="ragged-complex"),
        pytest.param(np.array([[2 + 5j, 0], [0, 1]]), "PSD matrix", id="complex-array"),
        pytest.param([[1 + 0j, 0], [0, 1]], "PSD matrix", id="complex-list-real-values"),
        pytest.param(np.array([[1 + 2j, 0], [0, 1]], dtype=object), "PSD matrix",
                     id="complex-objects"),
        pytest.param({"a": 1}, "PSD matrix", id="dict"),
        pytest.param("foo", "PSD matrix or 'auto'", id="unknown-name"),
        pytest.param([[10**400, 0], [0, 1]], "PSD matrix", id="huge-int"),
        pytest.param([[np.inf, 0.0], [0.0, 1.0]], "finite", id="inf"),
        pytest.param([[1.0, 0.0], [0.0, -np.inf]], "finite", id="-inf"),
        pytest.param([[np.nan, 0.0], [0.0, 1.0]], "finite", id="nan"),
        pytest.param(np.full((3, 3), np.nan), "finite", id="all-nan"),
    ],
)
def test_malformed_metric_raises_bad_param(metric, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParamError, match=match):
            CostSpec("mahalanobis", metric=metric)


@pytest.mark.parametrize(
    "metric",
    [
        [[2, 1], [1, 2]],
        np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.float32),
        np.array([[2, 1], [1, 2]], dtype=object),
        [["2", "1"], ["1", "2"]],
    ],
    ids=["int-list", "float32", "objects", "numeric-strings"],
)
def test_real_metric_is_stored_as_a_read_only_float64_copy(metric):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stored = CostSpec("mahalanobis", metric=metric).metric
    assert stored.dtype == np.float64 and not stored.flags.writeable
    assert stored is not metric and not np.shares_memory(stored, np.asarray(metric))
    assert stored.tolist() == [[2.0, 1.0], [1.0, 2.0]]


# every engine with its other arguments valid, so only the config can fail
ENGINES = {
    "dynp": lambda fitted, config: dynp(fitted, 1, config),
    "solve_budget": lambda fitted, config: solve_budget(fitted, 1.0, config),
    "pelt": lambda fitted, config: pelt(fitted, 1.0, config),
    "binseg": lambda fitted, config: binseg(fitted, StoppingRule(n_bkps=1), config),
    "bottomup": lambda fitted, config: bottomup(fitted, StoppingRule(n_bkps=1), config),
    "window": lambda fitted, config: window(fitted, StoppingRule(n_bkps=1), config),
}


@pytest.mark.parametrize("config", [{"min_size": 2}, "SearchConfig"], ids=repr)
@pytest.mark.parametrize("engine", list(ENGINES))
def test_engines_refuse_a_config_that_is_not_a_search_config(engine, config):
    fitted = _fitted()
    with pytest.raises(BadParamError, match="expected a SearchConfig"):
        ENGINES[engine](fitted, config)
    assert fitted.eval_counter == 0


def _bad_rules():
    """(engine, a bad stopping argument, what the rule's BadParamError says):
    the greedy engines take a StoppingRule, the others the one scalar they
    wrap in one."""
    for engine in (binseg, bottomup, window):
        for stop in (None, 1, {"n_bkps": 1}):
            yield engine, stop, "expected a StoppingRule"
    for engine, name in ((dynp, "n_bkps"), (pelt, "penalty"), (solve_budget, "budget")):
        for stop in (-1, "1", np.nan):
            yield engine, stop, f"{name} must be "


@pytest.mark.parametrize(
    ("engine", "stop", "match"),
    [pytest.param(*case, id=f"{case[0].__name__}-{case[1]!r}") for case in _bad_rules()],
)
def test_greedy_engines_check_the_stopping_rule_before_the_config(engine, stop, match):
    fitted = _fitted()
    with pytest.raises(BadParamError, match=match):
        engine(fitted, stop, "SearchConfig")
    assert fitted.eval_counter == 0
