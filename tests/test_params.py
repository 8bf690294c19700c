"""One rule for every integer and real parameter, wherever it is passed.

Integers: Python or numpy integers, not bool, at least the site's minimum,
stored as int.  Reals: anything float() takes except bool, str and bytes,
finite and >= 0 (> 0 for gamma), stored as float.  Flags: Python or numpy
bools only, stored as bool.  Every violation raises BadParamError.
"""

from operator import attrgetter

import numpy as np
import pytest

from segscan import (
    CostSpec,
    GenSpec,
    SearchConfig,
    StoppingRule,
    dynp,
    fit,
    pelt,
    precision_recall,
    solve_budget,
    validate_breakpoints,
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


# a truthy string or a falsy None would otherwise switch pelt's pruning silently
@pytest.mark.parametrize(
    "value", ["False", "True", None, 0, 1, np.int64(1), 1.0, [True]], ids=repr
)
def test_superadditive_must_be_a_bool(value):
    with pytest.raises(BadParamError, match="superadditive"):
        CostSpec("l2", superadditive=value)


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
def test_superadditive_is_stored_as_bool(value):
    stored = CostSpec("l2", superadditive=value).superadditive
    assert type(stored) is bool and stored == bool(value)
