"""Engines sharing one fitted cost across threads.

Each engine counts the costs it evaluates itself, so a call's n_cost_evals
is the count it makes alone, however the threads interleave, and the calls'
counts add up to the fitted cost's eval_counter.  The dynp calls run on a
coarser grid than the others, so no other engine can read their table
mid-run and every solo count is fixed.  An rbf fit shared by engines on
two grids and a cost() off both has its image rebuilt under them, and each
call still answers as it does alone.
"""

import sys
import threading

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
    window,
)
from segscan.generators import GenSpec, pw_constant

FINE = SearchConfig(min_size=2, jump=1, window_width=20)
COARSE = SearchConfig(min_size=2, jump=2)
STOP = StoppingRule(n_bkps=5)
DYNP_CALLS = ("dynp 3", "dynp 5", "budget")


# name -> call(fitted, budget)
CALLS = {
    "pelt a": lambda fitted, budget: pelt(fitted, 20.0, FINE),
    "pelt b": lambda fitted, budget: pelt(fitted, 20.0, FINE),
    "binseg": lambda fitted, budget: binseg(fitted, STOP, FINE),
    "bottomup": lambda fitted, budget: bottomup(fitted, STOP, FINE),
    "window": lambda fitted, budget: window(fitted, STOP, FINE),
    "dynp 3": lambda fitted, budget: dynp(fitted, 3, COARSE),
    "dynp 5": lambda fitted, budget: dynp(fitted, 5, COARSE),
    "budget": lambda fitted, budget: solve_budget(fitted, budget, COARSE),
}


def test_shared_fit_counts_each_calls_own_evaluations():
    signal, _ = pw_constant(GenSpec(400, 2, 5, 1.0, 4))
    spec = CostSpec(family="l2")
    budget = dynp(fit(spec, signal), 5, COARSE).contrast
    # each call alone on a fit of its own; the dynp calls make the same fill
    solo = {key: call(fit(spec, signal), budget) for key, call in CALLS.items()}
    fill = solo["dynp 3"].n_cost_evals
    assert fill > 0 and all(solo[key].n_cost_evals == fill for key in DYNP_CALLS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(3):
            shared = fit(spec, signal)
            found = {}

            def run(key):
                found[key] = CALLS[key](shared, budget)

            threads = [threading.Thread(target=run, args=(key,)) for key in CALLS]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert found.keys() == CALLS.keys(), f"trial {trial}"
            for key, got in found.items():
                label = f"trial {trial} {key}"
                assert got.bkps.ends == solo[key].bkps.ends, label
                assert got.contrast == solo[key].contrast, label
                assert got.n_pruned == solo[key].n_pruned, label
                if key not in DYNP_CALLS:
                    assert got.n_cost_evals == solo[key].n_cost_evals, label
            # the one call that built the table reports its fill, the rest 0
            dynp_counts = sorted(found[key].n_cost_evals for key in DYNP_CALLS)
            assert dynp_counts == [0, 0, fill], f"trial {trial}"
            total = sum(result.n_cost_evals for result in found.values())
            assert total == shared.eval_counter, f"trial {trial}"
    finally:
        sys.setswitchinterval(interval)


def test_shared_rbf_fit_answers_each_grid_as_alone():
    """A jump-7 and a jump-10 engine and a cost() off both grids, in
    threads on one rbf fit: the image is built over one grid, then in
    full, in whatever order the threads ask, and
    every call gets the answer it gets on a fit of its own."""
    signal, _ = pw_constant(GenSpec(700, 2, 4, 1.0, 5))
    spec = CostSpec(family="kernel", kernel="rbf")
    calls = {
        "binseg jump 7": lambda fitted: binseg(fitted, STOP, SearchConfig(jump=7)),
        "pelt jump 10": lambda fitted: pelt(fitted, 5.0, SearchConfig(jump=10)),
        "off-grid cost": lambda fitted: [fitted.cost(s, s + 333) for s in range(3, 360, 11)],
    }

    def answer(result):
        if isinstance(result, list):
            return [value.hex() for value in result]
        return result.bkps.ends, result.contrast.hex(), result.n_cost_evals, result.n_pruned

    solo = {key: answer(call(fit(spec, signal))) for key, call in calls.items()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(3):
            shared = fit(spec, signal)
            found = {}

            def run(key):
                found[key] = answer(calls[key](shared))

            threads = [threading.Thread(target=run, args=(key,)) for key in calls]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert found == solo, f"trial {trial}"
    finally:
        sys.setswitchinterval(interval)
