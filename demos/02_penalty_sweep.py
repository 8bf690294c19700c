"""Sweep the pelt penalty and watch the number of detected changes fall.

Small penalties buy many segments, large ones buy few; the plateau around
the true count is usually wide when the shifts are clear.  The exact sweep
over the change count runs first: dynp keeps its segment-cost matrix on the
fitted cost, so the pelt sweep on the same fit reads every cost from it and
evaluates none.
"""

import numpy as np

import segscan as ss

signal, truth = ss.pw_constant(
    ss.GenSpec(n_samples=600, n_dims=1, n_bkps=5, noise_std=1.5, seed=3)
)
fitted = ss.fit(ss.CostSpec(family="l2"), signal)

print("true change count:", truth.n_bkps)
print()
print("changes   contrast   (dynp)")
for n_bkps in range(9):
    result = ss.dynp(fitted, n_bkps)
    print("%7d   %8.1f" % (n_bkps, result.contrast))

print()
print("penalty   changes   contrast   cost evaluations   (pelt)")
for penalty in (0.5, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 300.0):
    result = ss.pelt(fitted, penalty)
    print("%7.1f   %7d   %8.1f   %16d"
          % (penalty, result.bkps.n_bkps, result.contrast, result.n_cost_evals))

# the same trade-off, driven from the other side: ask for the cheapest
# segmentation whose total cost fits a budget
budget = ss.solve_budget(fitted, 1.1 * ss.dynp(fitted, 5).contrast)
print()
print("cheapest segmentation within 110%% of the 5-change optimum: %d changes"
      % budget.bkps.n_bkps)
