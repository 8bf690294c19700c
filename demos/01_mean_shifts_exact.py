"""
Finding mean shifts with the exact solvers
==========================================

Generate a noisy piecewise-constant signal, then recover the change points
two ways: with a known number of changes (dynp) and with a per-segment
penalty when that number is unknown (pelt).
"""

import numpy as np

import segscan as ss

# a 2-d signal with 4 level shifts, unit noise
spec = ss.GenSpec(n_samples=400, n_dims=2, n_bkps=4, noise_std=1.0, seed=7)
signal, truth = ss.pw_constant(spec)
print("true segment ends:", truth.ends)

# every engine works on a fitted cost; L2 measures within-segment variance
fitted = ss.fit(ss.CostSpec(family="l2"), signal)

# if you know there are 4 changes, dynamic programming is exact
exact = ss.dynp(fitted, 4)
print("dynp ends:        ", exact.bkps.ends, " contrast %.1f" % exact.contrast)

# if you do not, penalize each extra segment instead; pelt reads the cost
# matrix dynp left on the fitted cost, so it evaluates no cost again
penalized = ss.pelt(fitted, penalty=15.0)
print("pelt ends:        ", penalized.bkps.ends,
      " (%d new cost evaluations)" % penalized.n_cost_evals)

print("hausdorff dynp vs truth:", ss.hausdorff(truth, exact.bkps))
print("hausdorff pelt vs truth:", ss.hausdorff(truth, penalized.bkps))

# render the segmentation; open the file in a browser to look at it
svg = ss.render_svg(signal, exact.bkps, truth=truth)
with open("mean_shifts.svg", "w") as fh:
    fh.write(svg)
print("wrote mean_shifts.svg")
