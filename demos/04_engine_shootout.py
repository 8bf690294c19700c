"""Compare all five engines on one signal at the same change count.

dynp is exact, so its contrast is the floor; binseg, bottomup and window
trade a little contrast for a lot of speed.  Only dynp keeps a dense
segment cost matrix on the fitted cost; every engine that runs after it on
the same grid reads that matrix, while the others evaluate on demand and
pay again when repeated -- run the script and watch the eval column.
"""

import time

import segscan as ss

K = 6
signal, truth = ss.pw_constant(
    ss.GenSpec(n_samples=2000, n_dims=3, n_bkps=K, noise_std=2.0, seed=12)
)
config = ss.SearchConfig(min_size=10, jump=5, window_width=100)
fitted = ss.fit(ss.CostSpec(family="l2"), signal)


def race(name, runner):
    t0 = time.perf_counter()
    result = runner()
    wall = (time.perf_counter() - t0) * 1e3
    print("%-9s contrast %10.1f   evals %6d   %7.1f ms   hausdorff %d"
          % (name, result.contrast, result.n_cost_evals, wall,
             ss.hausdorff(truth, result.bkps)))
    return result


stop = ss.StoppingRule(n_bkps=K)
race("binseg", lambda: ss.binseg(fitted, stop, config))
race("bottomup", lambda: ss.bottomup(fitted, stop, config))
race("window", lambda: ss.window(fitted, stop, config))
race("pelt", lambda: ss.pelt(fitted, 200.0, config))
exact = race("dynp", lambda: ss.dynp(fitted, K, config))

# second pass: dynp's matrix is built, so dynp and binseg evaluate nothing
print()
print("again, after dynp built its matrix:")
race("dynp", lambda: ss.dynp(fitted, K, config))
race("binseg", lambda: ss.binseg(fitted, stop, config))
