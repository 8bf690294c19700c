"""Memory bounds of the search engines.

Only dynp and solve_budget hold a dense grid x grid cost matrix, and they
refuse grids above 20,000 positions before allocating it or building an
rbf image.  The other engines keep O(T) state, checked by the peak RSS of
a fresh process.  bottomup has its own, shorter signal.  An rbf fit
builds no integral image: an engine builds one over the ends of its grid,
and a cost() call off every grid builds the full one.  The full image is packed to the lower triangle,
so it raises the peak RSS by about half an n x n matrix.  Each row band of
it is a block of its own, at most 512 KiB, so that once glibc has freed the
first mapped block and raised its mmap threshold to that size, it serves
the blocks from its heap and reuses freed ones: full images of growing
length, as a CLI batch's set-up makes them, raise the peak RSS by not much
more than the largest image.
The jump-10 engines of that batch build images of a tenth of the rows and
raise it by a few MB.  Those checks run in a child process with a capped
address space; the dynp layer's working set, and that of each greedy
engine, are measured in process with tracemalloc.
"""

import json
import platform
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from segscan import (
    CostSpec,
    SearchConfig,
    StoppingRule,
    binseg,
    bottomup,
    costs,
    dynp,
    fit,
    solve_budget,
    window,
)
from segscan.costs import _image_entries
from segscan.exceptions import MemoryBudgetError
from segscan.generators import GenSpec, pw_constant

LARGE_T = 6000
DENSE_MB = (LARGE_T + 1) ** 2 * 8 / 1e6
BOTTOMUP_T = 4000
BOTTOMUP_DENSE_MB = (BOTTOMUP_T + 1) ** 2 * 8 / 1e6
RBF_T = 3000
RBF_GRAM_MB = RBF_T**2 * 8 / 1e6
# the rbf signal lengths of one benchmark CLI batch, shortest first
BATCH_RBF_TS = (1275, 1689, 2103, 2517, 2931)
BATCH_IMAGE_MB = 8 * _image_entries(max(BATCH_RBF_TS)) / 1e6
OVER_LIMIT_T = 20_000  # grid of 20,001 positions with jump 1
BOTTOMUP_STATE_T = 10_000
# bytes per grid position: the grid's and bottomup's list of current ends'
# Python ints and lists and three float arrays take about 110; a memo of the
# evaluated segments and its (start, end) keys bring that to about 480.  The
# same bound holds binseg's two cost rows, its heap of one best split per
# segment and dict of segment costs, and window's three cost arrays
BOTTOMUP_BYTES_PER_POSITION = 250
ADDRESS_CAP = 2**30
# the child's own high-water RSS.  Not ru_maxrss: Linux carries that across
# execve, so a child forked from a large test runner would report the
# runner's RSS instead of its own.
PEAK_MB_SOURCE = """
def peak_rss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
"""


def run_capped(*args):
    """Run a child Python whose address space is capped at 1 GiB, so a
    regression that allocates a dense matrix fails with MemoryError in the
    child instead of taking the memory from the host."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))

    return subprocess.run([sys.executable, *args], capture_output=True, text=True, preexec_fn=cap)


LARGE_T_CHILD = PEAK_MB_SOURCE + f"""
import json, math
import numpy as np
from segscan import CostSpec, SearchConfig, StoppingRule, binseg, fit, pelt, window

rng = np.random.default_rng(7)
levels = np.cumsum(rng.choice([-1.0, 1.0], size=60) * rng.uniform(3.0, 5.0, size=60))
signal = np.repeat(levels, 100) + rng.normal(size={LARGE_T})
fitted = fit(CostSpec("l2"), signal)
config = SearchConfig(jump=1, window_width=40)
found = {{
    "pelt": pelt(fitted, 3.0 * math.log({LARGE_T}), config).bkps.n_bkps,
    "binseg": binseg(fitted, StoppingRule(n_bkps=59), config).bkps.n_bkps,
    "window": window(fitted, StoppingRule(n_bkps=59), config).bkps.n_bkps,
}}
peak_mb = peak_rss_mb()
print(json.dumps({{"found": found, "peak_mb": peak_mb}}))
"""

BOTTOMUP_CHILD = PEAK_MB_SOURCE + f"""
import json
import numpy as np
from segscan import CostSpec, SearchConfig, StoppingRule, bottomup, fit

rng = np.random.default_rng(8)
levels = np.cumsum(rng.choice([-1.0, 1.0], size=40) * rng.uniform(3.0, 5.0, size=40))
signal = np.repeat(levels, 100) + rng.normal(size={BOTTOMUP_T})
found = bottomup(fit(CostSpec("l2"), signal), StoppingRule(n_bkps=39), SearchConfig(jump=1))
peak_mb = peak_rss_mb()
print(json.dumps({{"found": found.bkps.n_bkps, "peak_mb": peak_mb}}))
"""

RBF_CHILD = PEAK_MB_SOURCE + f"""
import json
import numpy as np
from segscan import CostSpec, fit

signal = np.random.default_rng(9).normal(size=({RBF_T}, 2))
before_mb = peak_rss_mb()
fitted = fit(CostSpec(family="kernel", kernel="rbf"), signal)
# a first cost() builds the full image
cost = fitted.cost(0, {RBF_T})
rise_mb = peak_rss_mb() - before_mb
print(json.dumps({{"cost": cost, "rise_mb": rise_mb}}))
"""

RBF_BATCH_CHILD = PEAK_MB_SOURCE + f"""
import json
import numpy as np
from segscan import CostSpec, fit

rng = np.random.default_rng(10)
signals = [rng.normal(size=(n, 2)) for n in {BATCH_RBF_TS} for _ in range(3)]
before_mb = peak_rss_mb()
costs = []
for signal in signals:
    fitted = fit(CostSpec(family="kernel", kernel="rbf"), signal)
    # a first cost() builds the full image
    costs.append(fitted.cost(0, len(signal)))
    del fitted
rise_mb = peak_rss_mb() - before_mb
print(json.dumps({{"costs": costs, "rise_mb": rise_mb}}))
"""

RBF_GRID_CHILD = PEAK_MB_SOURCE + f"""
import json
import numpy as np
from segscan import CostSpec, SearchConfig, StoppingRule, binseg, fit, window

rng = np.random.default_rng(11)
signals = [rng.normal(size=(n, 2)) for n in {BATCH_RBF_TS} for _ in range(3)]
stop = StoppingRule(n_bkps=3)
configs = ((window, SearchConfig(jump=10, window_width=100)), (binseg, SearchConfig(jump=10)))
before_mb = peak_rss_mb()
found = []
for signal in signals:
    fitted = fit(CostSpec(family="kernel", kernel="rbf"), signal)
    found += [engine(fitted, stop, config).bkps.n_bkps for engine, config in configs]
    del fitted
rise_mb = peak_rss_mb() - before_mb
print(json.dumps({{"found": found, "rise_mb": rise_mb}}))
"""

OVER_LIMIT_CHILD = f"""
import numpy as np
from segscan import CostSpec, dynp, fit, solve_budget
from segscan.exceptions import MemoryBudgetError

fitted = fit(CostSpec("l2"), np.zeros({OVER_LIMIT_T}))
for name, call in (("dynp", lambda: dynp(fitted, 1)), ("solve_budget", lambda: solve_budget(fitted, 0.0))):
    try:
        call()
    except MemoryBudgetError:
        print(name, "refused after", fitted.eval_counter, "evals")
    else:
        print(name, "ran")
"""


def test_non_dynp_engines_stay_far_below_a_dense_matrix():
    proc = run_capped("-c", LARGE_T_CHILD)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["found"] == {"pelt": 59, "binseg": 59, "window": 59}
    assert report["peak_mb"] < DENSE_MB / 2, (
        f"peak RSS {report['peak_mb']:.0f} MB; a dense cost matrix alone is {DENSE_MB:.0f} MB"
    )


def test_bottomup_stays_far_below_a_dense_matrix():
    proc = run_capped("-c", BOTTOMUP_CHILD)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["found"] == 39
    assert report["peak_mb"] < BOTTOMUP_DENSE_MB / 2, (
        f"peak RSS {report['peak_mb']:.0f} MB; a dense cost matrix alone is "
        f"{BOTTOMUP_DENSE_MB:.0f} MB"
    )


def test_rbf_fit_stays_well_below_a_gram_matrix():
    proc = run_capped("-c", RBF_CHILD)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["cost"] > 0.0
    assert report["rise_mb"] < 0.6 * RBF_GRAM_MB, (
        f"an rbf fit raised the peak RSS by {report['rise_mb']:.1f} MB; "
        f"the Gram matrix alone is {RBF_GRAM_MB:.0f} MB"
    )


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the bound rests on glibc's malloc, which serves blocks up to its 32 MiB "
    "mmap threshold ceiling from the heap and keeps them there once freed",
)
def test_rbf_fits_of_a_cli_batch_reuse_freed_images():
    """Fits of growing length, each dropped before the next, as one CLI
    batch makes them: freed blocks are reused, so the peak RSS rises by not
    much more than the largest image, not by that image on top of the
    smaller ones glibc still holds."""
    proc = run_capped("-c", RBF_BATCH_CHILD)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert all(cost > 0.0 for cost in report["costs"])
    assert report["rise_mb"] < 1.5 * BATCH_IMAGE_MB, (
        f"15 rbf fits raised the peak RSS by {report['rise_mb']:.1f} MB; "
        f"the largest image alone is {BATCH_IMAGE_MB:.1f} MB"
    )


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the bound rests on glibc's malloc reusing the freed images of earlier fits",
)
def test_rbf_engines_on_a_coarse_grid_build_no_full_image():
    """The CLI batch's rbf signals, each fitted and queried by a jump-10
    window and binseg: the images cover the grid's ends, a tenth of the
    rows, so the peak RSS rises by a few MB where the largest full image
    alone takes 34.6 MB."""
    proc = run_capped("-c", RBF_GRID_CHILD)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["found"] == [3] * 2 * 3 * len(BATCH_RBF_TS)
    assert report["rise_mb"] < 8.0, (
        f"15 rbf fits on a jump-10 grid raised the peak RSS by {report['rise_mb']:.1f} MB; "
        f"the largest full image alone is {BATCH_IMAGE_MB:.1f} MB"
    )


def test_dense_engines_refuse_grids_over_the_limit():
    proc = run_capped("-c", OVER_LIMIT_CHILD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "dynp refused after 0 evals",
        "solve_budget refused after 0 evals",
    ]


def test_cli_dynp_over_the_limit_is_exit_4(tmp_path):
    path = tmp_path / "long.csv"
    np.savetxt(path, np.zeros(OVER_LIMIT_T), fmt="%.1f")
    proc = run_capped("-m", "segscan", "detect", "--input", str(path), "--method", "dynp",
                      "--n-bkps", "1")
    assert proc.returncode == 4, proc.stderr
    assert "MemoryBudgetError" in proc.stderr


def test_dense_engines_refuse_before_the_rbf_image(monkeypatch):
    """At a side limit patched to 60, an rbf fit of 60 samples passes the
    image's check, but its grid has 61 positions: dynp and solve_budget
    refuse dynp's matrix before the image over the grid is built, so
    nothing is built and nothing evaluated."""
    monkeypatch.setattr(costs, "_DENSE_SIDE_LIMIT", 60)
    data = np.random.default_rng(17).normal(size=60)
    for call in (lambda fitted: dynp(fitted, 1), lambda fitted: solve_budget(fitted, 1.0)):
        fitted = fit(CostSpec("kernel", kernel="rbf"), data)
        with pytest.raises(MemoryBudgetError, match="dynp's cost matrix"):
            call(fitted)
        assert fitted._image[1] is None
        assert fitted.eval_counter == 0


def test_dynp_layer_keeps_one_matrix_sized_temporary():
    """A layer permutes the matrix one row band at a time, so six layers
    over a cached 601-position matrix allocate well under a second matrix."""
    rng = np.random.default_rng(8)
    fitted = fit(CostSpec("l2"), rng.normal(size=600))
    dynp(fitted, 0)
    matrix_bytes = 601**2 * 8
    tracemalloc.start()
    try:
        dynp(fitted, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * matrix_bytes, f"{peak} bytes at peak for a {matrix_bytes}-byte matrix"


def test_dynp_fill_keeps_about_half_a_dense_matrix():
    """dynp's matrix is packed to its lower triangle in row-band blocks, 0.52
    of a dense count x count float64 matrix on a 1,200-position grid, so
    filling it peaks under 0.55 of one with the grid's lists and one row's
    temporaries (a dense matrix alone is 1.0)."""
    fitted = fit(CostSpec("l2"), np.random.default_rng(9).normal(size=1199))
    tracemalloc.start()
    try:
        dynp(fitted, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense_bytes = 8 * 1200**2
    assert peak <= 0.55 * dense_bytes, f"{peak} bytes at peak; a dense matrix is {dense_bytes}"


def test_dynp_fill_evaluates_wide_rows_in_bounded_chunks():
    """A 30-column normal fit keeps a 31 x 31 summary per sample, so one
    stacked body over a whole 400-start row would hold about 3 MB per
    temporary.  The fill evaluates each row in chunks of about
    _BAND_ENTRIES floats, so it peaks under its packed matrix plus three
    chunks."""
    fitted = fit(CostSpec("normal"), np.random.default_rng(10).normal(size=(399, 30)))
    tracemalloc.start()
    try:
        dynp(fitted, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 0.55 * 8 * 400**2 + 3 * 8 * costs._BAND_ENTRIES
    assert peak <= bound, f"{peak} bytes at peak; the bound is {bound}"


def check_grid_sized_state(engine, config=None):
    """One greedy engine call with 100 change points on an l2 signal of
    BOTTOMUP_STATE_T samples: its tracemalloc peak stays under
    BOTTOMUP_BYTES_PER_POSITION bytes a grid position, and its
    n_cost_evals is the fit's eval_counter."""
    signal, _ = pw_constant(GenSpec(BOTTOMUP_STATE_T, 2, 100, 1.0, 1))
    fitted = fit(CostSpec("l2"), signal)
    tracemalloc.start()
    try:
        found = engine(fitted, StoppingRule(n_bkps=100), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.bkps.n_bkps == 100
    assert found.n_cost_evals == fitted.eval_counter
    bound = BOTTOMUP_BYTES_PER_POSITION * (BOTTOMUP_STATE_T + 1)
    assert peak < bound, f"{peak} bytes at peak; the bound is {bound}"


def test_bottomup_keeps_grid_sized_state():
    """bottomup holds its segment, spanning and merge costs in float arrays
    over the grid and evaluates no segment twice, so it keeps no memo: its
    working set stays a few hundred bytes per grid position."""
    check_grid_sized_state(bottomup)


def test_binseg_keeps_grid_sized_state():
    """binseg keeps each unsplit segment's two cost rows as slices of two
    float arrays over the grid, which a split's children inherit, and one
    heap entry and one dict cost per segment, so it keeps no memo of the
    segments it evaluates."""
    check_grid_sized_state(binseg)


def test_window_keeps_grid_sized_state():
    """window keeps its full-window and half-window costs in float arrays
    over its centres and reads the contrast's segments from them, so it
    keeps no memo of the segments it evaluates."""
    check_grid_sized_state(window, SearchConfig(window_width=100))
