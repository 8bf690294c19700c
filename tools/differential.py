"""Compare the answers of two source trees on one generator of cases.

The same seeded cases run through segscan's public API twice, each time in a
subprocess of this script: once with PYTHONPATH=DIR/src (the base) and once
with this checkout's src (the head).  Per engine call it compares the ends,
the contrast's bits (float.hex), n_cost_evals, n_pruned, the fit's
eval_counter delta over the call, and the class of any exception.  A
different answer (ends, contrast bits or exception class) is a mismatch and
makes the tool exit with status 1.  A different count (n_cost_evals,
n_pruned or the eval_counter delta) is a count change: each is named, and a
change that means to move counts says so, but none fails the run.

Two modes run in turn:

- small: per seed, --cases cases cycling the six families (l2, normal,
  linear, ar of order 2, rbf, mahalanobis), T 8-60 with 1-3 columns, in
  three kinds: integer constant runs with exact ties, mirrored 0/1
  patterns and noisy steps; min_size 1-4 and jump 1-3.  The rules are two
  n_bkps (0-5, and T, which cannot fit), three penalties (uniform 0-3, 0,
  integer 0-3) and two budgets (a share of c(0, T), and 0).  n_bkps runs
  dynp, binseg, bottomup and window, a penalty pelt and the three greedy
  engines, a budget solve_budget and the three;
- long: per seed, one case for every 20 small ones (at least one), each
  with one rule of each kind (n_bkps 1-12, a penalty, a budget share of
  0.2-0.9) and windows 40-120 wide.  The cases at index 0 and 2 mod 3 are
  rbf on piecewise constant signals like pw_constant's, T 500-3,000 with
  1-3 columns and 2-8 changes, those at 2 mod 3 rounded to integers, on
  grids of min_size 1-5 and jump 3-10, at penalties 1-30.
  The case at index 1 mod 3 is normal on a signal like pw_normal's, T
  200-600 with 2 columns whose correlation flips at 2-8 changes, on grids
  of min_size 1-5 (normal raises it to 3) and jump 1-3, at penalties
  15-80, where pelt's loop evaluates about 10 to 80 live candidates at
  each end.  dynp and solve_budget run only on grids of at most 400
  ends.

Each call gets a fresh fit, once as it is and once after dynp(fitted, 0,
config) has filled dynp's matrix (where dynp runs), so both the costs and
the matrix reads are compared.

Run from the repository root:

    python3 tools/differential.py --base DIR [--seeds 1 2] [--cases 400]

DIR is another checkout, for example a clone of the parent commit; ``--base
.`` runs the checkout against itself.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ["l2", "normal", "linear", "ar", "rbf", "mahalanobis"]
ENGINES = {
    "n_bkps": ["dynp", "binseg", "bottomup", "window"],
    "penalty": ["pelt", "binseg", "bottomup", "window"],
    "budget": ["solve_budget", "binseg", "bottomup", "window"],
}
# the long mode runs dynp's matrix on grids of at most this many ends
DYNP_ENDS = 400
ANSWER = ("ends", "contrast", "error")
COUNTS = ("n_cost_evals", "n_pruned", "eval_delta")


def _small_signal(rng: np.random.Generator, n: int, d: int, kind: int) -> np.ndarray:
    """n samples of d columns: integer constant runs (kind 0), whose equal
    levels tie exactly, a 0/1 pattern followed by its mirror image (1), or
    noisy steps (2)."""
    if kind == 0:
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, 5)), replace=False))
        levels = rng.integers(0, 4, size=(len(cuts) + 1, d))
        return np.repeat(levels, np.diff([0, *cuts.tolist(), n]), axis=0).astype(float)
    if kind == 1:
        half = rng.integers(0, 2, size=(-(-n // 2), d)).astype(float)
        return np.concatenate([half, half[::-1]])[:n]
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, 4)), replace=False))
    levels = rng.normal(scale=2.0, size=(len(cuts) + 1, d))
    steps = np.repeat(levels, np.diff([0, *cuts.tolist(), n]), axis=0)
    return steps + rng.normal(scale=0.5, size=(n, d))


def _cuts(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k sorted change points at least n / (4 (k + 1)) apart and from both
    ends."""
    spacing = n // (4 * (k + 1))
    return np.sort(rng.integers(0, n - (k + 1) * spacing + 1, size=k)) + spacing * np.arange(1, k + 1)


def _long_signal(rng: np.random.Generator, n: int, d: int, k: int) -> np.ndarray:
    """pw_constant's kind of signal, drawn here so that it never depends on
    the tree: k changes at least n / (4 (k + 1)) apart, the first level at
    0, each change a jump of random sign and magnitude in [1, 5] per column,
    and Gaussian noise of scale 0.5-1.5."""
    cuts = _cuts(rng, n, k)
    jumps = rng.choice([-1.0, 1.0], size=(k, d)) * rng.uniform(1.0, 5.0, size=(k, d))
    levels = np.cumsum(np.vstack([np.zeros((1, d)), jumps]), axis=0)
    steps = np.repeat(levels, np.diff([0, *cuts.tolist(), n]), axis=0)
    return steps + rng.normal(scale=rng.uniform(0.5, 1.5), size=(n, d))


def _normal_signal(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """pw_normal's kind of signal: zero-mean 2-d Gaussian noise whose
    correlation flips between +0.9 and -0.9 at k changes placed as
    _long_signal places them, mixed elementwise so that no BLAS call can
    move a bit."""
    cuts = _cuts(rng, n, k)
    raw = rng.standard_normal((n, 2))
    rho = np.repeat(np.resize([0.9, -0.9], k + 1), np.diff([0, *cuts.tolist(), n]))
    return np.column_stack([raw[:, 0], rho * raw[:, 0] + np.sqrt(1.0 - rho * rho) * raw[:, 1]])


def generate(mode: str, seed: int, count: int) -> list[dict]:
    """count cases of a mode, the same for every tree: a budget is held as
    a share of c(0, T), which each tree prices itself."""
    rng = np.random.default_rng([seed, 0 if mode == "small" else 1])
    cases = []
    for index in range(count):
        if mode == "small":
            n, d = int(rng.integers(8, 61)), int(rng.integers(1, 4))
            data = _small_signal(rng, n, d, index % 3)
            family = FAMILIES[index % len(FAMILIES)]
            min_size, jump = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            width = int(rng.integers(2 * min_size, 2 * min_size + 12))
            rules = [("n_bkps", int(rng.integers(0, 6))), ("n_bkps", n),
                     ("penalty", float(rng.uniform(0.0, 3.0))), ("penalty", 0.0),
                     ("penalty", float(rng.integers(0, 4))),
                     ("budget", float(rng.uniform(0.0, 1.0))), ("budget", 0.0)]
        else:
            family = "normal" if index % 3 == 1 else "rbf"
            if family == "normal":
                n = int(rng.integers(200, 601))
                data = _normal_signal(rng, n, int(rng.integers(2, 9)))
            else:
                n, d = int(rng.integers(500, 3001)), int(rng.integers(1, 4))
                data = _long_signal(rng, n, d, int(rng.integers(2, 9)))
                if index % 3 == 2:
                    data = np.round(data)
            # normal's pelt evaluates every live candidate at every end: a fine
            # grid and penalties of 15-80 leave about 10 to 80 of them
            min_size = int(rng.integers(1, 6))
            jump = int(rng.integers(1, 4) if family == "normal" else rng.integers(3, 11))
            width = int(rng.integers(40, 121))
            low, high = (15.0, 80.0) if family == "normal" else (1.0, 30.0)
            rules = [("n_bkps", int(rng.integers(1, 13))), ("penalty", float(rng.uniform(low, high))),
                     ("budget", float(rng.uniform(0.2, 0.9)))]
        cases.append({"mode": mode, "seed": seed, "index": index, "family": family,
                      "data": data, "min_size": min_size, "jump": jump,
                      "width": width, "rules": rules})
    return cases


def _spec(segscan, family):
    if family == "rbf":
        return segscan.CostSpec(family="kernel", kernel="rbf")
    if family == "ar":
        return segscan.CostSpec(family="ar", order=2)
    return segscan.CostSpec(family=family)


def _call(segscan, engine, kind, value, config, fitted):
    if engine == "dynp":
        return segscan.dynp(fitted, value, config)
    if engine == "pelt":
        return segscan.pelt(fitted, value, config)
    if engine == "solve_budget":
        return segscan.solve_budget(fitted, value, config)
    stop = segscan.StoppingRule(**{kind: value})
    return getattr(segscan, engine)(fitted, stop, config)


def _failed(exc: Exception) -> dict:
    return {"ends": None, "contrast": None, "error": type(exc).__name__,
            "n_cost_evals": None, "n_pruned": None, "eval_delta": None}


def _outcome(thunk) -> dict:
    try:
        result = thunk()
    except Exception as exc:  # noqa: BLE001 - the class is part of the answer
        return _failed(exc)
    return {"ends": list(result.bkps.ends), "contrast": result.contrast.hex(), "error": None,
            "n_cost_evals": result.n_cost_evals, "n_pruned": result.n_pruned}


def run_case(segscan, case: dict) -> list[dict]:
    """Every call of one case through the imported segscan, one record
    each: its key, its answer and its counts."""
    spec = _spec(segscan, case["family"])
    data = case["data"]
    n = len(data)
    config = segscan.SearchConfig(min_size=case["min_size"], jump=case["jump"],
                                  window_width=case["width"])
    prefix = f"{case['mode']}/{case['seed']}/{case['index']}"
    try:
        whole = segscan.fit(spec, data).cost(0, n)
    except Exception as exc:  # noqa: BLE001
        return [dict(_failed(exc), key=f"{prefix}/fit")]
    dense = case["mode"] == "small" or len(range(0, n + 1, case["jump"])) <= DYNP_ENDS
    records = []
    for phase in ["fresh", "after_dynp"] if dense else ["fresh"]:
        for rule, (kind, value) in enumerate(case["rules"]):
            if kind == "budget":
                value = value * max(whole, 0.0)
            for engine in ENGINES[kind]:
                if not dense and engine in ("dynp", "solve_budget"):
                    continue
                fitted = segscan.fit(spec, data)
                if phase == "after_dynp":
                    _outcome(lambda: segscan.dynp(fitted, 0, config))
                before = fitted.eval_counter
                record = _outcome(lambda: _call(segscan, engine, kind, value, config, fitted))
                record["eval_delta"] = fitted.eval_counter - before
                record["key"] = f"{prefix}/{phase}/{rule}:{kind}/{engine}"
                records.append(record)
    return records


def run_cases(cases: list[dict]) -> list[dict]:
    import segscan

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [record for case in cases for record in run_case(segscan, case)]


def compare(base: list[dict], head: list[dict]) -> tuple[list[str], list[str]]:
    """The answer mismatches and the count changes between two record
    lists of the same cases, as one line each."""
    if [r["key"] for r in base] != [r["key"] for r in head]:
        return ["the two trees ran different calls"], []
    mismatches, changes = [], []
    for b, h in zip(base, head):
        for fields, out in ((ANSWER, mismatches), (COUNTS, changes)):
            moved = [f"{f} {b[f]!r} -> {h[f]!r}" for f in fields if b[f] != h[f]]
            if moved:
                out.append(f"{b['key']}: " + ", ".join(moved))
    return mismatches, changes


def cases_for(seeds: list[int], count: int) -> list[dict]:
    long_count = max(1, count // 20)
    return [case for seed in seeds
            for mode, n in (("small", count), ("long", long_count))
            for case in generate(mode, seed, n)]


def _worker(seeds: list[int], count: int) -> None:
    import segscan

    records = run_cases(cases_for(seeds, count))
    json.dump({"module": segscan.__file__, "records": records}, sys.stdout)


def _run_tree(src: Path, seeds: list[int], count: int) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--seeds", *map(str, seeds), "--cases", str(count)]
    proc = subprocess.run(command, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"differential: the worker on {src} exited {proc.returncode}\n{proc.stderr}")
    out = json.loads(proc.stdout)
    if not Path(out["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"differential: {src} imported segscan from {out['module']}")
    return out["records"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--cases", type=int, default=400)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cases < 1:
        parser.error("--cases must be at least 1")
    if args.worker:
        _worker(args.seeds, args.cases)
        return 0
    if args.base is None:
        parser.error("--base is required")
    base = _run_tree((args.base / "src").resolve(), args.seeds, args.cases)
    head = _run_tree((ROOT / "src").resolve(), args.seeds, args.cases)
    mismatches, changes = compare(base, head)
    errors = sum(r["error"] is not None for r in head)
    print(f"{len(head)} calls a side over seeds {args.seeds} ({errors} raised on the head): "
          f"{len(mismatches)} answer mismatches, {len(changes)} count changes")
    for title, lines in (("answer mismatch", mismatches), ("count change", changes)):
        for line in lines[:10]:
            print(f"{title}: {line}")
        if len(lines) > 10:
            print(f"... and {len(lines) - 10} more {title}es")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
