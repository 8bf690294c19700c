"""Compare two checkouts on one benchmark workload in alternating pairs.

Each run is the checkout's own ``perfbench/run.py --trace 0``, started from
that checkout with this interpreter; its last stdout line is the result.
Pair i runs the base first when i is odd and the head first when it is
even, so a drift in host speed weighs on both sides alike.  Every run must
be ``correct``, else the tool exits with status 1 once the pairs are run.

Per end-to-end metric of BENCHMARK.json (the head's; its ``better``
direction and ``bound`` are read there, not restated here) it prints both
sides' medians and quartiles, how many pairs the head wins, whether the
gap between the medians exceeds the base's quartile spread, and whether
the head is worse than the base by more than the metric's bound, read as a
fraction of the base's median.  Two last rows, with no bound, read the line
run.py prints before its result: raw_wall_s compares the unscaled batch
walls, and probe_scale the speed probe's scale, the median scaled batch wall
over the median unscaled one, per run, so a claim on a scaled time shows
how much of it the probe's reading moved.

Run from the repository root:

    python3 tools/pairs.py --base DIR --head DIR --workload W --pairs N --seed S \\
        [--seconds X] [--out BENCH_<n>.json]

``--seconds`` defaults to BENCHMARK.json's ``run_seconds``.  ``--out`` adds
or replaces this workload's entry in a JSON file: both sides' medians,
quartiles and ``git rev-parse HEAD`` (with ``dirty`` set when tracked
files differ from it), the per-pair values, and the seed, pair count,
``nproc`` and numpy version of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def load_spec(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def parse_run(stdout: str) -> dict:
    """The result object of one run.py run, its last stdout line, with up to
    two more metrics from the line before it: raw_wall_s, the median of the
    unscaled batch walls, when it holds them, and probe_scale, the median
    scaled batch wall over raw_wall_s, when it holds both."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    info = json.loads(lines[-2]) if len(lines) > 1 and lines[-2].startswith("{") else {}
    if info.get("walls_raw_s"):
        raw = statistics.median(info["walls_raw_s"])
        result["metrics"]["raw_wall_s"] = {"value": raw, "unit": "s"}
        if info.get("walls_s"):
            scale = statistics.median(info["walls_s"]) / raw
            result["metrics"]["probe_scale"] = {"value": scale, "unit": "ratio"}
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"pairs: {checkout}: run.py exited {proc.returncode}\n{proc.stderr}")
    return parse_run(proc.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base_runs: list[dict], head_runs: list[dict], spec: dict) -> list[dict]:
    """One row per end-to-end metric of spec, from the pairs' result
    objects (base_runs[i] and head_runs[i] form pair i + 1), and last rows,
    with no bound, for the unscaled batch wall and the probe's scale, each
    when every run reports it: run.py scales its times by a speed probe on
    the other CPU, and these rows show what the scaling moved.  A lower
    scale counts as the head's win.  Raises ValueError unless every run is
    correct."""
    if len(base_runs) != len(head_runs) or not base_runs:
        raise ValueError("need the same positive number of base and head runs")
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for i, run in enumerate(runs, 1):
            if not run.get("correct"):
                raise ValueError(f"{side} run of pair {i} is not correct: {run.get('failed')} failed")
    metrics = list(spec["end_to_end"])
    for name, unit in (("raw_wall_s", "s"), ("probe_scale", "ratio")):
        if all(name in run["metrics"] for run in base_runs + head_runs):
            metrics.append({"name": name, "unit": unit, "better": "lower", "bound": None})
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [run["metrics"][name]["value"] for run in base_runs]
        head = [run["metrics"][name]["value"] for run in head_runs]
        b1, b2, b3 = quartiles(base)
        h1, h2, h3 = quartiles(head)
        # the head's gain, positive when it is better
        gain = (b2 - h2) if lower else (h2 - b2)
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        worse = -gain / abs(b2) if b2 else (0.0 if gain >= 0 else float("inf"))
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"],
            "base": {"median": b2, "q1": b1, "q3": b3, "values": base},
            "head": {"median": h2, "q1": h1, "q3": h3, "values": head},
            "change": (h2 - b2) / abs(b2) if b2 else 0.0,
            "head_wins": wins, "pairs": len(base),
            "gap_exceeds_base_spread": gain > b3 - b1,
            "beyond_bound": metric["bound"] is not None and worse > metric["bound"],
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    def side(stats):
        return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"

    out = ["metric          base median [q1, q3]        head median [q1, q3]        change"
           "  wins  gap>IQR  bound  beyond"]
    for row in rows:
        out.append(
            f"{row['metric']:<15} {side(row['base']):<27} {side(row['head']):<27} "
            f"{100 * row['change']:+6.1f}%  {row['head_wins']:>2}/{row['pairs']:<2} "
            f"{'yes' if row['gap_exceeds_base_spread'] else 'no':<8} {row['bound'] or '-':<6} "
            f"{'YES' if row['beyond_bound'] else 'no'}"
        )
    return "\n".join(out)


def revision(checkout: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(status) if status is not None else None}


def record(path: Path, workload: str, rows: list[dict], meta: dict, base: Path, head: Path) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    sides = {}
    for side, checkout in (("base", base), ("head", head)):
        sides[side] = dict(revision(checkout), metrics={
            row["metric"]: {key: row[side][key] for key in ("median", "q1", "q3", "values")}
            for row in rows
        })
    verdicts = {
        row["metric"]: {key: row[key] for key in
                        ("unit", "better", "bound", "change", "head_wins", "gap_exceeds_base_spread",
                         "beyond_bound")}
        for row in rows
    }
    doc["workloads"][workload] = dict(meta, **sides, verdicts=verdicts)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--head", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    spec = load_spec(head)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    base_runs, head_runs = [], []
    for pair in range(1, args.pairs + 1):
        order = [("base", base), ("head", head)]
        for side, checkout in order if pair % 2 else order[::-1]:
            run = run_once(checkout, args.workload, args.seed, seconds)
            (base_runs if side == "base" else head_runs).append(run)
            print(f"pair {pair} {side}: correct={run.get('correct')}", file=sys.stderr, flush=True)
    try:
        rows = summarize(base_runs, head_runs, spec)
    except ValueError as err:
        print(f"pairs: {err}", file=sys.stderr)
        return 1
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds} s")
    print(format_rows(rows))
    if args.out:
        import numpy

        meta = {"seed": args.seed, "pairs": args.pairs, "seconds": seconds,
                "nproc": os.cpu_count(), "numpy": numpy.__version__}
        record(args.out, args.workload, rows, meta, base, head)
    return 0


if __name__ == "__main__":
    sys.exit(main())
