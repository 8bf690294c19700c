#!/usr/bin/env python3
"""segscan benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; segscan is imported from the checkout's
``src/``.  This process builds the inputs from ``--seed`` several times (for
the median set-up time) and hands the last set to a fresh child process.  The
child warms up, repeats the workload's fixed batch of queries for
``--seconds``, and reports its peak RSS: it runs only this workload.  This
process then checks every answer and prints one JSON object as the last line
of stdout.  That object holds the end-to-end metrics with ``--trace 0`` and
the per-layer metrics of a traced run with ``--trace 1``.  Load is one process
issuing one query at a time; BLAS/OpenMP run single-threaded.  Untraced runs
also keep a speed probe (``speedprobe.py``) running on the other CPU and
report their times scaled to the probe's reference speed; the raw times are
on the line before the result.

``--smoke`` runs every workload and every check at tiny sizes, traced and
untraced, and fails unless every metric named in BENCHMARK.json is emitted and
every answer is right.  It is the harness's own test.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import math
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
MIN_BATCHES = 2
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170


def import_segscan() -> tuple[float, float]:
    """Import segscan from this checkout; returns when the import started and its seconds."""
    if not (SRC / "segscan" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no segscan sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import segscan

    elapsed = time.perf_counter() - start
    if Path(segscan.__file__).resolve().parent != SRC / "segscan":
        sys.stderr.write(f"perfbench: segscan imported from {segscan.__file__}, not {SRC}\n")
        sys.exit(2)
    return start, elapsed


def peak_rss_mb() -> float:
    """High-water RSS of this process image.

    VmHWM starts afresh at exec; ru_maxrss would carry over the parent's peak
    from before the fork.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_child(*args: str) -> dict:
    """Run this script in a fresh process and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(queries_per_batch: int) -> int:
    """Highest whole percentile with at least ten queries beyond it in two batches.

    Every untraced run times at least two batches, so at least ten queries lie
    beyond it.  It is fixed by the batch, not by how many batches a run fits,
    so the tail does not jump when a run fits one more.  Batches of under ten
    queries fall back to the median.
    """
    return max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / (MIN_BATCHES * queries_per_batch))))


def run_batches(workload, seconds: float, min_batches: int, spans: list, batches: list) -> None:
    """Repeat the batch until `seconds` have passed and `min_batches` have run.

    Appends each batch's (start, end) perf_counter pair to `spans`.
    """
    begin = time.perf_counter()
    while True:
        gc.collect()  # drop the previous batch's fitted costs before timing
        start = time.perf_counter()
        queries = workload.run_batch()
        spans.append((start, time.perf_counter()))
        batches.append(queries)
        if len(spans) >= min_batches and time.perf_counter() - begin >= seconds:
            return


def durations(spans) -> list[float]:
    return [end - start for start, end in spans]


def child_measure(workdir: Path, seconds: float, trace: bool) -> dict:
    """The timed part of a run, in a fresh process; results go to measured.pkl."""
    with open(workdir / "workload.pkl", "rb") as fh:
        workload = pickle.load(fh)  # written by the parent process of this run
    from speedprobe import alternating_cpus

    with alternating_cpus(phase=0):
        out = _timed_batches(workload, workdir, seconds, trace)
    out["peak_rss_mb"] = peak_rss_mb()
    with open(workdir / "measured.pkl", "wb") as fh:
        pickle.dump(out, fh)
    return {"peak_rss_mb": out["peak_rss_mb"]}


def _timed_batches(workload, workdir: Path, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    warm = WORKLOADS[workload.name](workload.seed, "smoke", str(workdir / "warm"))
    warm.setup()
    warm.run_batch()
    del warm

    out: dict = {"batch_spans": [], "batches": []}
    if not trace:
        run_batches(workload, seconds, MIN_BATCHES, out["batch_spans"], out["batches"])
        return out

    from tracing import AllocTracer, Tracer

    run_batches(workload, seconds / 2, 1, out["batch_spans"], out["batches"])
    tracer = Tracer()
    traced_spans: list = []
    tracer.install()
    try:
        run_batches(workload, seconds / 2, 1, traced_spans, out["batches"])
    finally:
        tracer.uninstall()
    alloc = AllocTracer()
    alloc.install()
    try:
        gc.collect()
        out["batches"].append(workload.run_batch())
    finally:
        alloc.uninstall()
    traced_walls = durations(traced_spans)
    layer = tracer.layer_metrics(len(traced_walls))
    layer["search.alloc_peak_mb"] = alloc.peak_bytes / 1e6
    layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(durations(out["batch_spans"]))
    WORK.mkdir(parents=True, exist_ok=True)
    span_file = WORK / f"trace-{workload.name}-seed{workload.seed}.npz"
    tracer.save(str(span_file))
    out.update(layer=layer, traced_walls=traced_walls, cost_calls=tracer.cost_calls(),
               summed_evals=tracer.summed_evals(), spans=len(tracer.name_id),
               span_file=str(span_file.relative_to(ROOT)))
    return out


def judge(workload, batches) -> tuple[int, int, list[float], list[str]]:
    """Full checks on the first batch; later batches must repeat it exactly."""
    from workloads import signature

    verdicts = workload.check(batches[0])
    reference = [signature(q) for q in batches[0]]
    attempted = failed = 0
    for queries in batches:
        attempted += len(queries)
        if len(queries) != len(reference):
            failed += len(queries)
            continue
        for query, verdict, ref in zip(queries, verdicts, reference):
            failed += (not verdict.ok) or signature(query) != ref
    reasons = [v.reason for v in verdicts if not v.ok]
    return attempted, failed, [v.f1 for v in verdicts], reasons


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    import numpy as np

    from speedprobe import Probe, alternating_cpus
    from workloads import WORKLOADS

    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    info = {"workload": name, "seed": seed, "size": size, "nproc": os.cpu_count(),
            "numpy": np.__version__, "python": sys.version.split()[0]}
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        probe = None if trace else Probe(workdir / "probe.npy")
        with probe or contextlib.nullcontext():
            setup_spans = []
            with alternating_cpus(phase=0):
                for _ in range(SETUP_REPEATS):
                    start = time.perf_counter()
                    workload = WORKLOADS[name](seed, size, str(workdir / "main"))
                    workload.setup()
                    warm = WORKLOADS[name](seed, "smoke", str(workdir / "warm"))
                    warm.setup()
                    warm.run_batch()
                    setup_spans.append((start, time.perf_counter()))
                    del warm
            with open(workdir / "workload.pkl", "wb") as fh:
                pickle.dump(workload, fh)
            run_child("measure", "--workdir", str(workdir), "--seconds", repr(seconds),
                      "--trace", str(int(trace)))
            import_runs = [] if trace else [run_child("import") for _ in range(IMPORT_REPEATS)]
        with open(workdir / "measured.pkl", "rb") as fh:
            measured = pickle.load(fh)  # written by this run's child
        batch_spans = measured["batch_spans"]
        batches = measured["batches"]

        attempted, failed, f1s, reasons = judge(workload, batches)
        correct = failed == 0
        per_batch = len(batches[0])
        info.update(walls_raw_s=durations(batch_spans), queries_per_batch=per_batch,
                    attempted=attempted, error_rate=failed / attempted, checks_failed=reasons[:5])

        if not trace:
            scaled = probe.scaled
            latencies = [scaled(q.start, q.start + q.seconds) for queries in batches for q in queries]
            tail_pct = tail_percentile(per_batch)
            setups = [scaled(*span) for span in setup_spans]
            import_s = statistics.median(
                scaled(r["import_at"], r["import_at"] + r["import_s"]) for r in import_runs)
            info.update(queries_timed=len(latencies), tail_pct=tail_pct, probe_unit_ms=probe.unit_ms(),
                        setups_raw_s=durations(setup_spans),
                        import_raw_s=statistics.median(r["import_s"] for r in import_runs),
                        walls_s=[scaled(*span) for span in batch_spans], setups_s=setups, import_s=import_s)
            metrics = {
                "setup_s": import_s + statistics.median(setups),
                "wall_s": statistics.median(info["walls_s"]),
                "query_ms.p50": float(np.percentile(latencies, 50)) * 1e3,
                "query_ms.tail": float(np.percentile(latencies, tail_pct)) * 1e3,
                "peak_rss_mb": measured["peak_rss_mb"],
                "import_rss_mb": statistics.median(r["rss_mb"] for r in import_runs),
                "f1_mean": statistics.fmean(f1s),
                "ok_share": 1.0 - failed / attempted,
            }
        else:
            if measured["cost_calls"] != measured["summed_evals"]:
                correct = False
                info["trace_mismatch"] = [measured["cost_calls"], measured["summed_evals"]]
            info.update(traced_walls_s=measured["traced_walls"], spans=measured["spans"],
                        span_file=measured["span_file"])
            metrics = measured["layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps(info))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def smoke() -> int:
    """Every workload, traced and untraced, at tiny sizes; checks names and answers."""
    spec = benchmark_spec()
    expected = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result = measure(workload, seed=1, seconds=0.0, trace=trace, size="smoke")
            print(json.dumps(result))
            got = set(result["metrics"])
            if got != expected[trace]:
                problems.append(f"{workload} trace={int(trace)}: missing {sorted(expected[trace] - got)}, "
                                f"extra {sorted(got - expected[trace])}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed queries")
    for line in problems:
        print(f"SMOKE FAIL: {line}", file=sys.stderr)
    print(f"smoke: {'FAIL' if problems else 'PASS'}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--child", choices=("import", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_at, import_s = import_segscan()
    if args.child == "import":
        print(json.dumps({"import_at": import_at, "import_s": import_s, "rss_mb": peak_rss_mb()}))
        return 0
    if args.child == "measure":
        print(json.dumps(child_measure(Path(args.workdir), args.seconds, bool(args.trace))))
        return 0
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace), "full")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
