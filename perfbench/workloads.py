"""The benchmark's workloads: inputs built from a seed, one batch of queries, checks.

A query is one detection call, plus ``fit`` when it is the first call on its
signal.  ``run_batch`` times every query and returns the answers untouched;
``check`` judges them afterwards, outside every timed region, against an
independently fitted cost and the generator's truth.

Each workload comes in two sizes: "full" is what the benchmark measures and
"smoke" is a tiny version used for warm-up and for the harness's own test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import segscan as ss
import segscan.cli

REL_TOL = 1e-9
F1_MARGIN = 5
AC8_KEYS = frozenset(
    ("bkps", "contrast", "method", "cost", "stopping", "n_cost_evals", "n_pruned", "elapsed_ms")
)
FAMILIES = ("l2", "normal", "linear", "ar", "kernel", "mahalanobis")
CLI_COSTS = ("l2", "normal", "linear", "ar", "rbf", "mahalanobis")
GREEDY = ("binseg", "bottomup", "window")
STOPS = ("n-bkps", "pen", "epsilon")


@dataclass
class Query:
    label: str
    start: float  # perf_counter at the start, comparable across processes
    seconds: float
    answer: object  # DetectionResult, (exit code, stdout) for cli queries, or the exception raised


@dataclass
class Verdict:
    ok: bool
    f1: float
    reason: str = ""


def timed(label, fn, *args):
    """Run one query; an exception becomes its answer so the batch keeps going."""
    start = time.perf_counter()
    try:
        answer = fn(*args)
    except Exception as exc:  # counted as a failed query by the checks
        answer = exc
    return Query(label, start, time.perf_counter() - start, answer)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def f1_score(truth, bkps) -> float:
    pr = ss.precision_recall(truth, bkps, F1_MARGIN)
    total = pr.precision + pr.recall
    return 2.0 * pr.precision * pr.recall / total if total else 0.0


def signature(query: Query):
    """What must repeat exactly when the same batch runs again."""
    answer = query.answer
    if isinstance(answer, ss.DetectionResult):
        return (query.label, answer.bkps.ends, answer.contrast, answer.n_cost_evals, answer.n_pruned)
    if isinstance(answer, tuple):
        code, text = answer
        try:
            doc = json.loads(text)
        except ValueError:
            return (query.label, code, text)
        doc.pop("elapsed_ms", None)
        return (query.label, code, json.dumps(doc, sort_keys=True))
    return (query.label, repr(answer))


def cost_spec(family: str) -> ss.CostSpec:
    if family == "kernel":
        return ss.CostSpec(family="kernel", kernel="rbf")
    return ss.CostSpec(family=family)


def _sub_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _segment_lengths(rng, total: int, n_segments: int, low: int, high: int) -> np.ndarray:
    """Segment lengths in [low, high] summing exactly to total."""
    extra = total - n_segments * low
    if extra < 0 or extra > n_segments * (high - low):
        raise ValueError(f"{n_segments} segments of {low}..{high} cannot sum to {total}")
    while True:
        weights = rng.random(n_segments)
        add = np.floor(extra * weights / weights.sum()).astype(np.int64)
        short = int(extra - add.sum())
        add[rng.choice(n_segments, size=short, replace=False)] += 1
        if add.max() <= high - low:
            return low + add


def _piecewise_constant(rng, lengths, n_dims: int, noise: float):
    """Mean shifts of random sign and magnitude in [2, 5] per dimension."""
    levels = np.zeros((len(lengths), n_dims))
    for k in range(1, len(lengths)):
        signs = np.where(rng.random(n_dims) < 0.5, -1.0, 1.0)
        levels[k] = levels[k - 1] + signs * rng.uniform(2.0, 5.0, size=n_dims)
    data = np.repeat(levels, lengths, axis=0) + rng.normal(0.0, noise, size=(int(np.sum(lengths)), n_dims))
    ends = np.cumsum(lengths)
    return data, ss.validate_breakpoints([int(e) for e in ends], int(ends[-1]))


def snap_to_grid(bkps, n_samples: int, min_size: int, jump: int):
    """The nearest segmentation whose internal ends lie on the search grid.

    The grid is the multiples of jump in [min_size, n_samples - min_size];
    ends that would land closer than min_size to the previous one are dropped.
    """
    first = -(-min_size // jump) * jump
    last = (n_samples - min_size) // jump * jump
    ends, prev = [], 0
    for end in bkps.ends[:-1]:
        pos = min(max(jump * round(end / jump), first), last)
        if pos - prev >= min_size and n_samples - pos >= min_size:
            ends.append(pos)
            prev = pos
    return ss.validate_breakpoints(ends + [n_samples], n_samples)


def generated_signal(family: str, n_samples: int, n_bkps: int, seed: int):
    """A signal from the segscan generator that suits the cost family.

    There is no autoregressive generator, so "ar" takes mean shifts, which the
    per-segment intercept picks up.
    """
    if family in ("normal", "kernel", "rbf"):
        return ss.pw_normal(n_samples, n_bkps, seed)
    if family == "linear":
        return ss.pw_linear(ss.GenSpec(n_samples, 2, n_bkps, 0.5, seed))
    return ss.pw_constant(ss.GenSpec(n_samples, 2, n_bkps, 1.0, seed))


class ExactSweep:
    """Model selection on six small signals through the library API.

    Per family: dynp for K = 0..k_max, pelt over a penalty grid taken from the
    dynp gains, and solve_budget over budgets taken from the dynp contrasts
    (not for "normal", whose costs can be negative).
    """

    name = "exact-sweep"
    SIZES = {
        "full": dict(n_samples=320, n_bkps=4, k_max=15, pen_at=(1, 3, 5), budget_at=(1, 3, 5)),
        "smoke": dict(n_samples=60, n_bkps=2, k_max=5, pen_at=(1, 2), budget_at=(1, 2)),
    }

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = self.SIZES[size]

    def setup(self) -> None:
        size = self.size
        seeds = _sub_seeds(self.seed, len(FAMILIES))
        self.cases = [
            (family, *generated_signal(family, size["n_samples"], size["n_bkps"], sub))
            for family, sub in zip(FAMILIES, seeds)
        ]

    def _penalties(self, contrasts) -> list[float]:
        gains = [contrasts[k - 1] - contrasts[k] for k in range(1, len(contrasts))]
        # a floor above the last gains keeps the penalized optimum inside K <= k_max
        floor = 1.5 * max(gains[-5:])
        return [max(math.sqrt(max(gains[j - 1], 0.0) * max(gains[j], 0.0)), floor) for j in self.size["pen_at"]]

    def run_batch(self) -> list[Query]:
        out = []
        k_max = self.size["k_max"]
        for family, signal, _truth in self.cases:
            spec = cost_spec(family)
            fitted = None

            def first_query():
                nonlocal fitted
                fitted = ss.fit(spec, signal)
                return ss.dynp(fitted, 0)

            out.append(timed(f"{family}/dynp/0", first_query))
            if fitted is None:
                continue
            for k in range(1, k_max + 1):
                out.append(timed(f"{family}/dynp/{k}", ss.dynp, fitted, k))
            sweep = out[-(k_max + 1):]
            if not all(isinstance(q.answer, ss.DetectionResult) for q in sweep):
                continue
            contrasts = [q.answer.contrast for q in sweep]
            for j, penalty in zip(self.size["pen_at"], self._penalties(contrasts)):
                out.append(timed(f"{family}/pelt/{j}/{penalty!r}", ss.pelt, fitted, penalty))
            if family != "normal":
                for k in self.size["budget_at"]:
                    budget = (contrasts[k - 1] + contrasts[k]) / 2.0
                    out.append(timed(f"{family}/solve_budget/{k}/{budget!r}", ss.solve_budget, fitted, budget))
        return out

    def check(self, queries: list[Query]) -> list[Verdict]:
        by_family = {family: (signal, truth) for family, signal, truth in self.cases}
        fits = {family: ss.fit(cost_spec(family), signal) for family, (signal, _) in by_family.items()}
        contrasts: dict[str, dict[int, float]] = {family: {} for family in FAMILIES}
        verdicts = []
        for query in queries:
            family, engine, *params = query.label.split("/")
            _signal, truth = by_family[family]
            result = query.answer
            if not isinstance(result, ss.DetectionResult):
                verdicts.append(Verdict(False, 0.0, f"{query.label}: {result!r}"))
                continue
            independent = fits[family]
            reasons = []
            if not close(result.contrast, ss.sum_of_costs(independent, result.bkps)):
                reasons.append("contrast differs from sum_of_costs")
            if not result.bkps.complies(min_size=independent.min_seg_len, jump=1):
                reasons.append("breakpoints break min_size/jump")
            seen = contrasts[family]
            if engine == "dynp":
                k = int(params[0])
                if result.bkps.n_bkps != k:
                    reasons.append(f"dynp returned {result.bkps.n_bkps} changes")
                if k - 1 in seen and result.contrast > seen[k - 1] + REL_TOL * max(abs(seen[k - 1]), 1.0):
                    reasons.append("dynp contrast increased with K")
                seen[k] = result.contrast
            elif engine == "pelt":
                penalty = float(params[1])
                best = min(c + (k + 1) * penalty for k, c in seen.items())
                if not close(result.contrast + (result.bkps.n_bkps + 1) * penalty, best):
                    reasons.append("pelt objective differs from the best dynp objective")
            else:
                budget = float(params[1])
                smallest = min(k for k, c in seen.items() if c <= budget)
                if result.bkps.n_bkps != smallest or result.contrast > budget:
                    reasons.append(f"solve_budget gave K={result.bkps.n_bkps}, expected {smallest}")
            verdicts.append(Verdict(not reasons, f1_score(truth, result.bkps), "; ".join(reasons)))
        return verdicts


class PeltLong:
    """One long l2 signal with many changes and one pelt query."""

    name = "pelt-long"
    SIZES = {
        "full": dict(n_samples=8000, n_bkps=80),
        "smoke": dict(n_samples=600, n_bkps=6),
    }

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = self.SIZES[size]

    def setup(self) -> None:
        n_samples, n_bkps = self.size["n_samples"], self.size["n_bkps"]
        rng = np.random.default_rng(self.seed)
        # built here: pw_constant gives up above about 30 changes at any length
        lengths = _segment_lengths(rng, n_samples, n_bkps + 1, 50, 150)
        self.signal, self.truth = _piecewise_constant(rng, lengths, 2, 1.0)
        self.penalty = 3.0 * 2 * math.log(n_samples)

    def run_batch(self) -> list[Query]:
        def query():
            return ss.pelt(ss.fit(ss.CostSpec("l2"), self.signal), self.penalty)

        return [timed("pelt", query)]

    def check(self, queries: list[Query]) -> list[Verdict]:
        (query,) = queries
        result = query.answer
        if not isinstance(result, ss.DetectionResult):
            return [Verdict(False, 0.0, f"pelt: {result!r}")]
        independent = ss.fit(ss.CostSpec("l2"), self.signal)
        penalty = self.penalty

        def objective(contrast, bkps):
            return contrast + (bkps.n_bkps + 1) * penalty

        reasons = []
        if not close(result.contrast, ss.sum_of_costs(independent, result.bkps)):
            reasons.append("contrast differs from sum_of_costs")
        if not result.bkps.complies(min_size=1, jump=1):
            reasons.append("breakpoints break min_size/jump")
        found = objective(result.contrast, result.bkps)
        truth_obj = objective(ss.sum_of_costs(independent, self.truth), self.truth)
        greedy = ss.binseg(independent, ss.StoppingRule(penalty=penalty))
        slack = REL_TOL * max(abs(found), 1.0)
        if found > truth_obj + slack:
            reasons.append("pelt objective above the true segmentation's")
        if found > objective(greedy.contrast, greedy.bkps) + slack:
            reasons.append("pelt objective above binseg's")
        return [Verdict(not reasons, f1_score(self.truth, result.bkps), "; ".join(reasons))]


class CliBatch:
    """In-process ``segscan detect`` calls on CSV files written during set-up.

    One large file on a coarse grid, then each small file once per greedy
    method, with the stopping flag rotating so that all three appear.
    """

    name = "cli-batch"
    SIZES = {
        "full": dict(big_samples=100_000, big_bkps=20, big_jump=500, n_files=30,
                     small_samples=(1000, 3000), jump=10, window_width=100),
        "smoke": dict(big_samples=4000, big_bkps=4, big_jump=100, n_files=6,
                      small_samples=(200, 300), jump=5, window_width=40),
    }

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = self.SIZES[size]
        self.workdir = workdir

    @staticmethod
    def _write_csv(path: str, data: np.ndarray) -> None:
        np.savetxt(path, data, fmt="%.17g", delimiter=",")  # 17 digits round-trip exactly

    def setup(self) -> None:
        size = self.size
        os.makedirs(self.workdir, exist_ok=True)
        seeds = _sub_seeds(self.seed, size["n_files"] + 1)
        self.cases = []  # (argv, data, truth, cost, jump)

        rng = np.random.default_rng(seeds[0])
        big_jump = size["big_jump"]
        n_units = size["big_samples"] // big_jump
        units = _segment_lengths(rng, n_units, size["big_bkps"] + 1, 4, n_units)
        data, truth = _piecewise_constant(rng, units * big_jump, 3, 1.0)
        path = os.path.join(self.workdir, "big.csv")
        self._write_csv(path, data)
        penalty = 3.0 * data.shape[1] * math.log(data.shape[0])
        argv = ["detect", "--input", path, "--method", "pelt", "--cost", "l2",
                "--pen", repr(penalty), "--jump", str(big_jump)]
        self.cases.append((argv, data, truth, "l2", big_jump))

        low, high = size["small_samples"]
        n_files, jump = size["n_files"], size["jump"]
        for i in range(n_files):
            cost = CLI_COSTS[i % len(CLI_COSTS)]
            n_samples = low + (high - low) * i // max(n_files - 1, 1)
            n_bkps = 3 + i % 4
            signal, truth = generated_signal(cost, n_samples, n_bkps, seeds[i + 1])
            data = signal.data
            path = os.path.join(self.workdir, f"small{i:02d}.csv")
            self._write_csv(path, data)
            fitted = ss.fit(_cli_cost_spec(cost), data)
            whole = fitted.cost(0, n_samples)
            at_truth = ss.sum_of_costs(fitted, truth)
            # a budget under the grid's best total is unreachable, so it is set from the
            # truth moved onto the --jump grid: the finest grid refines that segmentation
            at_grid = ss.sum_of_costs(fitted, snap_to_grid(truth, n_samples, fitted.min_seg_len, jump))
            for m, method in enumerate(GREEDY):
                stop = STOPS[(i + m) % len(STOPS)]
                if stop == "epsilon" and (cost == "normal" or method == "window"):
                    # normal costs can be negative, and window may run out of peaks
                    stop = "pen"
                argv = ["detect", "--input", path, "--method", method, "--cost", cost, "--jump", str(jump)]
                if method == "window":
                    argv += ["--window-width", str(size["window_width"])]
                if stop == "n-bkps":
                    argv += ["--n-bkps", str(n_bkps)]
                elif stop == "pen":
                    share = 0.05 if method == "window" else 0.1
                    argv += ["--pen", repr(share * (whole - at_truth) / n_bkps)]
                else:
                    argv += ["--epsilon", repr(1.02 * at_grid)]
                self.cases.append((argv, data, truth, cost, jump))

    def run_batch(self) -> list[Query]:
        out = []
        for argv, *_ in self.cases:
            sink = io.StringIO()

            def query():
                with contextlib.redirect_stdout(sink):
                    code = segscan.cli.main(argv)
                return code, sink.getvalue()

            out.append(timed(" ".join(argv[argv.index("--method"):]), query))
        return out

    def check(self, queries: list[Query]) -> list[Verdict]:
        fits: dict[int, ss.FittedCost] = {}  # one independent fit per input file
        verdicts = []
        for query, (argv, data, truth, cost, jump) in zip(queries, self.cases):
            try:
                independent = fits.get(id(data))
                if independent is None:
                    independent = fits[id(data)] = ss.fit(_cli_cost_spec(cost), data)
                verdicts.append(self._check_one(query, argv, data, truth, cost, jump, independent))
            except (KeyError, TypeError, ValueError, ss.exceptions.SegscanError) as exc:
                verdicts.append(Verdict(False, 0.0, f"{query.label}: malformed output: {exc!r}"))
        return verdicts

    @staticmethod
    def _check_one(query, argv, data, truth, cost, jump, independent) -> Verdict:
        code, stdout = query.answer if isinstance(query.answer, tuple) else (None, query.answer)
        if code != 0:
            return Verdict(False, 0.0, f"{query.label}: exit {code}: {stdout!r}")
        doc = json.loads(stdout)
        if not isinstance(doc, dict) or set(doc) != AC8_KEYS:
            return Verdict(False, 0.0, f"{query.label}: keys differ from AC-8")
        bkps = ss.validate_breakpoints(doc["bkps"], data.shape[0])
        reasons = []
        if not close(doc["contrast"], ss.sum_of_costs(independent, bkps)):
            reasons.append("contrast differs from sum_of_costs")
        if not bkps.complies(min_size=independent.min_seg_len, jump=jump):
            reasons.append("breakpoints break min_size/jump")
        if doc["method"] != argv[argv.index("--method") + 1] or doc["cost"] != cost:
            reasons.append("method or cost not echoed")
        if doc["stopping"]["rule"] not in STOPS:
            reasons.append("unknown stopping rule")
        if not isinstance(doc["n_cost_evals"], int) or doc["n_cost_evals"] < 0:
            reasons.append("n_cost_evals is not a count")
        return Verdict(not reasons, f1_score(truth, bkps), "; ".join(reasons))


def _cli_cost_spec(cost: str) -> ss.CostSpec:
    """The CostSpec that ``segscan detect --cost <cost>`` fits with its defaults."""
    return cost_spec("kernel" if cost == "rbf" else cost)


WORKLOADS = {cls.name: cls for cls in (ExactSweep, PeltLong, CliBatch)}
