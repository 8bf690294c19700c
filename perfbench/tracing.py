"""Spans around the calls into segscan's layers, and the per-layer metrics they give.

``Tracer.install`` replaces these names with timing wrappers until ``uninstall``:

- ``segscan.fit`` / ``segscan.costs.fit`` / ``segscan.cli.fit``  -> span "costs.fit"
- ``segscan.costs.FittedCost.cost``                               -> span "costs.eval.<family>"
- each engine in ``segscan``, ``segscan.search`` and ``segscan.cli`` -> span "search.<engine>"
- ``segscan.cli.main``                                             -> span "cli.detect"

A span is (name, start, end, parent).  Spans stay in memory and are written
to one ``.npz`` file when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np

import segscan
import segscan.cli
import segscan.costs
import segscan.search

from workloads import FAMILIES

ENGINES = ("dynp", "solve_budget", "pelt", "binseg", "bottomup", "window")
SPAN_NAMES = (
    ("costs.fit", "cli.detect")
    + tuple(f"costs.eval.{family}" for family in FAMILIES)
    + tuple(f"search.{engine}" for engine in ENGINES)
)
_NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
_ENGINE_MODULES = (segscan, segscan.search, segscan.cli)


def _patch_points():
    """(owner, attribute) pairs for every name the wrappers replace."""
    points = [(module, "fit") for module in (segscan, segscan.costs, segscan.cli)]
    points.append((segscan.costs.FittedCost, "cost"))
    points += [(module, engine) for module in _ENGINE_MODULES for engine in ENGINES]
    points.append((segscan.cli, "main"))
    return points


def _input_bytes(argv) -> int:
    argv = list(argv or ())
    if "--input" in argv:
        try:
            return os.path.getsize(argv[argv.index("--input") + 1])
        except (IndexError, OSError):
            return 0
    return 0


class Tracer:
    """Records spans and engine counters while installed."""

    def __init__(self):
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack = [-1]
        # per engine span: (span index, n_cost_evals, n_pruned, n_samples)
        self.engine_counts: list[tuple[int, int, int, int]] = []
        self.csv_bytes = 0
        self._saved = None

    def _open(self, name_id: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _span(self, name: str, fn):
        name_id = _NAME_ID[name]
        opener, start, end, stack, clock = self._open, self.start, self.end, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = opener(name_id)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return wrapper

    def _cost_span(self, fn):
        ids = {family: _NAME_ID[f"costs.eval.{family}"] for family in FAMILIES}
        opener, start, end, stack, clock = self._open, self.start, self.end, self.stack, time.perf_counter

        def cost(fitted, a, b):
            idx = opener(ids[fitted.family])
            t0 = clock()
            try:
                return fn(fitted, a, b)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return cost

    def _engine_span(self, engine: str, fn):
        name_id = _NAME_ID[f"search.{engine}"]
        opener, start, end, stack, clock = self._open, self.start, self.end, self.stack, time.perf_counter
        counts = self.engine_counts

        def wrapper(fitted, *args, **kwargs):
            idx = opener(name_id)
            t0 = clock()
            try:
                result = fn(fitted, *args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            counts.append((idx, result.n_cost_evals, result.n_pruned, fitted.n_samples))
            return result

        return wrapper

    def _cli_span(self, fn):
        inner = self._span("cli.detect", fn)

        def main(argv=None):
            code = inner(argv)
            self.csv_bytes += _input_bytes(argv)
            return code

        return main

    def install(self) -> None:
        points = _patch_points()
        self._saved = [(owner, attr, getattr(owner, attr)) for owner, attr in points]
        fit = self._span("costs.fit", segscan.costs.fit)
        engines = {engine: self._engine_span(engine, getattr(segscan.search, engine)) for engine in ENGINES}
        for owner, attr in points:
            if attr == "fit":
                setattr(owner, attr, fit)
            elif attr == "cost":
                setattr(owner, attr, self._cost_span(owner.cost))
            elif attr == "main":
                setattr(owner, attr, self._cli_span(owner.main))
            else:
                setattr(owner, attr, engines[attr])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved or ()):
            setattr(owner, attr, original)
        self._saved = None

    def arrays(self):
        names = np.asarray(self.name_id, dtype=np.int16)
        parent = np.asarray(self.parent, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        return names, parent, start, end

    def save(self, path: str) -> None:
        names, parent, start, end = self.arrays()
        counts = np.asarray(self.engine_counts, dtype=np.int64).reshape(-1, 4)
        np.savez(path, span_names=np.asarray(SPAN_NAMES), name_id=names, parent=parent,
                 start=start, end=end, engine_counts=counts)

    def layer_metrics(self, n_batches: int) -> dict[str, float]:
        """Per-batch layer metrics from the recorded spans (averaged over batches)."""
        names, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        is_cost = np.zeros(len(SPAN_NAMES), dtype=bool)
        is_cost[[_NAME_ID[f"costs.eval.{f}"] for f in FAMILIES]] = True
        cost_span = is_cost[names]
        # direct cost children per span
        cost_children = np.bincount(parent[cost_span & has_parent], minlength=len(dur))

        per = 1.0 / n_batches
        m: dict[str, float] = {}

        def of(name):
            return names == _NAME_ID[name]

        m["costs.eval.calls"] = int(cost_span.sum()) * per
        m["costs.eval.ms"] = float(dur[cost_span].sum()) * 1e3 * per
        for family in FAMILIES:
            sel = of(f"costs.eval.{family}")
            m[f"costs.eval.us_per_call.{family}"] = float(dur[sel].mean()) * 1e6 if sel.any() else 0.0
        sel = of("costs.fit")
        m["costs.fit.calls"] = int(sel.sum()) * per
        m["costs.fit.ms"] = float(dur[sel].sum()) * 1e3 * per

        counts = np.asarray(self.engine_counts, dtype=np.int64).reshape(-1, 4)
        for engine in ENGINES:
            sel = of(f"search.{engine}")
            m[f"search.{engine}.calls"] = int(sel.sum()) * per
            m[f"search.{engine}.ms"] = float(dur[sel].sum()) * 1e3 * per
            m[f"search.{engine}.self_ms"] = float(self_time[sel].sum()) * 1e3 * per
            m[f"search.{engine}.evals"] = int(cost_children[sel].sum()) * per
        pelt_rows = counts[names[counts[:, 0]] == _NAME_ID["search.pelt"]]
        m["search.pelt.pruned"] = int(pelt_rows[:, 2].sum()) * per
        pelt_samples = int(pelt_rows[:, 3].sum())
        m["search.pelt.evals_per_sample"] = int(pelt_rows[:, 1].sum()) / pelt_samples if pelt_samples else 0.0
        m["search.calls"] = len(counts) * per
        m["search.zero_eval_share"] = float((counts[:, 1] == 0).mean()) if len(counts) else 0.0

        sel = of("cli.detect")
        cli_self_s = float(self_time[sel].sum())
        m["cli.detect.calls"] = int(sel.sum()) * per
        m["cli.detect.ms"] = float(dur[sel].sum()) * 1e3 * per
        m["cli.self_ms"] = cli_self_s * 1e3 * per
        m["cli.csv_mb"] = self.csv_bytes / 1e6 * per
        m["cli.read_mb_per_s"] = self.csv_bytes / 1e6 / cli_self_s if cli_self_s > 0 else 0.0
        return m

    def summed_evals(self) -> int:
        """Sum of n_cost_evals over the engine calls seen."""
        return int(sum(row[1] for row in self.engine_counts))

    def cost_calls(self) -> int:
        names, *_ = self.arrays()
        ids = [_NAME_ID[f"costs.eval.{f}"] for f in FAMILIES]
        return int(np.isin(names, ids).sum())


class AllocTracer:
    """tracemalloc peak inside engine calls; run on its own so it does not skew the spans."""

    def __init__(self):
        self.peak_bytes = 0
        self._saved = None

    def _wrap(self, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1] - base)

        return wrapper

    def install(self) -> None:
        points = [(module, engine) for module in _ENGINE_MODULES for engine in ENGINES]
        self._saved = [(owner, attr, getattr(owner, attr)) for owner, attr in points]
        wrapped = {engine: self._wrap(getattr(segscan.search, engine)) for engine in ENGINES}
        for owner, attr in points:
            setattr(owner, attr, wrapped[attr])
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        for owner, attr, original in reversed(self._saved or ()):
            setattr(owner, attr, original)
        self._saved = None
