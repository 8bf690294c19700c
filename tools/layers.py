"""Time one layer of segscan in two source trees, in alternating rounds.

One long-lived child process runs per tree, this script started with
PYTHONPATH=DIR/src; each child first reports which segscan it imported,
and a child that imported another tree stops the run.  Round i asks the
base child first when i is odd and the head child first when it is even,
so a drift in host speed weighs on both sides alike.  In each round a child
runs the layer REPEAT times and reports its best time, and the digest of
its answers (ends, contrast bits and counts).

Per layer the tool prints both sides' medians and quartiles over the
rounds, how many rounds the head wins, and the ratio of the head's median
to the base's.  When any digest differs from another, of either tree, the
layer's answers differ and the tool exits with status 1.

The layers draw their inputs here, not through segscan's generators, so a
change to those cannot show as a speedup:

- cost.<family>: microseconds per fitted.cost() call over 3,000 fixed
  random segments of one 320-sample, 3-column fit, five passes a call;
- fill.<family>: milliseconds for a fresh dynp(fitted, 0), dynp's matrix
  fill, at T = 320 and at T = 1,000 (3 columns), the fits untimed; the
  digest adds an untimed dynp(fitted, 5) over each matrix;
- pelt.normal: milliseconds for pelt on a fresh normal fit at T = 1,000
  (2 columns whose correlation flips), at penalties 10 and 60.

The families are l2, normal, linear, ar (order 4), rbf and mahalanobis.

Run from the repository root:

    python3 tools/layers.py --base DIR --head DIR --layer NAME [--rounds N]

NAME is a layer or a shell pattern over them, such as 'fill.*'.  --base .
--head . runs the checkout against itself.
"""

from __future__ import annotations

import argparse
import fnmatch
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pairs import quartiles  # noqa: E402  (tools/ is no package)

FAMILIES = ["l2", "normal", "linear", "ar", "rbf", "mahalanobis"]
LAYERS = {
    **{f"cost.{family}": "us/call" for family in FAMILIES},
    **{f"fill.{family}": "ms" for family in FAMILIES},
    "pelt.normal": "ms",
}
# the calls of a layer per round, of which a child reports the fastest
REPEAT = 3


def _signal(n: int, d: int, seed: int) -> np.ndarray:
    """n samples of d columns with 6 changes in mean and scale, the noise
    mixed across columns by one random matrix."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, n), size=6, replace=False))
    lengths = np.diff([0, *cuts.tolist(), n])
    means = np.repeat(rng.normal(scale=2.0, size=(7, d)), lengths, axis=0)
    scales = np.repeat(rng.uniform(0.5, 2.0, size=(7, 1)), lengths, axis=0)
    return means + scales * (rng.normal(size=(n, d)) @ rng.normal(size=(d, d)))


def _flipping(n: int, seed: int) -> np.ndarray:
    """n samples of 2 zero-mean columns whose correlation flips between +0.9
    and -0.9 at 6 changes: normal's pelt evaluates many live candidates."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, n), size=6, replace=False))
    rho = np.repeat(np.resize([0.9, -0.9], 7), np.diff([0, *cuts.tolist(), n]))
    raw = rng.standard_normal((n, 2))
    return np.column_stack([raw[:, 0], rho * raw[:, 0] + np.sqrt(1.0 - rho * rho) * raw[:, 1]])


def _spec(segscan, family: str):
    if family == "rbf":
        return segscan.CostSpec(family="kernel", kernel="rbf")
    return segscan.CostSpec(family=family)


def _answer(result) -> list:
    return [list(result.bkps.ends), result.contrast.hex(), result.n_cost_evals, result.n_pruned]


def _best(run) -> tuple[float, object]:
    """The least time of REPEAT calls of run(), which returns (seconds,
    answer), and the answer of the last call."""
    best, answer = float("inf"), None
    for _ in range(REPEAT):
        gc.collect()
        seconds, answer = run()
        best = min(best, seconds)
    return best, answer


def measure(segscan, layer: str) -> dict:
    """One round of a layer in this process: its best time, in the layer's
    unit, and the digest of its answers."""
    kind, family = layer.split(".")
    if kind == "cost":
        fitted = segscan.fit(_spec(segscan, family), _signal(320, 3, 1))
        rng = np.random.default_rng(2)
        segments = []
        while len(segments) < 3000:
            a, b = sorted(rng.integers(0, 321, size=2).tolist())
            if b - a >= fitted.min_seg_len:
                segments.append((a, b))
        cost = fitted.cost
        # the first call builds the rbf image
        cost(0, 320)

        def run():
            before = fitted.eval_counter
            start = time.perf_counter()
            for _ in range(5):
                values = [cost(a, b) for a, b in segments]
            seconds = time.perf_counter() - start
            return seconds, [[value.hex() for value in values], fitted.eval_counter - before]

        seconds, answer = _best(run)
        value = 1e6 * seconds / (5 * len(segments))
    elif kind == "fill":
        spec = _spec(segscan, family)
        signals = [_signal(n, 3, seed) for n, seed in ((320, 3), (1000, 4))]

        def run():
            fits = [segscan.fit(spec, signal) for signal in signals]
            start = time.perf_counter()
            filled = [segscan.dynp(fitted, 0) for fitted in fits]
            seconds = time.perf_counter() - start
            solved = [segscan.dynp(fitted, 5) for fitted in fits]
            counts = [fitted.eval_counter for fitted in fits]
            return seconds, [[_answer(r) for r in filled + solved], counts]

        seconds, answer = _best(run)
        value = 1e3 * seconds
    else:
        signal = _flipping(1000, 5)

        def run():
            fits = [segscan.fit(segscan.CostSpec(family="normal"), signal) for _ in range(2)]
            start = time.perf_counter()
            found = [segscan.pelt(fitted, penalty) for fitted, penalty in zip(fits, (10.0, 60.0))]
            seconds = time.perf_counter() - start
            return seconds, [[_answer(r) for r in found], [fitted.eval_counter for fitted in fits]]

        seconds, answer = _best(run)
        value = 1e3 * seconds
    digest = hashlib.sha256(json.dumps(answer).encode()).hexdigest()[:16]
    return {"value": value, "digest": digest}


def _child() -> None:
    """Serve layer requests, one JSON line each on stdin, until it closes."""
    import segscan

    print(json.dumps({"module": segscan.__file__}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(measure(segscan, request["layer"])), flush=True)


class Child:
    """A child process serving one tree's layers."""

    def __init__(self, checkout: Path):
        src = (checkout / "src").resolve()
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--child"],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        module = Path(self._read()["module"]).resolve()
        if not module.is_relative_to(src):
            self.close()
            raise SystemExit(f"layers: {checkout} imported segscan from {module}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"layers: a child exited with status {self.proc.wait()}")
        return json.loads(line)

    def ask(self, layer: str) -> dict:
        self.proc.stdin.write(json.dumps({"layer": layer}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def summarize(layer: str, base: list[dict], head: list[dict]) -> dict:
    """One layer's row from both sides' replies, base[i] and head[i] from
    round i + 1: medians, quartiles, the rounds the head took less time,
    the ratio of the medians, and whether every reply gave one digest."""
    if len(base) != len(head) or not base:
        raise ValueError("need the same positive number of base and head replies")
    sides = {}
    for side, replies in (("base", base), ("head", head)):
        values = [reply["value"] for reply in replies]
        q1, median, q3 = quartiles(values)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "values": values}
    return {
        "layer": layer, "unit": LAYERS[layer], **sides,
        "head_wins": sum(h["value"] < b["value"] for b, h in zip(base, head)),
        "rounds": len(base),
        "ratio": sides["head"]["median"] / sides["base"]["median"],
        "answers_match": len({reply["digest"] for reply in base + head}) == 1,
    }


def format_rows(rows: list[dict]) -> str:
    def side(stats):
        return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"

    out = ["layer             unit     base median [q1, q3]        head median [q1, q3]"
           "        wins   ratio  answers"]
    for row in rows:
        out.append(
            f"{row['layer']:<17} {row['unit']:<8} {side(row['base']):<27} {side(row['head']):<27} "
            f"{row['head_wins']:>2}/{row['rounds']:<3} {row['ratio']:6.3f}  "
            f"{'same' if row['answers_match'] else 'DIFFER'}"
        )
    return "\n".join(out)


def report(rows: list[dict]) -> int:
    """Print the rows; the exit status, 1 when a layer's answers differ."""
    print(format_rows(rows))
    differ = [row["layer"] for row in rows if not row["answers_match"]]
    if differ:
        print(f"layers: the answers differ on {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path)
    parser.add_argument("--head", type=Path)
    parser.add_argument("--layer")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child()
        return 0
    if args.base is None or args.head is None or args.layer is None:
        parser.error("--base, --head and --layer are required")
    layers = fnmatch.filter(LAYERS, args.layer)
    if not layers:
        parser.error(f"no layer matches {args.layer!r}; the layers are {', '.join(LAYERS)}")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    children = {"base": Child(args.base), "head": Child(args.head)}
    rows = []
    try:
        for layer in layers:
            replies = {"base": [], "head": []}
            for round_ in range(1, args.rounds + 1):
                order = ["base", "head"] if round_ % 2 else ["head", "base"]
                for side in order:
                    replies[side].append(children[side].ask(layer))
            rows.append(summarize(layer, replies["base"], replies["head"]))
    finally:
        for child in children.values():
            child.close()
    print(f"{args.rounds} rounds, best of {REPEAT} calls each")
    return report(rows)


if __name__ == "__main__":
    sys.exit(main())
