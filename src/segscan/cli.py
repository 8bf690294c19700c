"""Command line front end: generate, detect, eval and plot.

Exit codes
----------
0   success
2   bad flags or parameter values (also argparse's own errors)
3   unreadable or malformed input files
4   detection cannot proceed (infeasible request, budget out of reach,
    window or memory limits, signal too short, a singular segment system);
    the error class name is printed to stderr
5   a breakpoint list failed validation against the signal length

``detect`` and ``eval`` print a single JSON document on stdout and nothing
else; all diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
import warnings

import numpy as np

from .core import Signal, validate_breakpoints, validate_signal
from .costs import MEDIAN_HEURISTIC, CostSpec, fit
from .exceptions import (
    BadParamError,
    BudgetUnreachableError,
    DuplicateError,
    EmptySignalError,
    IndexOutOfRangeError,
    InfeasibleError,
    MemoryBudgetError,
    MismatchedLengthError,
    MissingTerminalError,
    NonFiniteValueError,
    NotSortedError,
    OutOfRangeError,
    RaggedInputError,
    SegmentTooShortError,
    SignalTooShortError,
    SpacingInfeasibleError,
    WindowTooLargeError,
)
from .generators import GenSpec, pw_constant, pw_linear, pw_normal
from .metrics import hausdorff, precision_recall, rand_index
from .search import SearchConfig, StoppingRule, binseg, bottomup, dynp, pelt, solve_budget, window
from .svgplot import render_svg


class UsageError(Exception):
    """Flag combination the parser cannot express, caught after parsing."""


class FormatError(Exception):
    """Input file opened fine but its content is not in the expected shape."""


_EXIT_RULES = (
    ((UsageError, BadParamError, SpacingInfeasibleError), 2),
    (
        (
            FormatError,
            RaggedInputError,
            NonFiniteValueError,
            EmptySignalError,
            json.JSONDecodeError,
            UnicodeDecodeError,
            csv.Error,
            OSError,
        ),
        3,
    ),
    (
        (
            InfeasibleError,
            BudgetUnreachableError,
            WindowTooLargeError,
            MemoryBudgetError,
            SignalTooShortError,
            SegmentTooShortError,
            IndexOutOfRangeError,
            np.linalg.LinAlgError,
        ),
        4,
    ),
    (
        (
            MismatchedLengthError,
            MissingTerminalError,
            OutOfRangeError,
            NotSortedError,
            DuplicateError,
        ),
        5,
    ),
)

_HANDLED = tuple(cls for classes, _ in _EXIT_RULES for cls in classes)


def _exit_code(exc: BaseException) -> int:
    for classes, code in _EXIT_RULES:
        if isinstance(exc, classes):
            return code
    return 1


def _read_csv(path: str, header: bool) -> Signal:
    """Read a signal CSV: one sample per row, one dimension per column.

    A cell holds one number as Python's float() reads it, optionally quoted
    ("1.5") or padded with spaces.  Blank lines are skipped and '#' starts no
    comment.  With header=True the first record is skipped.

    One np.loadtxt call parses a regular file.  When it raises or finds no
    rows, and for anything but a regular file (a pipe can be read only once),
    the file is scanned record by record instead: that scan accepts what only
    float() reads (1_000, say) and raises the error of the first bad record,
    naming its line.
    """
    if not os.path.isfile(path):
        return _scan_csv(path, header)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if header:
                # the csv module finds the end of the header record, which may
                # span lines inside quotes; loadtxt's skiprows counts lines
                next(csv.reader(fh), None)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on empty input
                data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except (OSError, ValueError, csv.Error):
        # the scan raises the very error the old reader raised, or reads what
        # only float() accepts
        return _scan_csv(path, header)
    if data.size == 0:
        return _scan_csv(path, header)
    return validate_signal(data)


def _scan_csv(path: str, header: bool) -> Signal:
    rows = []
    expected = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not row:
                continue
            if expected is None:
                expected = len(row)
            elif len(row) != expected:
                raise RaggedInputError(
                    f"{path} line {lineno}: expected {expected} columns, got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                bad = next(cell for cell in row if not _parses_as_float(cell))
                raise FormatError(
                    f"{path} line {lineno}: could not parse {bad!r} as a number"
                ) from None
    if not rows:
        raise EmptySignalError(f"{path}: no data rows")
    return validate_signal(np.asarray(rows))


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _write_csv(path: str, signal: Signal, header: bool) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([f"dim{j}" for j in range(signal.n_dims)])
        for row in signal.data:
            writer.writerow([repr(float(value)) for value in row])


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object at the top level")
    return doc


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise FormatError(f"{path}: missing key {key!r}")
    return doc[key]


def _require_int(doc: dict, key: str, path: str) -> int:
    value = _require(doc, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{path}: key {key!r} must be an integer, got {value!r}")
    return value


def _require_list(doc: dict, key: str, path: str) -> list:
    value = _require(doc, key, path)
    if not isinstance(value, list):
        raise FormatError(f"{path}: key {key!r} must be a list, got {value!r}")
    return value


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "normal":
        if args.dims is not None and args.dims != 2:
            raise UsageError("--kind normal is always 2-dimensional; drop --dims")
        if args.noise is not None and args.noise != 0.0:
            raise UsageError("--kind normal draws its own noise; --noise does not apply")
        signal, bkps = pw_normal(args.T, args.n_bkps, args.seed)
    else:
        spec = GenSpec(
            n_samples=args.T,
            n_dims=args.dims if args.dims is not None else 1,
            n_bkps=args.n_bkps,
            noise_std=args.noise if args.noise is not None else 0.0,
            seed=args.seed,
        )
        signal, bkps = pw_constant(spec) if args.kind == "constant" else pw_linear(spec)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "signal.csv")
    truth_path = os.path.join(args.out, "truth.json")
    _write_csv(csv_path, signal, args.header)
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump({"T": signal.n_samples, "bkps": list(bkps.ends)}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {csv_path} and {truth_path}", file=sys.stderr)
    return 0


def _cost_spec(args: argparse.Namespace) -> CostSpec:
    if args.cost == "rbf":
        gamma = args.gamma if args.gamma is not None else MEDIAN_HEURISTIC
        return CostSpec(family="kernel", kernel="rbf", gamma=gamma)
    if args.cost == "ar":
        if args.order is not None:
            return CostSpec(family="ar", order=args.order)
        return CostSpec(family="ar")
    return CostSpec(family=args.cost)


def _cmd_detect(args: argparse.Namespace) -> int:
    stopping_flags = [
        ("n-bkps", args.n_bkps),
        ("pen", args.pen),
        ("epsilon", args.epsilon),
    ]
    given = [(name, value) for name, value in stopping_flags if value is not None]
    if len(given) != 1:
        raise UsageError("exactly one of --n-bkps, --pen, --epsilon is required")
    rule_name, rule_value = given[0]
    if args.method == "dynp" and rule_name == "pen":
        raise UsageError("dynp does not take --pen; use --n-bkps or --epsilon")
    if args.method == "pelt" and rule_name != "pen":
        raise UsageError("pelt takes only --pen")
    if args.gamma is not None and args.cost != "rbf":
        raise UsageError("--gamma applies only to --cost rbf")
    if args.order is not None and args.cost != "ar":
        raise UsageError("--order applies only to --cost ar")
    if args.window_width is not None and args.method != "window":
        raise UsageError("--window-width applies only to --method window")
    if args.method == "window" and args.window_width is None:
        raise UsageError("--method window requires --window-width")

    signal = _read_csv(args.input, args.header)
    fitted = fit(_cost_spec(args), signal)
    config = SearchConfig(min_size=args.min_size, jump=args.jump, window_width=args.window_width)

    start = time.perf_counter()
    if args.method == "dynp":
        if rule_name == "n-bkps":
            result = dynp(fitted, args.n_bkps, config)
        else:
            result = solve_budget(fitted, args.epsilon, config)
    elif args.method == "pelt":
        result = pelt(fitted, args.pen, config)
    else:
        if rule_name == "n-bkps":
            stop = StoppingRule(n_bkps=args.n_bkps)
        elif rule_name == "pen":
            stop = StoppingRule(penalty=args.pen)
        else:
            stop = StoppingRule(budget=args.epsilon)
        engine = {"binseg": binseg, "bottomup": bottomup, "window": window}[args.method]
        result = engine(fitted, stop, config)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    _print_json(
        {
            "bkps": list(result.bkps.ends),
            "contrast": result.contrast,
            "method": args.method,
            "cost": args.cost,
            "stopping": {"rule": rule_name, "value": rule_value},
            "n_cost_evals": result.n_cost_evals,
            "n_pruned": result.n_pruned,
            "elapsed_ms": elapsed_ms,
        }
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    truth_doc = _read_json(args.truth)
    n_samples = _require_int(truth_doc, "T", args.truth)
    truth = validate_breakpoints(_require_list(truth_doc, "bkps", args.truth), n_samples)
    pred_doc = _read_json(args.pred)
    if "T" in pred_doc:
        pred_samples = _require_int(pred_doc, "T", args.pred)
        if pred_samples != n_samples:
            raise MismatchedLengthError(
                f"truth has T={n_samples} but prediction has T={pred_samples}"
            )
    pred = validate_breakpoints(_require_list(pred_doc, "bkps", args.pred), n_samples)
    scores = precision_recall(truth, pred, margin=args.margin)
    _print_json(
        {
            "hausdorff": hausdorff(truth, pred),
            "rand_index": rand_index(truth, pred),
            "precision": scores.precision,
            "recall": scores.recall,
        }
    )
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    signal = _read_csv(args.input, args.header)
    seg_doc = _read_json(args.segmentation)
    segmentation = validate_breakpoints(
        _require_list(seg_doc, "bkps", args.segmentation), signal.n_samples
    )
    truth = None
    if args.truth is not None:
        truth_doc = _read_json(args.truth)
        truth = validate_breakpoints(
            _require_list(truth_doc, "bkps", args.truth), signal.n_samples
        )
    markup = render_svg(
        signal,
        segmentation,
        truth=truth,
        width=args.width,
        panel_height=args.panel_height,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(markup)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="segscan",
        description="Offline change point detection on multivariate CSV signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic signal.csv and truth.json")
    gen.add_argument("--kind", required=True, choices=("constant", "linear", "normal"))
    gen.add_argument("--T", type=int, required=True, help="number of samples")
    gen.add_argument("--dims", type=int, default=None, help="dimensions (default 1)")
    gen.add_argument("--n-bkps", type=int, default=0, help="number of change points")
    gen.add_argument("--noise", type=float, default=None, help="noise std dev (default 0)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--header", action="store_true", help="write a dim0..dimN-1 header row")
    gen.set_defaults(func=_cmd_generate)

    det = sub.add_parser("detect", help="segment a CSV signal and print JSON")
    det.add_argument("--input", required=True, help="signal CSV, rows are samples")
    det.add_argument("--header", action="store_true", help="input has a header row")
    det.add_argument(
        "--method",
        required=True,
        choices=("dynp", "pelt", "binseg", "bottomup", "window"),
    )
    det.add_argument(
        "--cost",
        default="l2",
        choices=("l2", "normal", "linear", "ar", "rbf", "mahalanobis"),
    )
    det.add_argument("--n-bkps", type=int, default=None, help="stop at this many changes")
    det.add_argument("--pen", type=float, default=None, help="per-change penalty")
    det.add_argument("--epsilon", type=float, default=None, help="contrast budget")
    det.add_argument("--min-size", type=int, default=1, help="minimum segment length")
    det.add_argument("--jump", type=int, default=1, help="candidate grid step")
    det.add_argument("--window-width", type=int, default=None, help="window method width")
    det.add_argument("--gamma", type=float, default=None, help="rbf bandwidth (default: median heuristic)")
    det.add_argument("--order", type=int, default=None, help="ar model order (default 4)")
    det.set_defaults(func=_cmd_detect)

    ev = sub.add_parser("eval", help="score a prediction against a truth file")
    ev.add_argument("--truth", required=True, help="truth.json with T and bkps")
    ev.add_argument("--pred", required=True, help="JSON with a bkps list (detect output works)")
    ev.add_argument("--margin", type=float, default=0.0, help="match tolerance in samples")
    ev.set_defaults(func=_cmd_eval)

    plot = sub.add_parser("plot", help="render the signal and a segmentation to SVG")
    plot.add_argument("--input", required=True, help="signal CSV, rows are samples")
    plot.add_argument("--header", action="store_true", help="input has a header row")
    plot.add_argument("--segmentation", required=True, help="JSON with a bkps list")
    plot.add_argument("--truth", default=None, help="optional truth.json for dashed markers")
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.add_argument("--width", type=int, default=900)
    plot.add_argument("--panel-height", type=int, default=130)
    plot.set_defaults(func=_cmd_plot)

    return parser


def _show_warning(command, message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning in the one-line form of the CLI's errors, with no
    source line: a warning is about the input, not about segscan's code."""
    print(f"segscan {command}: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # catch_warnings puts the caller's warnings.showwarning back on return
    with warnings.catch_warnings():
        warnings.showwarning = functools.partial(_show_warning, args.command)
        try:
            return args.func(args)
        except _HANDLED as exc:
            print(f"segscan {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return _exit_code(exc)
