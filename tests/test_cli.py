"""End-to-end command line checks, run through subprocesses like a user would.

Exit code contract: 2 bad flags/params, 3 unreadable or malformed files,
4 infeasible detection, 5 breakpoint validation failures.
"""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "segscan", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """json.loads that fails on NaN, Infinity and -Infinity, which Python's
    json accepts but strict JSON readers refuse."""
    return json.loads(text, parse_constant=_refuse_constant)


@pytest.fixture(scope="module")
def clean_case(tmp_path_factory):
    """Noiseless piecewise constant data: detection should be exact."""
    out = tmp_path_factory.mktemp("clean")
    proc = run_cli(
        "generate", "--kind", "constant", "--T", "180", "--dims", "2",
        "--n-bkps", "3", "--noise", "0", "--seed", "14", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    return out


def test_generate_writes_csv_and_truth(clean_case):
    csv_path = clean_case / "signal.csv"
    truth_path = clean_case / "truth.json"
    assert csv_path.is_file() and truth_path.is_file()
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 180
    assert all(len(row) == 2 for row in rows)
    truth = strict_json(truth_path.read_text())
    assert truth["T"] == 180
    assert truth["bkps"][-1] == 180
    assert len(truth["bkps"]) == 4


def test_generate_header_flag(tmp_path):
    proc = run_cli(
        "generate", "--kind", "linear", "--T", "30", "--dims", "3",
        "--n-bkps", "1", "--out", str(tmp_path), "--header",
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "signal.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dim0", "dim1", "dim2"]
    assert len(rows) == 31


def test_generate_normal_flag_rules(tmp_path):
    ok = run_cli("generate", "--kind", "normal", "--T", "100", "--n-bkps", "2",
                 "--out", str(tmp_path / "a"))
    assert ok.returncode == 0, ok.stderr
    bad_dims = run_cli("generate", "--kind", "normal", "--T", "100", "--dims", "3",
                       "--out", str(tmp_path / "b"))
    assert bad_dims.returncode == 2
    bad_noise = run_cli("generate", "--kind", "normal", "--T", "100", "--noise", "1.0",
                        "--out", str(tmp_path / "c"))
    assert bad_noise.returncode == 2


def test_generate_infeasible_spacing(tmp_path):
    proc = run_cli("generate", "--kind", "constant", "--T", "9", "--n-bkps", "4",
                   "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "SpacingInfeasibleError" in proc.stderr


def test_detect_roundtrip_and_eval(clean_case, tmp_path):
    truth = strict_json((clean_case / "truth.json").read_text())
    detect = run_cli(
        "detect", "--input", str(clean_case / "signal.csv"),
        "--method", "dynp", "--cost", "l2", "--n-bkps", "3",
    )
    assert detect.returncode == 0, detect.stderr
    payload = strict_json(detect.stdout)
    assert payload["bkps"] == truth["bkps"]
    assert set(payload) == {
        "bkps", "contrast", "method", "cost", "stopping",
        "n_cost_evals", "n_pruned", "elapsed_ms",
    }
    assert payload["method"] == "dynp"
    assert payload["cost"] == "l2"
    assert payload["stopping"] == {"rule": "n-bkps", "value": 3}

    pred_path = tmp_path / "pred.json"
    pred_path.write_text(detect.stdout)
    evaled = run_cli("eval", "--truth", str(clean_case / "truth.json"),
                     "--pred", str(pred_path), "--margin", "0")
    assert evaled.returncode == 0, evaled.stderr
    scores = strict_json(evaled.stdout)
    assert set(scores) == {"hausdorff", "rand_index", "precision", "recall"}
    assert scores["hausdorff"] == 0
    assert scores["rand_index"] == 1.0
    assert scores["precision"] == 1.0 and scores["recall"] == 1.0


def test_detect_is_deterministic_apart_from_timing(clean_case):
    args = ("detect", "--input", str(clean_case / "signal.csv"),
            "--method", "pelt", "--pen", "0.5")
    first = strict_json(run_cli(*args).stdout)
    second = strict_json(run_cli(*args).stdout)
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


def test_detect_every_method_runs(clean_case):
    variants = [
        ("dynp", ["--n-bkps", "3"]),
        ("dynp", ["--epsilon", "1e-6"]),
        ("pelt", ["--pen", "0.5"]),
        ("binseg", ["--n-bkps", "3"]),
        ("bottomup", ["--epsilon", "1e-6"]),
        ("window", ["--n-bkps", "3", "--window-width", "24"]),
    ]
    for method, extra in variants:
        proc = run_cli("detect", "--input", str(clean_case / "signal.csv"),
                       "--method", method, *extra)
        assert proc.returncode == 0, (method, proc.stderr)
        assert strict_json(proc.stdout)["method"] == method


def test_detect_cost_variants(clean_case):
    for cost, extra in [
        ("normal", []),
        ("linear", []),
        ("ar", ["--order", "2"]),
        ("rbf", ["--gamma", "0.5"]),
        ("rbf", []),
        ("mahalanobis", []),
    ]:
        proc = run_cli("detect", "--input", str(clean_case / "signal.csv"),
                       "--method", "binseg", "--cost", cost, "--n-bkps", "2",
                       "--min-size", "6", *extra)
        assert proc.returncode == 0, (cost, proc.stderr)
        assert strict_json(proc.stdout)["cost"] == cost


def test_detect_flag_combinations_rejected(clean_case):
    signal = str(clean_case / "signal.csv")
    cases = [
        ["--method", "pelt", "--n-bkps", "2"],
        ["--method", "pelt", "--pen", "1", "--n-bkps", "2"],
        ["--method", "dynp", "--pen", "1"],
        ["--method", "dynp"],
        ["--method", "binseg", "--n-bkps", "2", "--gamma", "0.5"],
        ["--method", "binseg", "--n-bkps", "2", "--order", "3"],
        ["--method", "binseg", "--n-bkps", "2", "--window-width", "20"],
        ["--method", "window", "--n-bkps", "2"],
        ["--method", "dynp", "--n-bkps", "2", "--min-size", "0"],
    ]
    for extra in cases:
        proc = run_cli("detect", "--input", signal, *extra)
        assert proc.returncode == 2, extra


def test_detect_io_errors(tmp_path, clean_case):
    missing = run_cli("detect", "--input", str(tmp_path / "nope.csv"),
                      "--method", "pelt", "--pen", "1")
    assert missing.returncode == 3

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    proc = run_cli("detect", "--input", str(ragged), "--method", "pelt", "--pen", "1")
    assert proc.returncode == 3
    assert "line 2" in proc.stderr

    words = tmp_path / "words.csv"
    words.write_text("1.0\nbanana\n")
    proc = run_cli("detect", "--input", str(words), "--method", "pelt", "--pen", "1")
    assert proc.returncode == 3
    assert "line 2" in proc.stderr

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    proc = run_cli("detect", "--input", str(empty), "--method", "pelt", "--pen", "1")
    assert proc.returncode == 3

    holes = tmp_path / "holes.csv"
    holes.write_text("1.0\nnan\n")
    proc = run_cli("detect", "--input", str(holes), "--method", "pelt", "--pen", "1")
    assert proc.returncode == 3


def test_detect_infeasible_is_exit_4(clean_case):
    proc = run_cli("detect", "--input", str(clean_case / "signal.csv"),
                   "--method", "dynp", "--n-bkps", "400")
    assert proc.returncode == 4
    assert "InfeasibleError" in proc.stderr
    proc = run_cli("detect", "--input", str(clean_case / "signal.csv"),
                   "--method", "window", "--n-bkps", "1", "--window-width", "500")
    assert proc.returncode == 4
    assert "WindowTooLargeError" in proc.stderr


def write_csv(path, rows):
    np.savetxt(path, rows, fmt="%.17g", delimiter=",")  # 17 digits round-trip exactly
    return str(path)


def collinear_csv(tmp_path):
    """160 rows y, x, x with x = 1e9 * N(0, 1)."""
    rng = np.random.default_rng(91)
    x = 1e9 * rng.normal(size=160)
    return write_csv(tmp_path / "collinear.csv", np.column_stack([rng.normal(size=160), x, x]))


@pytest.mark.parametrize("method", ["binseg", "dynp"])
@pytest.mark.parametrize("cost", ["normal", "mahalanobis"])
def test_detect_covariance_costs_on_identical_columns(tmp_path, cost, method):
    """Two identical columns at 1e9 scale: normal's ridge on each variance and
    the ridge on the eigenvalues of the covariance mahalanobis inverts stay
    above rounding, so every cost is finite, with no numpy warning."""
    proc = run_cli("detect", "--input", collinear_csv(tmp_path), "--method", method,
                   "--cost", cost, "--n-bkps", "2",
                   env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    out = strict_json(proc.stdout)
    assert math.isfinite(out["contrast"])
    assert len(out["bkps"]) == 3


def test_detect_singular_segment_system_is_exit_4(tmp_path, capsys, monkeypatch):
    """A singular segment system raises np.linalg.LinAlgError, which the CLI
    maps to exit 4.  The ridge keeps every shipped family's systems
    nonsingular, so the linear fit's prefix sums are zeroed by hand."""
    import segscan.cli
    from segscan import CostSpec, fit

    def singular_fit(spec, signal):
        fitted = fit(CostSpec(family="linear"), signal)
        fitted._prod[...] = 0.0
        return fitted

    monkeypatch.setattr(segscan.cli, "fit", singular_fit)
    path = write_csv(tmp_path / "pair.csv", np.random.default_rng(90).normal(size=(40, 2)))
    code = segscan.cli.main(["detect", "--input", path, "--method", "binseg", "--cost", "linear",
                             "--n-bkps", "1"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err.endswith("segscan detect: LinAlgError: Singular matrix\n")
    assert captured.out == ""


def test_detect_linear_on_identical_regressors(tmp_path):
    """The same two identical regressors: linear's slope ridge stays above
    the rounding of their squared sums, so every segment's system stays
    solvable."""
    proc = run_cli("detect", "--input", collinear_csv(tmp_path), "--method", "binseg",
                   "--cost", "linear", "--n-bkps", "2")
    assert proc.returncode == 0, proc.stderr
    assert len(strict_json(proc.stdout)["bkps"]) == 3


@pytest.mark.parametrize("levels", [(0.0, 65536.0), (65536.0, 0.0)])
@pytest.mark.parametrize("cost", ["linear", "ar"])
def test_detect_regression_costs_on_an_integer_step(tmp_path, cost, levels):
    """A noiseless integer step: inside each level the regressor is exactly
    constant, at 65536 or at the median after rows at 65536."""
    step = np.repeat(levels, 80)
    path = write_csv(tmp_path / "step.csv", np.column_stack([step, step]))
    order = ["--order", "1"] if cost == "ar" else []
    proc = run_cli("detect", "--input", path, "--method", "pelt", "--cost", cost, *order,
                   "--pen", "10")
    assert proc.returncode == 0, proc.stderr
    assert strict_json(proc.stdout)["bkps"][-1] == 160


def test_detect_linear_on_a_badly_scaled_signal(tmp_path):
    data = 1e6 + 1e-6 * np.random.default_rng(92).normal(size=(160, 3))
    path = write_csv(tmp_path / "scaled.csv", data)
    proc = run_cli("detect", "--input", path, "--method", "binseg", "--cost", "linear",
                   "--n-bkps", "3")
    assert proc.returncode == 0, proc.stderr
    assert len(strict_json(proc.stdout)["bkps"]) == 4


def test_detect_rbf_on_one_sample(tmp_path):
    """No pair, no bandwidth needed: the median heuristic's fallback, with its
    warning on stderr in the CLI's one-line form, and the one segment costs 0."""
    path = write_csv(tmp_path / "one.csv", np.array([[1.0]]))
    proc = run_cli("detect", "--input", path, "--method", "binseg", "--cost", "rbf",
                   "--n-bkps", "0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (
        "segscan detect: DegenerateSignalWarning: "
        "one sample has no pairs; falling back to gamma=1.0\n"
    )
    out = strict_json(proc.stdout)
    assert out["bkps"] == [1]
    assert out["contrast"] == 0.0


def test_detect_rbf_on_a_constant_signal_warns_in_one_line(tmp_path):
    """Every pairwise distance is zero: the median heuristic falls back to
    gamma=1.0, and stderr holds that one line, with no source line."""
    path = write_csv(tmp_path / "constant.csv", np.full((20, 2), 3.0))
    proc = run_cli("detect", "--input", path, "--method", "binseg", "--cost", "rbf",
                   "--n-bkps", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (
        "segscan detect: DegenerateSignalWarning: "
        "all sampled pairwise distances are zero; falling back to gamma=1.0\n"
    )
    assert strict_json(proc.stdout)["bkps"][-1] == 20


def test_main_puts_the_callers_showwarning_back(tmp_path, capsys):
    """main shows warnings in its own form only while it runs."""
    from segscan.cli import main

    before = warnings.showwarning
    path = write_csv(tmp_path / "one.csv", np.array([[1.0]]))
    assert main(["detect", "--input", path, "--method", "binseg", "--cost", "rbf",
                 "--n-bkps", "0"]) == 0
    assert "segscan detect: DegenerateSignalWarning:" in capsys.readouterr().err
    assert warnings.showwarning is before


@pytest.mark.parametrize("cost", ["l2", "normal", "linear", "ar", "rbf", "mahalanobis"])
def test_detect_refuses_a_signal_whose_summaries_overflow(tmp_path, cost):
    """A column at 1e155: its squares overflow float64.  Each family's fit
    refuses it as malformed input (exit 3) in one stderr line that names the
    --cost given, rather than answer 0.0 or NaN."""
    rng = np.random.default_rng(99)
    data = np.column_stack([rng.normal(size=40), 1e155 * rng.normal(size=40)])
    path = write_csv(tmp_path / "huge.csv", data)
    proc = run_cli("detect", "--input", path, "--method", "binseg", "--cost", cost,
                   "--n-bkps", "1", env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"segscan detect: NonFiniteValueError: {cost} ")
    assert "overflow float64" in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_eval_validation_failures(clean_case, tmp_path):
    truth_path = str(clean_case / "truth.json")

    unsorted = tmp_path / "unsorted.json"
    unsorted.write_text(json.dumps({"bkps": [90, 30, 180]}))
    proc = run_cli("eval", "--truth", truth_path, "--pred", str(unsorted))
    assert proc.returncode == 5
    assert "NotSortedError" in proc.stderr

    wrong_t = tmp_path / "wrong_t.json"
    wrong_t.write_text(json.dumps({"T": 200, "bkps": [50, 200]}))
    proc = run_cli("eval", "--truth", truth_path, "--pred", str(wrong_t))
    assert proc.returncode == 5
    assert "MismatchedLengthError" in proc.stderr

    short = tmp_path / "short.json"
    short.write_text(json.dumps({"bkps": [50, 170]}))
    proc = run_cli("eval", "--truth", truth_path, "--pred", str(short))
    assert proc.returncode == 5
    assert "MissingTerminalError" in proc.stderr

    nokey = tmp_path / "nokey.json"
    nokey.write_text(json.dumps({"ends": [180]}))
    proc = run_cli("eval", "--truth", truth_path, "--pred", str(nokey))
    assert proc.returncode == 3

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    proc = run_cli("eval", "--truth", truth_path, "--pred", str(broken))
    assert proc.returncode == 3

    fine = tmp_path / "fine.json"
    fine.write_text(json.dumps({"bkps": [60, 180]}))
    proc = run_cli("eval", "--truth", truth_path, "--pred", str(fine), "--margin", "-2")
    assert proc.returncode == 2
    assert "BadParamError" in proc.stderr


@pytest.mark.parametrize("bkps", ["[NaN, 10]", "[null, 10]", "[Infinity, 10]", "[true, 10]"])
def test_eval_refuses_a_malformed_end_with_exit_5(bkps, tmp_path, capsys):
    """An end that is not an integral number is a breakpoint validation
    failure (exit 5), not a crash (exit 1) nor, for true, the end 1."""
    from segscan.cli import main

    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"T": 10, "bkps": [5, 10]}))
    pred = tmp_path / "pred.json"
    pred.write_text(f'{{"bkps": {bkps}}}')
    assert main(["eval", "--truth", str(truth), "--pred", str(pred)]) == 5
    assert "OutOfRangeError" in capsys.readouterr().err


def test_detect_ignores_threads_env_var(clean_case):
    """SEGSCAN_THREADS is no longer read: any value, even a malformed one,
    gives the same answer as leaving it unset."""
    args = ("detect", "--input", str(clean_case / "signal.csv"), "--method", "pelt", "--pen", "1")
    env = {key: value for key, value in os.environ.items() if key != "SEGSCAN_THREADS"}
    unset = subprocess.run([sys.executable, "-m", "segscan", *args],
                           capture_output=True, text=True, env=env)
    assert unset.returncode == 0, unset.stderr
    expected = strict_json(unset.stdout)
    expected.pop("elapsed_ms")
    for value in ("4", "0", "many", "-2"):
        proc = run_cli(*args, env_extra={"SEGSCAN_THREADS": value})
        assert proc.returncode == 0, (value, proc.stderr)
        payload = strict_json(proc.stdout)
        payload.pop("elapsed_ms")
        assert payload == expected, value


def test_main_reuses_its_parser_without_leaking_flags(clean_case, capsys):
    """main() builds its parser once per process.  Each call must still see
    only its own flags: a --gamma, --order or --window-width left over from
    the call before would turn the next call into a usage error (exit 2) or
    change its answer, so each second call must match a fresh process."""
    from segscan.cli import main

    signal = str(clean_case / "signal.csv")
    pairs = [
        (["--method", "binseg", "--n-bkps", "3", "--cost", "rbf", "--gamma", "0.5"],
         ["--method", "binseg", "--n-bkps", "3", "--cost", "rbf"]),
        (["--method", "binseg", "--n-bkps", "3", "--cost", "ar", "--order", "2"],
         ["--method", "binseg", "--n-bkps", "3", "--cost", "l2"]),
        (["--method", "window", "--n-bkps", "3", "--window-width", "20"],
         ["--method", "bottomup", "--n-bkps", "3"]),
    ]
    for first, second in pairs:
        assert main(["detect", "--input", signal, *first]) == 0
        capsys.readouterr()
        assert main(["detect", "--input", signal, *second]) == 0
        payload = strict_json(capsys.readouterr().out)
        fresh = run_cli("detect", "--input", signal, *second)
        assert fresh.returncode == 0, fresh.stderr
        expected = strict_json(fresh.stdout)
        payload.pop("elapsed_ms")
        expected.pop("elapsed_ms")
        assert payload == expected, second


def test_plot_writes_svg(clean_case, tmp_path):
    detect = run_cli("detect", "--input", str(clean_case / "signal.csv"),
                     "--method", "binseg", "--n-bkps", "3")
    assert len(strict_json(detect.stdout)["bkps"]) == 4
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(detect.stdout)
    svg_path = tmp_path / "plot.svg"
    proc = run_cli("plot", "--input", str(clean_case / "signal.csv"),
                   "--segmentation", str(pred_path),
                   "--truth", str(clean_case / "truth.json"),
                   "--out", str(svg_path))
    assert proc.returncode == 0, proc.stderr
    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    regimes = root.findall(".//s:rect[@class='regime']", ns)
    assert len(regimes) == 4 * 2  # segments times dimensions
    polylines = root.findall(".//s:polyline", ns)
    assert len(polylines) == 2
    truth_lines = root.findall(".//s:g[@class='truth']/s:line", ns)
    assert len(truth_lines) == 3


def test_plot_rejects_bad_segmentation(clean_case, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bkps": [400]}))
    proc = run_cli("plot", "--input", str(clean_case / "signal.csv"),
                   "--segmentation", str(bad), "--out", str(tmp_path / "x.svg"))
    assert proc.returncode == 5
    assert "OutOfRangeError" in proc.stderr


def test_no_subcommand_exits_2():
    proc = run_cli()
    assert proc.returncode == 2


# every library error's exit code, as _EXIT_RULES listed them one class at a
# time before the errors were grouped into families
LIBRARY_EXIT_CODES = {
    "BadParamError": 2,
    "SpacingInfeasibleError": 2,
    "NonFiniteValueError": 3,
    "EmptySignalError": 3,
    "RaggedInputError": 3,
    "InfeasibleError": 4,
    "BudgetUnreachableError": 4,
    "WindowTooLargeError": 4,
    "MemoryBudgetError": 4,
    "SignalTooShortError": 4,
    "SegmentTooShortError": 4,
    "IndexOutOfRangeError": 4,
    "MismatchedLengthError": 5,
    "MissingTerminalError": 5,
    "OutOfRangeError": 5,
    "NotSortedError": 5,
    "DuplicateError": 5,
}


def test_every_library_error_keeps_its_exit_code():
    """Each error class exits as it did before the families, each family
    exits as its members do, and no library error falls through to exit 1."""
    from segscan import exceptions
    from segscan.cli import FormatError, _exit_code

    families = {
        exceptions.InputError: 3,
        exceptions.DetectionError: 4,
        exceptions.BreakpointError: 5,
    }
    errors = {
        name: cls
        for name, cls in vars(exceptions).items()
        if isinstance(cls, type)
        and issubclass(cls, exceptions.SegscanError)
        and cls is not exceptions.SegscanError
    }
    leaves = {name: cls for name, cls in errors.items() if cls not in families}
    assert {name: _exit_code(cls("x")) for name, cls in leaves.items()} == LIBRARY_EXIT_CODES
    for family, code in families.items():
        assert _exit_code(family("x")) == code
    for cls in leaves.values():
        family = next((f for f in families if issubclass(cls, f)), None)
        assert family is None or families[family] == _exit_code(cls("x")), cls
    assert _exit_code(FormatError("x")) == 3


def test_detect_takes_exactly_one_stopping_flag(clean_case, capsys):
    """argparse admits one of --n-bkps, --pen and --epsilon, and "stopping"
    reports the one given with its value."""
    from segscan.cli import main

    signal = str(clean_case / "signal.csv")
    for flags in (["--pen", "1", "--epsilon", "2"], ["--n-bkps", "1", "--epsilon", "2"],
                  ["--n-bkps", "1", "--pen", "1", "--epsilon", "2"], []):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--input", signal, "--method", "binseg", *flags])
        assert exc.value.code == 2, flags
        assert "--" in capsys.readouterr().err
    for flag, value, rule in (("--n-bkps", 3, "n-bkps"), ("--pen", 2.5, "pen"),
                              ("--epsilon", 1e9, "epsilon")):
        assert main(["detect", "--input", signal, "--method", "binseg", flag, str(value)]) == 0
        assert strict_json(capsys.readouterr().out)["stopping"] == {"rule": rule, "value": value}


def test_detect_checks_flag_values_before_reading_the_input(tmp_path, capsys):
    """A bad flag value exits 2 even when the input cannot be read (3)."""
    from segscan.cli import main

    missing = str(tmp_path / "nope.csv")
    cases = [
        ["--method", "pelt", "--pen", "nan"],
        ["--method", "dynp", "--n-bkps", "-1"],
        ["--method", "binseg", "--epsilon", "-1"],
        ["--method", "pelt", "--pen", "1", "--min-size", "0"],
        ["--method", "binseg", "--n-bkps", "1", "--jump", "0"],
        ["--method", "binseg", "--n-bkps", "1", "--cost", "rbf", "--gamma", "-1"],
        ["--method", "binseg", "--n-bkps", "1", "--cost", "ar", "--order", "0"],
    ]
    for extra in cases:
        assert main(["detect", "--input", missing, *extra]) == 2, extra
        assert "BadParamError" in capsys.readouterr().err
    assert main(["detect", "--input", missing, "--method", "pelt", "--pen", "1"]) == 3


def test_plot_and_eval_check_flag_values_before_reading_their_files(tmp_path, capsys):
    """plot and eval follow detect's rule: a bad --width, --panel-height or
    --margin exits 2 even when the files cannot be read (3)."""
    from segscan.cli import main

    signal, truth, pred = (str(tmp_path / name) for name in ("nope.csv", "t.json", "p.json"))
    plot = ["plot", "--input", signal, "--segmentation", pred, "--out", str(tmp_path / "x.svg")]
    for extra in (["--width", "0"], ["--width", "58"], ["--panel-height", "0"]):
        assert main([*plot, *extra]) == 2, extra
        assert "BadParamError" in capsys.readouterr().err
    assert main(plot) == 3
    evaluate = ["eval", "--truth", truth, "--pred", pred]
    for margin in ("-1", "nan", "inf"):
        assert main([*evaluate, "--margin", margin]) == 2, margin
        assert "BadParamError" in capsys.readouterr().err
    assert main([*evaluate, "--margin", "0"]) == 3
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize(
    "size", [["--width", "0"], ["--width", "58"], ["--width", "30", "--panel-height", "-5"],
             ["--panel-height", "0"]],
    ids=" ".join,
)
def test_plot_refuses_a_size_with_no_plot_area(clean_case, tmp_path, size):
    segmentation = tmp_path / "seg.json"
    segmentation.write_text(json.dumps({"bkps": [180]}))
    out = tmp_path / "x.svg"
    proc = run_cli("plot", "--input", str(clean_case / "signal.csv"),
                   "--segmentation", str(segmentation), "--out", str(out), *size)
    assert proc.returncode == 2, proc.stderr
    assert "BadParamError" in proc.stderr
    assert not out.exists()
