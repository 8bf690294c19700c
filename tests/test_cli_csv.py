"""The CLI's CSV reader against the record-by-record reader it replaced.

Valid files must parse to the same bits; invalid ones must fail with the same
exception class, message (so the same "line N") and exit code.
"""

import os
import re
import threading

import numpy as np
import pytest

import _oracles as oracle
from segscan import cli


def _digits17(rng, count):
    return [repr(float(value)) for value in rng.normal(scale=10.0, size=count)]


def _corpus():
    rng = np.random.default_rng(90)
    long_values = _digits17(rng, 60)
    rows = [",".join(long_values[i : i + 3]) for i in range(0, 60, 3)]
    short = ["0.1,0.2", "0.3,1e-3", "-2.5,+7", ".5,5.", "1E5,-0"]
    return {
        "plain": "\n".join(rows) + "\n",
        "no_final_newline": "\n".join(rows),
        "short_decimals": "\n".join(short) + "\n",
        "header": "dim0,dim1\n" + "\n".join(short) + "\n",
        "blank_lines": "\n1,2\n\n\n3,4\n\n",
        "blank_first_line": "\ndim0,dim1\n1,2\n",
        "crlf": "dim0,dim1\r\n1.5,2\r\n\r\n3,4\r\n",
        "bare_cr": "1,2\r3,4\r",
        "quoted": '"1.5","2"\n"3",4\n',
        "quoted_with_spaces": '"1.5" ,2\n3, 4\n',
        "space_before_quote": '1, "2"\n3,4\n',
        "quoted_newline": '1,"2\n"\n3,4\n',
        "quoted_header_two_lines": '"h\n1"\n3\n',
        "quoted_header_three_lines": '"h\n1\n"\n3\n',
        "spaces_around_cells": " 1.5 ,\t2\n3 , 4 \n",
        "nbsp": "1,\xa02\n3,4\n",
        "single_column": "\n".join(_digits17(rng, 25)) + "\n",
        "single_row": "1,2,3\n",
        "underscore": "1_000,2\n3,4_5.5\n",
        "ragged": "1,2\n3,4\n5\n",
        "word": "1,2\n3,banana\n",
        "whitespace_line": "1,2\n   \n3,4\n",
        "whitespace_line_single_column": "1\n \t \n3\n",
        "empty_cell": "1,\n3,4\n",
        "trailing_comma": "1,2,\n3,4,\n",
        "hash_line": "1,2\n# note\n3,4\n",
        "hash_cell": "1,#2\n",
        "empty": "",
        "header_only": "dim0,dim1\n",
        "header_then_blank": "dim0,dim1\n\n\n",
        "nan": "1,2\nnan,4\n",
        "inf": "1,2\n3,-Infinity\n",
        "overflow": "1e400,2\n",
        "bom": "\ufeff1,2\n3,4\n",
        "semicolons": "1;2\n3;4\n",
        "doubled_quote": '"1""",2\n',
    }


CORPUS = _corpus()


def _outcome(reader, path, header):
    try:
        signal = reader(str(path), header)
    except Exception as exc:  # noqa: BLE001 - the class itself is compared
        return ("error", type(exc), str(exc), cli._exit_code(exc))
    return ("ok", signal.data.shape, signal.data.tobytes())


@pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
@pytest.mark.parametrize("name", list(CORPUS))
def test_reader_matches_record_scan(name, header, tmp_path):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(CORPUS[name].encode("utf-8"))
    expected = _outcome(oracle.read_csv, path, header)
    assert _outcome(cli._read_csv, path, header) == expected


@pytest.mark.parametrize(
    "content, header, error",
    [
        ('"a\nb",c\n1,2\n3,x\n', True, "line 4: could not parse 'x' as a number"),
        ('"a\nb",c\n1,2\n3\n', True, "line 4: expected 2 columns, got 1"),
        ('1,"2\n"\n\n3,x\n', False, "line 4: could not parse 'x' as a number"),
    ],
    ids=["header-over-two-lines", "ragged-after-two-lines", "record-over-two-lines"],
)
def test_scan_errors_name_the_line_after_records_over_several_lines(
    content, header, error, tmp_path
):
    """A quoted cell can carry a record over several lines: an error names the
    line its own record starts on, not the number of records read."""
    path = tmp_path / "multiline.csv"
    path.write_bytes(content.encode("utf-8"))
    with pytest.raises((cli.FormatError, cli.RaggedInputError)) as raised:
        cli._read_csv(str(path), header)
    assert str(raised.value) == f"{path} {error}"


def test_well_formed_files_skip_the_record_scan(tmp_path, monkeypatch):
    """Plain numeric files, quoted cells and a header all parse in the one
    np.loadtxt call; only the odd ones fall back to the scan."""

    def no_scan(path, header):
        raise AssertionError(f"record scan used for {path}")

    monkeypatch.setattr(cli, "_scan_csv", no_scan)
    for name, header in [("plain", False), ("single_column", False), ("quoted", False),
                         ("header", True), ("crlf", True), ("blank_lines", False)]:
        path = tmp_path / f"{name}.csv"
        path.write_bytes(CORPUS[name].encode("utf-8"))
        assert cli._read_csv(str(path), header).n_samples > 0


def test_random_17_digit_values_round_trip(tmp_path):
    """Every double written with repr() reads back to the same bits."""
    rng = np.random.default_rng(91)
    data = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-300, 300, size=(500, 3))
    path = tmp_path / "values.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n")
    assert cli._read_csv(str(path), False).data.tobytes() == data.tobytes()


def test_pipe_is_read_once(tmp_path):
    """A named pipe goes straight to the record scan: a failed np.loadtxt
    pass would have consumed its data."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes on this platform")
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)

    def feed():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("1_000,2\n3,4\n")

    result = []
    writer = threading.Thread(target=feed, daemon=True)
    # a second open of the pipe would wait for a writer forever
    reader = threading.Thread(target=lambda: result.append(cli._read_csv(str(path), False)),
                              daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=10)
    assert not reader.is_alive(), "the reader opened the pipe a second time"
    assert result[0].data.tolist() == [[1000.0, 2.0], [3.0, 4.0]]


def test_missing_file_is_the_same_os_error(tmp_path):
    path = tmp_path / "absent.csv"
    new = _outcome(cli._read_csv, path, False)
    old = _outcome(oracle.read_csv, path, False)
    assert new[:2] == old[:2] == ("error", FileNotFoundError)
    assert new[3] == old[3] == 3


@pytest.mark.parametrize(
    "content, error",
    [
        (b"1,2\n3,\xe9\n", "UnicodeDecodeError"),
        # the underscore sends the file to the record scan, whose csv module
        # refuses a cell over its 131,072-character field limit
        (b"1_0,2\n3,4\n5," + b"1" * 200_000 + b"\n", "Error"),
    ],
    ids=["not-utf8", "oversized-cell"],
)
def test_unreadable_text_exits_3_with_one_line(content, error, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert cli.main(["detect", "--input", str(path), "--method", "pelt", "--pen", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"segscan detect: {error}: [^\n]+\n", captured.err), captured.err
