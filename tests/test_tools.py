"""The pure parts of tools/pairs.py and tools/layers.py, on canned run.py
and child output, and of tools/differential.py, on this tree against
itself in process: no second checkout and no benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

SPEC = pairs.load_spec(ROOT)


def run_line(correct=True, **values):
    """One run.py result line: every end-to-end metric at 1.0 unless given."""
    metrics = {m["name"]: {"value": values.get(m["name"].replace(".", "_"), 1.0), "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
                       "metrics": metrics})


def canned(p50s, correct=True):
    """run.py stdout, an info line and then the result, per query_ms.p50."""
    return [pairs.parse_run(json.dumps({"workload": "exact-sweep"}) + "\n" + run_line(correct, query_ms_p50=v))
            for v in p50s]


def by_metric(rows):
    return {row["metric"]: row for row in rows}


def test_summary_counts_wins_and_compares_the_gap_with_the_base_spread():
    base = canned([0.30, 0.31, 0.29, 0.30, 0.32])
    head = canned([0.25, 0.26, 0.30, 0.25, 0.24])
    row = by_metric(pairs.summarize(base, head, SPEC))["query_ms.p50"]
    assert (row["base"]["median"], row["head"]["median"]) == (0.30, 0.25)
    assert (row["base"]["q1"], row["base"]["q3"]) == (0.30, 0.31)
    # the head is lower in every pair but the third
    assert (row["head_wins"], row["pairs"]) == (4, 5)
    assert row["gap_exceeds_base_spread"]
    assert row["change"] == pytest.approx(-1 / 6)
    assert not row["beyond_bound"]
    # no other metric moved: no wins, no gap
    flat = by_metric(pairs.summarize(base, head, SPEC))["wall_s"]
    assert (flat["head_wins"], flat["gap_exceeds_base_spread"], flat["beyond_bound"]) == (0, False, False)


def test_summary_reads_the_direction_and_bound_from_the_benchmark():
    base = canned([1.0, 1.0, 1.0])
    head = canned([1.3, 1.3, 1.3])
    rows = by_metric(pairs.summarize(base, head, SPEC))
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["query_ms.p50"]
    assert 0.3 > bound
    assert rows["query_ms.p50"]["beyond_bound"]
    assert not rows["query_ms.p50"]["gap_exceeds_base_spread"]
    # f1_mean is better when higher: a higher head wins every pair
    higher = [pairs.parse_run(run_line(f1_mean=0.9))] * 3
    row = by_metric(pairs.summarize(canned([1.0] * 3), higher, SPEC))["f1_mean"]
    assert (row["head_wins"], row["beyond_bound"]) == (0, False)
    row = by_metric(pairs.summarize(higher, canned([1.0] * 3), SPEC))["f1_mean"]
    assert (row["head_wins"], row["gap_exceeds_base_spread"]) == (3, True)


def test_summary_adds_the_unscaled_wall_when_every_run_reports_it():
    def with_raw(walls):
        return pairs.parse_run(json.dumps({"walls_raw_s": walls}) + "\n" + run_line())

    base = [with_raw([0.8, 0.7, 0.9]), with_raw([0.8])]
    head = [with_raw([0.7]), with_raw([0.75, 0.6])]
    row = by_metric(pairs.summarize(base, head, SPEC))["raw_wall_s"]
    assert row["base"]["values"] == [0.8, 0.8]
    assert row["head"]["values"] == [0.7, 0.675]
    assert (row["head_wins"], row["bound"], row["beyond_bound"]) == (2, None, False)
    assert "raw_wall_s" in pairs.format_rows([row])
    # one run without it: no row
    assert "raw_wall_s" not in by_metric(pairs.summarize(base, head[:1] + canned([1.0]), SPEC))


def test_summary_adds_the_probe_scale_when_every_run_reports_both_walls():
    def with_walls(scaled, raw):
        info = {"walls_s": scaled, "walls_raw_s": raw}
        return pairs.parse_run(json.dumps(info) + "\n" + run_line())

    # medians: scaled 1.2 over raw 1.0, scaled 1.5 over raw 1.25, and so on
    base = [with_walls([1.2, 1.1, 1.3], [1.0, 0.9, 1.1]), with_walls([1.5], [1.25])]
    head = [with_walls([1.4], [1.0]), with_walls([1.1, 1.2], [1.0, 1.0])]
    rows = by_metric(pairs.summarize(base, head, SPEC))
    row = rows["probe_scale"]
    assert row["base"]["values"] == pytest.approx([1.2, 1.2])
    assert row["head"]["values"] == pytest.approx([1.4, 1.15])
    assert (row["unit"], row["bound"], row["beyond_bound"]) == ("ratio", None, False)
    # a lower scale wins: the head's is higher in the first pair only
    assert row["head_wins"] == 1
    assert [r["metric"] for r in pairs.summarize(base, head, SPEC)][-2:] == ["raw_wall_s", "probe_scale"]
    assert "probe_scale" in pairs.format_rows([row])
    # raw walls alone give the raw row but no scale
    raw_only = pairs.parse_run(json.dumps({"walls_raw_s": [1.0]}) + "\n" + run_line())
    assert "probe_scale" not in raw_only["metrics"]
    assert "probe_scale" not in by_metric(pairs.summarize(base, [raw_only, raw_only], SPEC))


def test_summary_refuses_a_run_that_is_not_correct():
    with pytest.raises(ValueError, match="head run of pair 2 is not correct"):
        pairs.summarize(canned([1.0, 1.0]), canned([1.0]) + canned([1.0], correct=False), SPEC)
    with pytest.raises(ValueError, match="same positive number"):
        pairs.summarize(canned([1.0, 1.0]), canned([1.0]), SPEC)


def test_record_keeps_each_workload_and_both_sides(tmp_path):
    rows = pairs.summarize(canned([0.3, 0.3]), canned([0.2, 0.2]), SPEC)
    out = tmp_path / "bench.json"
    meta = {"seed": 1, "pairs": 2, "seconds": 1.0, "nproc": 2, "numpy": "2.0"}
    pairs.record(out, "exact-sweep", rows, meta, ROOT, ROOT)
    pairs.record(out, "pelt-long", rows, meta, ROOT, ROOT)
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]) == ["exact-sweep", "pelt-long"]
    entry = doc["workloads"]["exact-sweep"]
    assert entry["seed"] == 1 and entry["pairs"] == 2
    assert entry["base"]["metrics"]["query_ms.p50"]["median"] == 0.3
    assert entry["head"]["metrics"]["query_ms.p50"]["values"] == [0.2, 0.2]
    assert entry["verdicts"]["query_ms.p50"]["head_wins"] == 2
    assert set(entry["head"]) == {"commit", "dirty", "metrics"}
    assert "q1" in pairs.format_rows(rows).splitlines()[0]


_dspec = importlib.util.spec_from_file_location("differential", ROOT / "tools" / "differential.py")
differential = importlib.util.module_from_spec(_dspec)
_dspec.loader.exec_module(differential)


def test_differential_runs_the_tree_against_itself():
    """The differential's cases through this tree twice, in process: every
    engine, every rule kind and both modes, with the long mode's rbf and
    normal cases, run, and the two record lists match in answers and
    counts."""
    cases = differential.cases_for([1], 12) + differential.generate("long", 1, 2)[1:]
    assert [case["family"] for case in cases if case["mode"] == "long"] == ["rbf", "normal"]
    first = differential.run_cases(cases)
    assert differential.compare(first, differential.run_cases(cases)) == ([], [])
    engines = {record["key"].rsplit("/", 1)[1] for record in first}
    assert engines == {"dynp", "pelt", "solve_budget", "binseg", "bottomup", "window"}
    kinds = {record["key"].split("/")[4].split(":")[1] for record in first if "/fit" not in record["key"]}
    assert kinds == {"n_bkps", "penalty", "budget"}
    assert any(r["error"] for r in first) and any(r["contrast"] for r in first)
    for index in (0, 1):
        assert any(r["key"].startswith(f"long/1/{index}/") and r["contrast"] for r in first)


def test_differential_separates_answer_mismatches_from_count_changes():
    base = differential.run_cases(differential.generate("small", 2, 2))
    head = [dict(record) for record in base]
    answered = [r for r in head if r["contrast"]]
    answered[0]["contrast"] = (float.fromhex(answered[0]["contrast"]) + 1.0).hex()
    answered[1]["n_cost_evals"] += 1
    answered[2]["eval_delta"] += 1
    mismatches, changes = differential.compare(base, head)
    assert len(mismatches) == 1 and mismatches[0].startswith(answered[0]["key"] + ": contrast")
    assert len(changes) == 2
    assert changes[0].startswith(answered[1]["key"] + ": n_cost_evals")
    assert changes[1].startswith(answered[2]["key"] + ": eval_delta")
    assert differential.compare(base, head[1:]) == (["the two trees ran different calls"], [])


_cspec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_cspec)
_cspec.loader.exec_module(code_lines)


def test_code_lines_count_nothing_for_blank_lines_comments_and_docstrings(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment line\n"
        "\n"
        "import math  # a trailing comment\n"
        "\n"
        "\n"
        "class Box:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def area(self):\n"
        "        '''Method docstring,\n"
        "        over two lines.'''\n"
        "        # an indented comment\n"
        "        side = 2\n"
        '        """A string standing as a statement of its own."""\n'
        "        return math.pi * side\n"
    )
    # import, class, def, the assignment and return
    assert code_lines.code_lines(source) == 5
    source.write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert code_lines.code_lines(source) == 0
    source.write_text("")
    assert code_lines.code_lines(source) == 0


def test_code_lines_count_each_line_a_statement_or_string_spans(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "total = (\n"
        "    1\n"
        "    # a comment line inside the statement\n"
        "    + 2  # a trailing comment\n"
        ")\n"
        'text = """a string\n'
        "\n"
        'that is not a docstring"""\n'
        "print(\n"
        '    "a string argument on a line of its own",\n'
        ")\n"
    )
    # 4 of the first statement's 5 lines, all 3 of the string's, all 3 of the call's
    assert code_lines.code_lines(source) == 10


def test_code_lines_print_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "a.py").write_text('"""Docstring."""\nz = 3\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    code_lines.main(str(tmp_path))
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["2", str(tmp_path / "b.py")], ["1", str(tmp_path / "pkg" / "a.py")], ["3", "total"]]


_lspec = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
layers = importlib.util.module_from_spec(_lspec)
_lspec.loader.exec_module(layers)


def replies(values, digest="d1"):
    """Canned child replies, one per round."""
    return [{"value": value, "digest": digest} for value in values]


def test_layer_summary_counts_wins_and_the_ratio_of_medians(capsys):
    base = replies([10.0, 12.0, 11.0, 10.0, 13.0])
    head = replies([5.0, 6.0, 12.0, 5.5, 4.0])
    row = layers.summarize("fill.normal", base, head)
    assert (row["unit"], row["rounds"]) == ("ms", 5)
    assert (row["base"]["median"], row["head"]["median"]) == (11.0, 5.5)
    assert (row["base"]["q1"], row["base"]["q3"]) == (10.0, 12.0)
    # the head takes less time in every round but the third
    assert row["head_wins"] == 4
    assert row["ratio"] == 0.5
    assert row["answers_match"]
    assert layers.report([row]) == 0
    out = capsys.readouterr().out
    assert "fill.normal" in out and "0.500" in out and "same" in out
    with pytest.raises(ValueError, match="same positive number"):
        layers.summarize("fill.normal", base, head[:4])


def test_layer_answers_that_differ_fail_the_run(capsys):
    """A digest that differs in any reply, of either tree, fails: the trees
    answer differently, or one tree's answers depend on the round."""
    same = layers.summarize("cost.l2", replies([1.0, 1.0]), replies([1.0, 1.0]))
    for base, head in ((replies([1.0, 1.0]), replies([0.9, 0.9], "d2")),
                       (replies([1.0]) + replies([1.0], "d2"), replies([1.0, 1.0]))):
        row = layers.summarize("cost.l2", base, head)
        assert not row["answers_match"]
        assert layers.report([same, row]) == 1
        captured = capsys.readouterr()
        assert "DIFFER" in captured.out and "cost.l2" in captured.err


def test_layer_measures_in_process_with_a_fixed_digest():
    """A cost layer through this tree: a positive time and the same digest
    in every call, as two trees with the same answers give."""
    import segscan

    first = layers.measure(segscan, "cost.l2")
    assert first["value"] > 0.0
    assert layers.measure(segscan, "cost.l2")["digest"] == first["digest"]
    assert set(layers.LAYERS) >= {"cost.rbf", "fill.ar", "pelt.normal"}
