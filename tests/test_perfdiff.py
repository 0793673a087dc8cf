"""Differential profiling: side construction from ``bench/run.py``
records and directories of them, the ranked attribution document, the increase-only drift gate, and the
rendered table — plus schema validation, so ``perf diff --json``
output stays machine-checkable."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.export import PERFDIFF_SCHEMA, validate
from repro.obs.perfdiff import (DEFAULT_THRESHOLD, WORK_FLOOR,
                                attribute, diff_specs, group_of,
                                render_attribution, resolve_side,
                                side_from_records)

#: per-layer calls and self times of a small traced gh-full run
LAYERS = {"interp.step": (553, 0.0070), "mc.canonical": (462, 0.0101),
          "mc.explorer": (None, 0.0113), "mc.por": (0, 0.0)}


def bench_record(workload="gh-full", layers=None, trace=1):
    """One ``bench/run.py --out`` record; untraced records carry only
    end-to-end metrics."""
    metrics = {"work_per_s": {"value": 9000.0, "unit": "1/s"}}
    if trace:
        metrics = {"trace.overhead_ratio": {"value": 1.8,
                                            "unit": "ratio"}}
        for layer, (calls, self_s) in (layers or LAYERS).items():
            if calls is not None:
                metrics[f"{layer}.calls"] = {"value": calls,
                                             "unit": "count"}
            metrics[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
    return {"workload": workload, "seed": 0, "trace": trace,
            "quick": True, "correct": True, "attempted": 2,
            "failed": 0, "metrics": metrics}


def write_bench_run(path, records):
    """Append records to a JSONL file as ``bench/run.py --out`` does."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return str(path)


def _side(label, rows):
    """A side built, as ``perf diff`` builds one, from traced bench
    records: ``rows`` maps ``<workload>/<layer>`` to ``(calls,
    self_s)``, one record per workload."""
    layers: dict = {}
    for name, stats in rows.items():
        workload, layer = name.split("/", 1)
        layers.setdefault(workload, {})[layer] = stats
    return side_from_records(label, [bench_record(workload, by_layer)
                                     for workload, by_layer
                                     in layers.items()])


# -- grouping ----------------------------------------------------------------------

def test_group_of_prefixes():
    assert group_of("gh-full/mc.canonical") == "gh-full"
    assert group_of("table2-nfq/mc.properties") == "table2-nfq"


# -- attribution ranking and the drift gate ----------------------------------------

def test_rows_ranked_by_absolute_delta():
    a = _side("a", {"gh-full/interp.step": (1000, 0.0),
                    "gh-full/mc.canonical": (500, 0.0),
                    "gh-full/mc.por": (100, 0.0)})
    b = _side("b", {"gh-full/interp.step": (1400, 0.0),   # +400
                    "gh-full/mc.canonical": (1200, 0.0),  # +700
                    "gh-full/mc.por": (90, 0.0)})         # -10
    report = attribute(a, b)
    assert [r["name"] for r in report["rows"]] == \
        ["gh-full/mc.canonical", "gh-full/interp.step", "gh-full/mc.por"]


def test_equal_call_deltas_rank_by_self_time_delta():
    a = _side("a", {"w/x": (10, 0.1), "w/y": (10, 0.1)})
    b = _side("b", {"w/x": (10, 0.15), "w/y": (10, 0.4)})
    assert [r["name"] for r in attribute(a, b)["rows"]] == ["w/y", "w/x"]


def test_growth_past_threshold_gates():
    a = _side("a", {"gh-full/interp.step": (1000, 0.0)})
    b = _side("b", {"gh-full/interp.step": (1400, 0.0)})
    report = attribute(a, b)                      # +40% > 25%
    assert report["drift"] is True
    assert report["drifted"] == ["gh-full/interp.step"]


def test_shrinking_work_never_gates():
    # a speedup is not a regression, mirroring the watchdog
    a = _side("a", {"gh-full/interp.step": (1400, 0.0)})
    b = _side("b", {"gh-full/interp.step": (100, 0.0)})
    report = attribute(a, b)
    assert report["drift"] is False


def test_work_floor_suppresses_tiny_absolute_deltas():
    # +100% relative, but only +8 units: below WORK_FLOOR
    a = _side("a", {"gh-full/mc.por": (8, 0.0)})
    b = _side("b", {"gh-full/mc.por": (16, 0.0)})
    assert attribute(a, b)["drift"] is False
    big = _side("b", {"gh-full/mc.por": (8 + WORK_FLOOR + 1, 0.0)})
    assert attribute(a, big)["drift"] is True


def test_identical_sides_have_zero_drift():
    a = _side("a", {"gh-full/interp.step": (1010, 0.2),
                    "gh-full/mc.canonical": (45, 0.1)})
    report = attribute(a, dict(a, label="b"))
    assert report["drift"] is False
    assert all(r["delta"] == 0 for r in report["rows"])


def test_new_region_counts_as_full_growth():
    a = _side("a", {})
    b = _side("b", {"gh-full/mc.por": (500, 0.0)})
    (row,) = attribute(a, b)["rows"]
    assert row["units_a"] == 0 and row["drift"] is True


def test_groups_aggregate_units():
    a = _side("a", {"gh-full/interp.step": (1000, 0.0),
                    "gh-full/mc.canonical": (500, 0.0),
                    "table2-nfq/mc.canonical": (100, 0.0)})
    b = _side("b", {"gh-full/interp.step": (1200, 0.0),
                    "gh-full/mc.canonical": (700, 0.0),
                    "table2-nfq/mc.canonical": (100, 0.0)})
    groups = attribute(a, b)["groups"]
    assert groups["gh-full"]["delta"] == 400
    assert groups["table2-nfq"]["delta"] == 0


def test_attribution_document_validates():
    a = _side("a", {"gh-full/interp.step": (1003, 0.1)})
    b = _side("b", {"gh-full/interp.step": (1403, 0.2)})
    report = attribute(a, b)
    assert validate(report, PERFDIFF_SCHEMA) == []


# -- side builders -----------------------------------------------------------------

def test_side_from_records_takes_per_workload_medians():
    records = [bench_record(layers={"mc.canonical": (calls, self_s)})
               for calls, self_s in ((400, 0.3), (462, 0.1),
                                     (500, 0.2))]
    records.append(bench_record("table2-nfq",
                                {"mc.canonical": (766, 0.02)}))
    records.append(bench_record(trace=0))       # no layers: skipped
    side = side_from_records("x", records)
    assert side["counters"] == {"gh-full/mc.canonical": 462,
                                "table2-nfq/mc.canonical": 766}
    assert side["wall"] == {"gh-full/mc.canonical": 0.2,
                            "table2-nfq/mc.canonical": 0.02}


def test_side_from_records_keeps_timed_layers_without_calls():
    side = side_from_records("x", [bench_record()])
    # mc.explorer has only a self time; mc.por was never entered
    assert side["counters"]["gh-full/mc.explorer"] == 0
    assert side["wall"]["gh-full/mc.explorer"] == 0.0113
    assert "gh-full/mc.por" not in side["counters"]


# -- operand resolution ------------------------------------------------------------

def test_resolve_side_bench_dir(tmp_path):
    # every *.jsonl in the directory joins the side, as in compare.py
    write_bench_run(tmp_path / "a.jsonl", [bench_record()])
    write_bench_run(tmp_path / "b.jsonl", [bench_record("table2-nfq")])
    (tmp_path / "notes.txt").write_text("not a record\n")
    side = resolve_side(str(tmp_path))
    assert side["counters"]["gh-full/mc.canonical"] == 462
    assert "table2-nfq/interp.step" in side["counters"]
    assert side["label"] == str(tmp_path)


@pytest.mark.parametrize("text", [
    "mc.run;mc.successors 1500000\n",               # collapsed stacks
    '{"v": 1, "hotspots": [{"name": "mc.run", "calls": 1}]}\n',
], ids=["folded", "profile-doc"])
def test_resolve_side_rejects_non_bench_files(tmp_path, text):
    path = tmp_path / "profile.out"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        resolve_side(str(path))
    assert str(exc.value).startswith(str(path))


def test_resolve_side_unknown_operand_raises(tmp_path):
    with pytest.raises(ValueError):
        resolve_side(str(tmp_path / "nope"))


# -- rendering ---------------------------------------------------------------------

def test_render_names_drifted_regions():
    a = _side("a", {"gh-full/interp.step": (1000, 0.0),
                    "gh-full/mc.canonical": (400, 0.0)})
    b = _side("b", {"gh-full/interp.step": (1400, 0.0),
                    "gh-full/mc.canonical": (390, 0.0)})
    text = render_attribution(attribute(a, b))
    assert "DRIFT: 1 region(s) grew past +25%: gh-full/interp.step" \
        in text
    assert "+40.0%" in text and "-2.5%" in text


def test_render_clean_diff_says_so():
    a = _side("a", {"gh-full/interp.step": (1000, 0.0)})
    text = render_attribution(attribute(a, dict(a, label="b")))
    assert "no attributed drift" in text


def test_diff_specs_end_to_end(tmp_path):
    for name, calls in (("a", 1000), ("b", 1600)):
        write_bench_run(tmp_path / name / "run.jsonl", [bench_record(
            layers={"mc.canonical": (calls, 0.01)})])
    report = diff_specs(str(tmp_path / "a"), str(tmp_path / "b"),
                        threshold=DEFAULT_THRESHOLD)
    assert report["drift"] is True
    assert report["drifted"] == ["gh-full/mc.canonical"]
    assert validate(report, PERFDIFF_SCHEMA) == []


# -- repro perf diff over bench/run.py records -------------------------------------

def test_perf_diff_identical_bench_runs_exit_0(tmp_path, capsys):
    records = [bench_record(), bench_record("table2-nfq")]
    a = write_bench_run(tmp_path / "a.jsonl", records)
    b = write_bench_run(tmp_path / "b.jsonl", records)
    assert main(["perf", "diff", a, b, "--threshold", "0"]) == 0
    out = capsys.readouterr().out
    assert "no attributed drift" in out
    # the table ranks <workload>/<layer> rows and shows self times
    assert "gh-full/mc.canonical" in out and "wall A ms" in out


def test_perf_diff_doubled_layer_calls_exit_1(tmp_path, capsys):
    doubled = dict(LAYERS, **{"interp.step": (1106, 0.0140)})
    a = write_bench_run(tmp_path / "a.jsonl", [bench_record()])
    b = write_bench_run(tmp_path / "b.jsonl",
                        [bench_record(layers=doubled)])
    assert main(["perf", "diff", a, b, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["drifted"] == ["gh-full/interp.step"]
    top = doc["rows"][0]
    assert (top["name"], top["group"], top["units_a"],
            top["units_b"]) == ("gh-full/interp.step", "gh-full",
                                553, 1106)
    assert (top["wall_a_s"], top["wall_b_s"]) == (0.007, 0.014)
    assert validate(doc, PERFDIFF_SCHEMA) == []


def test_perf_diff_untraced_only_exits_2(tmp_path, capsys):
    a = write_bench_run(tmp_path / "a.jsonl", [bench_record(trace=0)])
    b = write_bench_run(tmp_path / "b.jsonl", [bench_record()])
    assert main(["perf", "diff", a, b]) == 2
    assert "no profile data" in capsys.readouterr().err


def test_perf_diff_directory_operand(tmp_path, capsys):
    a = write_bench_run(tmp_path / "a" / "run.jsonl",
                        [bench_record(), bench_record()])
    b = write_bench_run(tmp_path / "b.jsonl", [bench_record()])
    assert main(["perf", "diff", str(tmp_path / "a"), b,
                 "--threshold", "0"]) == 0
    assert f"perf diff: {tmp_path / 'a'} -> {b}" in \
        capsys.readouterr().out
