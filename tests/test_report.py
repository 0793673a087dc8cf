"""The unified HTML report: shape-based input classification, the
self-contained renderer, check_html / --self-check, and the `repro
report` CLI path.  Structural validation uses the stdlib HTML parser —
the artifact must stay parseable, complete, and free of external
assets."""

from __future__ import annotations

import json
from html.parser import HTMLParser

import pytest

from repro import cli
from repro.obs.report_html import (SECTIONS, SELF_CHECK_FIXTURE,
                                   ReportInputs, check_html, classify,
                                   collect_inputs, fixture_inputs,
                                   render_report, self_check)

_VOID = {"meta", "br", "hr", "img", "input", "link", "rect", "line",
         "circle", "path", "polyline"}


class _Auditor(HTMLParser):
    """Collects ids/tags and verifies open/close nesting."""

    def __init__(self):
        super().__init__()
        self.ids: set[str] = set()
        self.stack: list[str] = []
        self.svg_count = 0
        self.errors: list[str] = []

    def handle_starttag(self, tag, attrs):
        for key, value in attrs:
            if key == "id":
                self.ids.add(value)
        if tag == "svg":
            self.svg_count += 1
        if tag not in _VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in _VOID:
            return
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"unbalanced </{tag}> at {self.getpos()}")
        else:
            self.stack.pop()


def _audit(html_text: str) -> _Auditor:
    auditor = _Auditor()
    auditor.feed(html_text)
    auditor.close()
    return auditor


# -- renderer ----------------------------------------------------------------------

def test_fixture_report_is_complete_and_well_formed():
    html_text = render_report(fixture_inputs(), title="t")
    auditor = _audit(html_text)
    assert auditor.errors == []
    assert auditor.stack == []  # everything opened was closed
    assert {f"sec-{name}" for name in SECTIONS} <= auditor.ids
    assert auditor.svg_count >= 4
    assert check_html(html_text) == []


def test_empty_inputs_render_placeholders_not_dropped_sections():
    html_text = render_report(ReportInputs())
    assert check_html(html_text) == []
    assert "class='empty'" in html_text


def test_check_html_flags_missing_sections_and_external_assets():
    full = render_report(fixture_inputs())
    truncated = full[: full.index("id='sec-coverage'") - 20]
    problems = check_html(truncated)
    assert "coverage" in problems and "forensics" in problems
    leaky = full.replace(
        "</body>", "<script src='https://cdn.example/x.js'></script>"
        "</body>")
    assert any(p.startswith("external-asset") for p in check_html(leaky))


def test_self_check_passes():
    code, message = self_check()
    assert code == 0, message
    assert "self-check ok" in message


# -- classification ----------------------------------------------------------------

def test_classify_by_shape():
    fx = SELF_CHECK_FIXTURE
    assert classify("a.json", fx["analysis.json"]) == "analysis"
    assert classify("m.json", fx["mc.json"]) == "mc"
    assert classify("e.jsonl", fx["events.jsonl"]) == "events"
    assert classify("l.json",
                    fx["analysis.json"]["lint"]) == "lint"
    assert classify("x.json", {"unrelated": 1}) is None
    assert classify("x.json", []) is None
    assert classify("x.json", "text") is None


def test_collect_inputs_scans_and_buckets(tmp_path):
    fx = SELF_CHECK_FIXTURE
    (tmp_path / "analysis.json").write_text(
        json.dumps(fx["analysis.json"]))
    (tmp_path / "mc.json").write_text(json.dumps(fx["mc.json"]))
    (tmp_path / "events.jsonl").write_text(
        "\n".join(json.dumps(e) for e in fx["events.jsonl"]))
    (tmp_path / "crossval.txt").write_text(fx["crossval.txt"])
    (tmp_path / "summary_stats.json").write_text(
        json.dumps(fx["summary_stats.json"]))
    (tmp_path / "corpus_fleet.json").write_text(
        json.dumps(fx["corpus_fleet.json"]))
    (tmp_path / "junk.json").write_text("not json {")
    (tmp_path / "PERFDIFF_attribution.json").write_text(
        json.dumps(fx["PERFDIFF_attribution.json"]))

    inputs = collect_inputs([tmp_path])
    assert [label for label, _ in inputs.analyses] == ["analysis.json"]
    assert [label for label, _ in inputs.mcs] == ["mc.json"]
    assert [label for label, _ in inputs.events] == ["events.jsonl"]
    assert [label for label, _ in inputs.perfdiffs] \
        == ["PERFDIFF_attribution.json"]
    assert [label for label, _ in inputs.tables] == ["crossval.txt"]
    assert [label for label, _ in inputs.summaries] \
        == ["summary_stats.json"]
    assert [label for label, _ in inputs.fleets] == \
        ["corpus_fleet.json"]

    html_text = render_report(inputs)
    assert check_html(html_text) == []
    assert "class='empty'" not in html_text


def test_collect_inputs_skips_missing_paths(tmp_path):
    inputs = collect_inputs([tmp_path / "no-such-dir",
                             tmp_path / "no-such-file.json"])
    assert inputs.analyses == []
    assert inputs.fleets == []


# -- CLI ---------------------------------------------------------------------------

def test_cli_report_writes_artifact(tmp_path, capsys):
    fx = SELF_CHECK_FIXTURE
    artifacts = tmp_path / "artifacts"
    artifacts.mkdir()
    (artifacts / "mc.json").write_text(json.dumps(fx["mc.json"]))
    (artifacts / "analysis.json").write_text(
        json.dumps(fx["analysis.json"]))
    out = tmp_path / "report.html"
    code = cli.main(["report", str(artifacts), "-o", str(out),
                     "--title", "pr4"])
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    html_text = out.read_text()
    assert check_html(html_text) == []
    assert "<title>pr4</title>" in html_text
    auditor = _audit(html_text)
    assert auditor.errors == [] and auditor.stack == []


def test_cli_report_self_check(capsys):
    assert cli.main(["report", "--self-check"]) == 0
    assert "self-check ok" in capsys.readouterr().out


def test_cli_report_no_inputs_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no benchmarks/out default here
    code = cli.main(["report", "-o", str(tmp_path / "r.html")])
    assert code == 2
    assert "no inputs" in capsys.readouterr().err


# -- flame chart -------------------------------------------------------------------

def test_flame_chart_rendered_from_folded_profile():
    html_text = render_report(fixture_inputs())
    assert "flame chart (collapsed region stacks)" in html_text
    # nested frames from the fixture's collapsed stacks appear as rects
    assert "mc.successors" in html_text


# -- trace section -----------------------------------------------------------------

def test_trace_section_reads_mc_spans_not_the_step_trace():
    mc = dict(SELF_CHECK_FIXTURE["mc.json"],
              violation="assertion failed", trace=["init", "t0@call"],
              spans=[{"name": "mc.run", "duration_s": 0.003,
                      "children": [{"name": "mc.dfs",
                                    "duration_s": 0.002}]}])
    html_text = render_report(ReportInputs(mcs=[("mc.json", mc)]))
    trace = html_text.split("id='sec-trace'", 1)[1].split("</section>")[0]
    assert "mc.dfs" in trace and "t0@call" not in trace


# -- state-space section (graph captures + statement heatmap) ----------------------

def test_statespace_renders_graph_and_heatmap():
    html_text = render_report(fixture_inputs())
    assert "id='sec-statespace'" in html_text
    assert "graph capture, mode=por" in html_text
    assert "statement heatmap" in html_text
    assert "depth layers" in html_text
    assert "branching factor" in html_text
    # mover badges carry the palette colors
    assert "span class='mover'" in html_text
    assert "#2b8cbe" in html_text


def test_statespace_placeholder_when_absent():
    html_text = render_report(ReportInputs())
    assert "id='sec-statespace'" in html_text
    assert "no state-space introspection artifacts supplied" \
        in html_text


def test_collect_inputs_routes_graph_captures(tmp_path):
    capture = tmp_path / "graph.jsonl"
    capture.write_text("".join(
        json.dumps(r) + "\n" for r in SELF_CHECK_FIXTURE["graph.jsonl"]))
    inputs = collect_inputs([tmp_path])
    assert [label for label, _ in inputs.graphs] == ["graph.jsonl"]
    assert inputs.events == []            # not misfiled as events
    doc = inputs.graphs[0][1]
    assert doc["summary"]["nodes"] == 4


def test_collect_inputs_skips_unreadable_graph_capture(tmp_path):
    capture = tmp_path / "graph.jsonl"
    capture.write_text(
        '{"kind": "graph.header", "v": 999}\n')
    inputs = collect_inputs([tmp_path])
    assert inputs.graphs == [] and inputs.events == []


def test_self_check_consults_schema_registry(monkeypatch):
    from repro.obs import report_html, schemas

    monkeypatch.setattr(
        schemas, "check_registry",
        lambda: ["events: registry=1 live=2"])
    code, message = report_html.self_check()
    assert code == 1
    assert "schema registry" in message


# -- perf forensics section --------------------------------------------------------

def test_classify_perfdiff_document():
    doc = dict(SELF_CHECK_FIXTURE["PERFDIFF_attribution.json"])
    assert classify("anything.json", doc) == "perfdiff"


def test_forensics_section_renders_attribution():
    html_text = render_report(fixture_inputs())
    assert "id='sec-forensics'" in html_text
    assert "DRIFT: gh-full/mc.canonical" in html_text
    assert "attributed work" in html_text
    assert "per-region work delta" in html_text


def test_forensics_placeholder_when_absent():
    html_text = render_report(ReportInputs())
    assert "id='sec-forensics'" in html_text
    assert "repro perf diff" in html_text


def test_collect_inputs_buckets_perfdiff(tmp_path):
    path = tmp_path / "PERFDIFF_attribution.json"
    path.write_text(json.dumps(
        SELF_CHECK_FIXTURE["PERFDIFF_attribution.json"]))
    inputs = collect_inputs([tmp_path])
    (label_doc,) = inputs.perfdiffs
    assert label_doc[0] == "PERFDIFF_attribution.json"
    assert label_doc[1]["drifted"] == ["gh-full/mc.canonical"]


def test_collect_inputs_reads_fleet_embedded_in_jobs_documents(
        tmp_path, capsys):
    # the Fleet section reads the ``fleet`` object of the --jobs
    # commands' --json documents; a sequential run embeds none
    assert cli.main(["experiments", "section63", "--threads", "2",
                     "--max-states", "200", "--jobs", "2",
                     "--json"]) == 0
    grid = json.loads(capsys.readouterr().out)
    assert cli.main(["experiments", "section63", "--threads", "2",
                     "--max-states", "200", "--json"]) == 0
    sequential = json.loads(capsys.readouterr().out)
    assert "fleet" not in sequential
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    (tmp_path / "sequential.json").write_text(json.dumps(sequential))
    (tmp_path / "corpus_fleet.json").write_text(
        json.dumps(SELF_CHECK_FIXTURE["corpus_fleet.json"]))
    inputs = collect_inputs([tmp_path])
    assert [(label, doc["label"]) for label, doc in inputs.fleets] == [
        ("corpus_fleet.json", "analyze-corpus"),
        ("grid.json", "section63")]
    assert inputs.fleets[1][1] == grid["fleet"]
    html_text = render_report(inputs)
    assert "section63" in html_text and "straggler" in html_text
