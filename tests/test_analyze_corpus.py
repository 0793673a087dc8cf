"""``repro analyze --corpus``: one plain pass over the shipped corpus
programs — a ``program procs atomic`` row each, the same rows from any
working directory, ``--metrics`` totals of each program's counts, and
exit 2 only when a program fails to load or analyze."""

from __future__ import annotations

import json

from repro import corpus
from repro.analysis import analyze_program
from repro.cli import main


def _analyses() -> dict:
    """``{label: AnalysisResult}`` for every corpus program, as the
    pass labels them."""
    return {f"corpus/{name.lower()}": analyze_program(getattr(corpus, name))
            for name in corpus.__all__}


def _corpus_json(capsys, *extra: str) -> dict:
    assert main(["analyze", "--corpus", "--json", *extra]) == 0
    return json.loads(capsys.readouterr().out)


def _metrics_section(out: str) -> dict:
    """The ``name: value`` lines after ``-- metrics --``."""
    lines = out.split("-- metrics --", 1)[1].strip().splitlines()
    return dict(line.split(": ", 1) for line in lines
                if ": " in line and not line.startswith("-"))


def test_analyze_without_file_or_corpus_exits_2(capsys):
    assert main(["analyze"]) == 2
    assert "needs a FILE" in capsys.readouterr().err


def test_corpus_analyze_clean_exits_0(capsys):
    assert main(["analyze", "--corpus"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["program", "procs", "atomic"]
    rows = [line.split() for line in lines[1:]]
    assert len(rows) == len(corpus.__all__)
    # non-atomic corpus programs must not fail the batch
    assert ["corpus/aba_stack", "2", "no"] in rows


def test_corpus_analyze_json_doc(capsys):
    doc = _corpus_json(capsys)
    assert set(doc) == {"programs", "errors", "run_meta"}
    assert doc["programs"] and not doc["errors"]
    assert all(set(row) == {"label", "procs", "atomic"}
               for row in doc["programs"])
    labels = [row["label"] for row in doc["programs"]]
    assert labels == sorted(f"corpus/{name.lower()}"
                            for name in corpus.__all__)


def test_corpus_rows_agree_across_working_directories(
        tmp_path, monkeypatch, capsys):
    rows = []
    for where in ("a", "b/c"):
        cwd = tmp_path / where
        cwd.mkdir(parents=True)
        monkeypatch.chdir(cwd)
        rows.append(_corpus_json(capsys)["programs"])
    assert rows[0] == rows[1]
    analyses = _analyses()
    assert {row["label"]: row["atomic"] for row in rows[0]} \
        == {label: result.all_atomic
            for label, result in analyses.items()}
    assert {row["label"]: row["procs"] for row in rows[0]} \
        == {label: len(result.verdicts)
            for label, result in analyses.items()}


def test_corpus_metrics_total_each_programs_counts(capsys):
    assert main(["analyze", "--corpus", "--metrics"]) == 0
    metrics = _metrics_section(capsys.readouterr().out)
    totals: dict[str, int] = {}
    for result in _analyses().values():
        for key, value in result.metrics.items():
            totals[key] = totals.get(key, 0) + value
    assert metrics == {key: str(value) for key, value in totals.items()}
    # the lint counts agree with lint --corpus --metrics
    assert metrics["lint.runs"] == str(len(corpus.__all__))


def test_corpus_trace_prints_and_embeds_the_span_tree(capsys):
    assert main(["analyze", "--corpus", "--trace"]) == 0
    trace = capsys.readouterr().out.split("-- trace --", 1)[1]
    assert trace.count("analysis.target") == len(corpus.__all__)
    doc = _corpus_json(capsys, "--trace")
    assert doc["trace"] and all("name" in span for span in doc["trace"])
    assert "trace" not in _corpus_json(capsys)
