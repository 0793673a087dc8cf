"""The incremental-analysis CLI surface: ``repro analyze
--incremental / --summary-store / --corpus``, the ``REPRO_SUMMARIES``
environment hook, and the ``repro summaries`` maintenance group
(list / show / gc / verify / canary) with their exit codes."""

from __future__ import annotations

import json

from repro import corpus
from repro.analysis.summaries import SummaryStore
from repro.cli import main


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


def _store_args(tmp_path):
    return ["--summary-store", str(tmp_path / "summaries")]


# -- analyze --incremental -----------------------------------------------------

def test_incremental_analyze_miss_then_hit(tmp_path, capsys):
    target = _write(tmp_path, "q.synl", corpus.NFQ_PRIME)
    assert main(["analyze", target, "--incremental",
                 *_store_args(tmp_path)]) == 0
    cold = capsys.readouterr().out
    assert "-- summary cache --" in cold
    assert "program miss" in cold
    assert main(["analyze", target, "--incremental",
                 *_store_args(tmp_path)]) == 0
    warm = capsys.readouterr().out
    assert "program hit (replayed)" in warm
    # verdict lines agree between the fresh and the replayed run
    verdicts = [line for line in cold.splitlines() if "ATOMIC" in line]
    assert verdicts == [line for line in warm.splitlines()
                        if "ATOMIC" in line]


def test_incremental_json_doc_advertises_cached(tmp_path, capsys):
    target = _write(tmp_path, "aba.synl", corpus.ABA_STACK)
    assert main(["analyze", target, "--incremental", "--json",
                 *_store_args(tmp_path)]) == 1  # not atomic
    fresh = json.loads(capsys.readouterr().out)
    assert not fresh.get("cached")
    assert main(["analyze", target, "--incremental", "--json",
                 *_store_args(tmp_path)]) == 1
    cached = json.loads(capsys.readouterr().out)
    assert cached["cached"] is True
    strip = ("run_meta", "cached", "trace", "profile")
    assert {k: v for k, v in fresh.items() if k not in strip} \
        == {k: v for k, v in cached.items() if k not in strip}


def test_env_var_enables_incremental(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SUMMARIES",
                       str(tmp_path / "env-summaries"))
    target = _write(tmp_path, "q.synl", corpus.NFQ_PRIME)
    assert main(["analyze", target]) == 0
    assert "-- summary cache --" in capsys.readouterr().out
    assert (tmp_path / "env-summaries" / "procs").is_dir()


def _metrics_section(out: str) -> dict:
    """The ``name: value`` lines after ``-- metrics --``."""
    lines = out.split("-- metrics --", 1)[1].strip().splitlines()
    return dict(line.split(": ", 1) for line in lines
                if ": " in line and not line.startswith("-"))


def test_incremental_metrics_show_summary_counts(tmp_path, capsys):
    target = _write(tmp_path, "aba.synl", corpus.ABA_STACK)
    argv = ["analyze", target, "--metrics", "--lenient",
            *_store_args(tmp_path)]
    assert main(argv) == 0
    cold = _metrics_section(capsys.readouterr().out)
    assert cold["lint.runs"] == "1"
    assert (cold["summary.procs.miss"], cold["summary.procs.hit"]) \
        == ("2", "0")
    assert (cold["summary.programs.miss"],
            cold["summary.programs.hit"]) == ("1", "0")
    assert main(argv) == 0
    warm = _metrics_section(capsys.readouterr().out)
    assert (warm["summary.procs.miss"], warm["summary.procs.hit"]) \
        == ("0", "2")
    assert (warm["summary.programs.miss"],
            warm["summary.programs.hit"]) == ("0", "1")
    assert warm["summary.drift"] == "0"


def test_analyze_without_file_or_corpus_exits_2(tmp_path, capsys):
    assert main(["analyze"]) == 2
    assert "needs a FILE" in capsys.readouterr().err


# -- analyze --corpus ----------------------------------------------------------

def test_corpus_analyze_clean_exits_0(tmp_path, capsys):
    assert main(["analyze", "--corpus", *_store_args(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "program" in out and "cached" in out
    # non-atomic corpus programs must not fail the batch
    assert "corpus/aba_stack" in out


def test_corpus_metrics_show_summary_counts(tmp_path, capsys):
    from repro.analysis.summaries import corpus_targets

    n = len(corpus_targets())
    argv = ["analyze", "--corpus", "--metrics", *_store_args(tmp_path)]
    assert main(argv) == 0
    cold = _metrics_section(capsys.readouterr().out)
    assert (cold["summary.programs.miss"],
            cold["summary.programs.hit"]) == (str(n), "0")
    assert int(cold["summary.procs.miss"]) > 0
    assert main(argv) == 0
    warm = _metrics_section(capsys.readouterr().out)
    assert (warm["summary.programs.miss"],
            warm["summary.programs.hit"]) == ("0", str(n))
    assert warm["summary.procs.miss"] == "0"
    assert int(warm["summary.procs.hit"]) \
        == int(cold["summary.procs.hit"]) + int(cold["summary.procs.miss"])
    assert warm["summary.drift"] == "0"


def test_corpus_analyze_json_doc(tmp_path, capsys):
    assert main(["analyze", "--corpus", "--json",
                 *_store_args(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["programs"] and not doc["errors"] and not doc["drift"]
    assert doc["stats"]["kind"] == "summary-stats"
    labels = [row["label"] for row in doc["programs"]]
    assert "corpus/cas_counter" in labels
    assert any(label.startswith("examples/") for label in labels)


def test_corpus_drift_exits_1_with_table(tmp_path, capsys):
    assert main(["analyze", "--corpus", *_store_args(tmp_path)]) == 0
    capsys.readouterr()
    store = SummaryStore(tmp_path / "summaries")
    # tamper one cached verdict, then force a recompute of its program
    record = next(r for r in store.records("proc")
                  if r["name"] == "Inc")
    record["slice"]["atomic"] = not record["slice"]["atomic"]
    if record["slice"]["variants"]:
        record["slice"]["variants"][0]["body_atomicity"] = "nonatomic"
    store.put("proc", record["key"], record["name"],
              {k: v for k, v in record.items()
               if k not in ("v", "kind", "key", "name")})
    for path in store.iter_paths("program"):
        path.unlink()
    assert main(["analyze", "--corpus", *_store_args(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "summary cache drift" in err
    assert "Inc" in err


# -- summaries maintenance group -----------------------------------------------

def test_summaries_list_and_show(tmp_path, capsys):
    target = _write(tmp_path, "q.synl", corpus.NFQ_PRIME)
    main(["analyze", target, "--incremental", *_store_args(tmp_path)])
    capsys.readouterr()
    store_dir = str(tmp_path / "summaries")
    assert main(["summaries", "list", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "proc" in out and "program" in out
    key = next(line.split()[1] for line in out.splitlines()
               if line.startswith("proc"))
    assert main(["summaries", "show", key[:8], "--store",
                 store_dir]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["kind"] == "proc"
    assert main(["summaries", "show", "ffff0000", "--store",
                 store_dir]) == 2


def test_summaries_gc(tmp_path, capsys):
    main(["analyze", "--corpus", *_store_args(tmp_path)])
    capsys.readouterr()
    store_dir = str(tmp_path / "summaries")
    assert main(["summaries", "gc", "--keep", "3", "--store",
                 store_dir]) == 0
    assert "removed" in capsys.readouterr().out
    store = SummaryStore(tmp_path / "summaries")
    assert store.stats()["procs"] <= 3
    assert store.stats()["programs"] <= 3


def test_summaries_verify_clean_then_tampered(tmp_path, capsys):
    target = _write(tmp_path, "q.synl", corpus.NFQ_PRIME)
    main(["analyze", target, "--incremental", *_store_args(tmp_path)])
    capsys.readouterr()
    store_dir = str(tmp_path / "summaries")
    assert main(["summaries", "verify", "--store", store_dir]) == 0
    assert "0 mismatch(es)" in capsys.readouterr().out
    store = SummaryStore(tmp_path / "summaries")
    record = next(iter(store.records("program")))
    record["doc"]["all_atomic"] = not record["doc"]["all_atomic"]
    store.put("program", record["key"], record["name"],
              {k: v for k, v in record.items()
               if k not in ("v", "kind", "key", "name")})
    assert main(["summaries", "verify", "--store", store_dir]) == 1
    assert "1 mismatch(es)" in capsys.readouterr().out


def test_summaries_canary_writes_stats_doc(tmp_path, capsys):
    stats_out = tmp_path / "summary_stats.json"
    assert main(["summaries", "canary", "--store",
                 str(tmp_path / "summaries"), "--stats-out",
                 str(stats_out)]) == 0
    out = capsys.readouterr().out
    assert "warm-cache canary: PASS" in out
    assert "100% hits" in out
    doc = json.loads(stats_out.read_text())
    assert doc["kind"] == "summary-stats"
    assert doc["canary"] and doc["ok"]
    assert doc["programs"] >= 19


# -- --trace through the summary store ----------------------------------------

def test_corpus_trace_prints_and_embeds_the_span_tree(tmp_path, capsys):
    argv = ["analyze", "--corpus", *_store_args(tmp_path), "--trace"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    trace = out.split("-- trace --", 1)[1]
    assert "summary.resolve" in trace
    assert main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trace"] and all("name" in span for span in doc["trace"])
    assert main(["analyze", "--corpus", *_store_args(tmp_path),
                 "--json"]) == 0
    assert "trace" not in json.loads(capsys.readouterr().out)


def test_trace_key_does_not_depend_on_the_cache(tmp_path, capsys):
    target = _write(tmp_path, "q.synl", corpus.NFQ_PRIME)
    argv = ["analyze", target, "--json", "--trace",
            *_store_args(tmp_path)]
    assert main(argv) == 0
    miss = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    hit = json.loads(capsys.readouterr().out)
    assert miss["cached"] is False and hit["cached"] is True
    assert miss["trace"] and hit["trace"]
    assert set(hit) == set(miss)
