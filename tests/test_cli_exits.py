"""CLI exit-code contract, cross-checked against the run ledger: the
exit code the process reports and the one the manifest records must
always agree (the determinism canary in CI diffs manifests, so a
mismatch here would poison every downstream comparison)."""

from __future__ import annotations

import pytest

from repro import corpus
from repro.cli import EXIT_CAPPED, EXIT_DEADLINE, main
from repro.obs import ledger


@pytest.fixture()
def ledger_root(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(root))
    return root


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


def _last(ledger_root):
    return ledger.list_runs(ledger_root)[-1]


def _assert_recorded(ledger_root, code, outcome):
    manifest = _last(ledger_root)
    assert manifest["exit_code"] == code
    assert manifest["outcome"] == outcome
    return manifest


# -- analyze: 0 atomic / 1 not shown atomic / 2 usage ------------------------------

def test_analyze_atomic_exits_0(ledger_root, tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, "q.synl",
                                   corpus.NFQ_PRIME)])
    assert code == 0
    _assert_recorded(ledger_root, 0, "ok")


def test_analyze_not_atomic_exits_1(ledger_root, tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, "aba.synl",
                                   corpus.ABA_STACK)])
    assert code == 1
    _assert_recorded(ledger_root, 1, "not-atomic")


def test_analyze_missing_file_exits_2(ledger_root, capsys):
    code = main(["analyze", "/no/such/file.synl"])
    assert code == 2
    _assert_recorded(ledger_root, 2, "error")


# -- mc: 0 clean / 1 violation / 3 capped ------------------------------------------

def test_mc_clean_exits_0(ledger_root, tmp_path, capsys):
    code = main(["mc", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 "Down()", "Up()", "--mode", "full"])
    assert code == 0
    manifest = _assert_recorded(ledger_root, 0, "ok")
    assert manifest["mc"]["violation"] is None


def test_mc_violation_exits_1(ledger_root, tmp_path, capsys):
    code = main(["mc", _write(tmp_path, "sem.synl",
                              corpus.BROKEN_SEMAPHORE),
                 "DownBad()", "DownBad()", "--mode", "full"])
    assert code == 1
    manifest = _assert_recorded(ledger_root, 1, "violation")
    assert manifest["mc"]["fingerprint"]


def test_mc_capped_exits_3(ledger_root, tmp_path, capsys):
    code = main(["mc", _write(tmp_path, "sem.synl",
                              corpus.BROKEN_SEMAPHORE),
                 "DownBad()", "DownBad()", "--mode", "full",
                 "--max-states", "2"])
    assert code == EXIT_CAPPED
    manifest = _assert_recorded(ledger_root, EXIT_CAPPED, "capped")
    assert manifest["mc"]["capped"] is True


def test_mc_deadline_exits_4(ledger_root, tmp_path, capsys):
    # a §6.3-style Gao-Hesselink search is far too big to finish in
    # ~0 seconds, so the soft deadline fires; the stop is graceful —
    # the manifest still carries the partial MC summary
    code = main(["mc", _write(tmp_path, "gh.synl", corpus.GH_PROGRAM1),
                 "Apply(1)", "Apply(2)", "Apply(3)", "--mode", "full",
                 "--deadline", "0"])
    assert code == EXIT_DEADLINE
    assert "UNKNOWN" in capsys.readouterr().out
    manifest = _assert_recorded(ledger_root, EXIT_DEADLINE, "deadline")
    assert manifest["mc"]["deadline_hit"] is True
    assert manifest["mc"]["violation"] is None
    assert manifest["mc"]["states"] >= 1


def test_mc_deadline_violation_still_wins(ledger_root, tmp_path,
                                          capsys):
    # a found violation outranks the deadline verdict
    code = main(["mc", _write(tmp_path, "sem.synl",
                              corpus.BROKEN_SEMAPHORE),
                 "DownBad()", "DownBad()", "--mode", "full",
                 "--deadline", "3600"])
    assert code == 1
    _assert_recorded(ledger_root, 1, "violation")


# -- run: 0 clean / 1 violation ----------------------------------------------------

def test_run_clean_exits_0(ledger_root, tmp_path, capsys):
    code = main(["run", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 "Down()", "Up()"])
    assert code == 0
    manifest = _assert_recorded(ledger_root, 0, "ok")
    assert manifest["seed"] == 0


def test_run_violation_exits_1(ledger_root, tmp_path, capsys):
    code = main(["run", _write(tmp_path, "sem.synl",
                               corpus.BROKEN_SEMAPHORE),
                 "DownBad()", "DownBad()", "--seed", "3"])
    assert code == 1
    manifest = _assert_recorded(ledger_root, 1, "violation")
    assert manifest["seed"] == 3


# -- lint: 0 clean / 2 errors ------------------------------------------------------

def test_lint_clean_exits_0(ledger_root, tmp_path, capsys):
    code = main(["lint", _write(tmp_path, "q.synl",
                                corpus.NFQ_PRIME)])
    assert code == 0
    _assert_recorded(ledger_root, 0, "ok")


def test_lint_errors_exit_2(ledger_root, tmp_path, capsys):
    code = main(["lint", _write(tmp_path, "aba.synl",
                                corpus.ABA_STACK)])
    assert code == 2
    manifest = _assert_recorded(ledger_root, 2, "findings")
    assert manifest["lint"]["errors"] > 0


# -- report / experiments usage errors ---------------------------------------------

def test_report_without_inputs_exits_2(ledger_root, tmp_path,
                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # no benchmarks/out fallback here
    code = main(["report"])
    assert code == 2
    _assert_recorded(ledger_root, 2, "error")


def test_report_self_check_exits_0(ledger_root, capsys):
    code = main(["report", "--self-check"])
    assert code == 0
    _assert_recorded(ledger_root, 0, "ok")


def test_experiments_unknown_name_exits_2(ledger_root, capsys):
    code = main(["experiments", "no-such-experiment"])
    assert code == 2
    _assert_recorded(ledger_root, 2, "error")


# -- machine-clean stdout: progress stays on stderr --------------------------------

def test_mc_json_stdout_stays_parseable_with_progress(
        ledger_root, tmp_path, capsys):
    import json

    code = main(["mc", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 "Down()", "Up()", "--mode", "full", "--json",
                 "--progress", "9999"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)       # stdout is ONE JSON document
    assert doc["states"] > 0
    assert "heatmap" in doc


# -- perf diff: 0 identical / 1 attributed drift / 2 bad operand -------------------

def _bench_side(tmp_path, name, calls):
    from tests.test_perfdiff import bench_record, write_bench_run

    return write_bench_run(tmp_path / f"{name}.jsonl", [bench_record(
        layers={"mc.canonical": (calls, 0.01)})])


def test_perf_diff_identical_exits_0(ledger_root, tmp_path, capsys):
    a = _bench_side(tmp_path, "a", 1000)
    b = _bench_side(tmp_path, "b", 1000)
    assert main(["perf", "diff", a, b]) == 0
    assert "no attributed drift" in capsys.readouterr().out


def test_perf_diff_drift_exits_1(ledger_root, tmp_path, capsys):
    a = _bench_side(tmp_path, "a", 1000)
    b = _bench_side(tmp_path, "b", 1600)
    assert main(["perf", "diff", a, b]) == 1
    assert "DRIFT" in capsys.readouterr().out


def test_perf_diff_bad_operand_exits_2(ledger_root, tmp_path, capsys):
    a = _bench_side(tmp_path, "a", 1000)
    code = main(["perf", "diff", a, str(tmp_path / "missing")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_perf_diff_out_written_even_on_drift(ledger_root, tmp_path,
                                             capsys):
    import json

    a = _bench_side(tmp_path, "a", 1000)
    b = _bench_side(tmp_path, "b", 1600)
    out = tmp_path / "deep" / "attribution.json"
    assert main(["perf", "diff", a, b, "--json",
                 "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["drifted"] == ["gh-full/mc.canonical"]
    # stdout stays machine-parseable JSON too
    assert json.loads(capsys.readouterr().out)["drift"] is True


def test_perf_diff_is_not_ledgered(ledger_root, tmp_path, capsys):
    # query commands (runs/graph/perf) must not pollute the ledger
    a = _bench_side(tmp_path, "a", 1000)
    assert main(["perf", "diff", a, a]) == 0
    assert ledger.list_runs(ledger_root) == []


# -- usage errors: thread specs and budget flags -----------------------------------

@pytest.mark.parametrize("command", ["mc", "run"])
@pytest.mark.parametrize("spec", ["PopCheck(x)", "PopCheck(", "PopCheck",
                                  "PopCheck(1,)", "PopCheck()x", "()"])
def test_bad_thread_spec_exits_2(ledger_root, tmp_path, capsys, command,
                                 spec):
    path = _write(tmp_path, "aba.synl", corpus.ABA_STACK)
    code = main([command, path, spec, "Recycle()"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad thread spec")
    assert "Traceback" not in err
    _assert_recorded(ledger_root, 2, "error")


def test_thread_spec_forms_still_parse(ledger_root, tmp_path, capsys):
    code = main(["mc", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 " Down( ) ", "Up(),Down()*", "--mode", "atomic",
                 "--max-states", "50"])
    assert code in (0, EXIT_CAPPED)


@pytest.mark.parametrize("argv", [
    ["--progress", "0"], ["--progress", "-1"], ["--progress", "nan"],
    ["--progress", "inf"], ["--deadline", "-5"], ["--deadline", "nan"],
    ["--deadline", "inf"], ["--deadline", "soon"], ["--max-states", "0"],
    ["--max-states", "-3"], ["--max-states", "1.5"],
])
def test_mc_bad_budget_flag_exits_2(ledger_root, tmp_path, capsys, argv):
    path = _write(tmp_path, "sem.synl", corpus.SEMAPHORE)
    with pytest.raises(SystemExit) as exc:
        main(["mc", path, "Down()", "Up()"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[0]}" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_experiments_bad_max_states_exits_2(ledger_root, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["experiments", "section63", "--max-states", value])
    assert exc.value.code == 2
    assert "argument --max-states" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["summaries", "gc", "--keep", "-1"],
    ["summaries", "verify", "--sample", "-1"],
    ["runs", "gc", "--keep", "-3"],
    ["perf", "diff", "a", "b", "--threshold", "nan"],
    ["perf", "diff", "a", "b", "--threshold", "-0.1"],
    ["experiments", "section63", "--threads", "0"],
    ["run", "x.synl", "P()", "--max-steps", "-5"],
], ids=lambda argv: " ".join(argv))
def test_bad_numeric_flag_exits_2(ledger_root, capsys, argv):
    flag = next(a for a in argv if a.startswith("--"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err


def test_summaries_gc_negative_keep_leaves_store_untouched(
        ledger_root, tmp_path, capsys):
    store = tmp_path / "store"
    assert main(["analyze", "--incremental", "--summary-store",
                 str(store), "--lenient",
                 _write(tmp_path, "sem.synl", corpus.SEMAPHORE)]) == 0
    before = sorted(p for p in store.rglob("*") if p.is_file())
    assert before
    with pytest.raises(SystemExit):
        main(["summaries", "gc", "--keep", "-1", "--store", str(store)])
    assert sorted(p for p in store.rglob("*") if p.is_file()) == before


def test_mc_budget_flag_boundaries_accepted(ledger_root, tmp_path,
                                            capsys):
    code = main(["mc", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 "Down()", "Up()", "--max-states", "1",
                 "--progress", "0.5", "--deadline", "0"])
    assert code in (EXIT_CAPPED, EXIT_DEADLINE)
