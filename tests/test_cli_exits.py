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


# -- bench: 0 ok / 1 drift / 2 usage -----------------------------------------------

def test_bench_run_records_ledger_ok(ledger_root, tmp_path, capsys):
    code = main(["bench", "run", "--quick",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    manifest = _assert_recorded(ledger_root, 0, "ok")
    names = {a["name"] for a in manifest["artifacts"]}
    assert {"BENCH_analysis.json", "BENCH_mc.json"} <= names


def test_bench_compare_drift_exits_1(ledger_root, tmp_path, capsys):
    from repro.obs.export import bench_record, write_bench

    def side(wall):
        record = bench_record("mc/x", wall, states=10, transitions=20,
                              stats={"repeats": 3, "min": wall,
                                     "max": wall, "mean": wall,
                                     "median": wall, "iqr": 0.0})
        return [record]

    a, b = tmp_path / "a", tmp_path / "b"
    write_bench(a / "BENCH_mc.json", side(0.1))
    write_bench(b / "BENCH_mc.json", side(0.2))
    code = main(["bench", "compare", str(a), str(b)])
    assert code == 1
    _assert_recorded(ledger_root, 1, "drift")


def test_bench_compare_usage_error_exits_2(ledger_root, tmp_path,
                                           capsys):
    code = main(["bench", "compare", str(tmp_path / "missing"),
                 str(tmp_path / "missing2")])
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


def test_bench_quick_json_stdout_stays_parseable(
        ledger_root, tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_LEDGER", "0")
    code = main(["bench", "run", "--quick", "--json",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)       # heartbeats went to stderr
    assert doc["files"] and doc["entry"]["metrics"]
    assert "[bench]" not in captured.out


# -- perf diff: 0 identical / 1 attributed drift / 2 bad operand -------------------

def _bench_side(tmp_path, name, work):
    from repro.obs.export import bench_record, write_bench

    rec = bench_record("mc/x", 0.1, states=10, transitions=20)
    rec["counters"] = {"mc.successors": {"calls": 0, "work": work}}
    write_bench(tmp_path / name / "BENCH_mc.json", [rec])
    return str(tmp_path / name)


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
    assert doc["drifted"] == ["mc.successors"]
    # stdout stays machine-parseable JSON too
    assert json.loads(capsys.readouterr().out)["drift"] is True


def test_perf_diff_is_not_ledgered(ledger_root, tmp_path, capsys):
    # query commands (runs/graph/perf) must not pollute the ledger
    a = _bench_side(tmp_path, "a", 1000)
    assert main(["perf", "diff", a, a]) == 0
    assert ledger.list_runs(ledger_root) == []


def test_bench_trend_changepoints_stays_informational(
        ledger_root, tmp_path, capsys):
    import json

    walls = [0.0100, 0.0103, 0.0099, 0.0102,
             0.0150, 0.0153, 0.0149, 0.0152]
    history = tmp_path / "BENCH_history.jsonl"
    history.write_text("\n".join(json.dumps(
        {"at": float(i + 1),
         "env": {"git_rev": "abc", "python": "3", "platform": "x",
                 "cpu_count": 1},
         "metrics": {"mc/x": {"wall_s": w, "iqr": 0.0003}}})
        for i, w in enumerate(walls)) + "\n")
    # a detected step is reported but never gates: exit stays 0
    code = main(["bench", "trend", "--history", str(history),
                 "--changepoints"])
    assert code == 0
    assert "[STEP] mc/x wall_s:" in capsys.readouterr().out


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


def test_mc_budget_flag_boundaries_accepted(ledger_root, tmp_path,
                                            capsys):
    code = main(["mc", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 "Down()", "Up()", "--max-states", "1",
                 "--progress", "0.5", "--deadline", "0"])
    assert code in (EXIT_CAPPED, EXIT_DEADLINE)
