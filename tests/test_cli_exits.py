"""CLI exit-code contract: 0 ok, 1 not atomic / violation / drift,
2 usage or parse error, 3 MC state cap, 4 MC deadline."""

from __future__ import annotations

import pytest

from repro import corpus
from repro.cli import EXIT_CAPPED, EXIT_DEADLINE, main


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


# -- analyze: 0 atomic / 1 not shown atomic / 2 usage ------------------------------

def test_analyze_atomic_exits_0(tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, "q.synl",
                                   corpus.NFQ_PRIME)])
    assert code == 0


def test_analyze_not_atomic_exits_1(tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, "aba.synl",
                                   corpus.ABA_STACK)])
    assert code == 1


def test_analyze_missing_file_exits_2(capsys):
    code = main(["analyze", "/no/such/file.synl"])
    assert code == 2


# -- unreadable input: 2 with one error line naming the path ----------------------

def _unreadable(tmp_path, kind: str) -> str:
    if kind == "directory":
        path = tmp_path / "prog.synl"
        path.mkdir()
    else:
        path = tmp_path / "binary.synl"
        path.write_bytes(b"\377\376{")
    return str(path)


def _assert_usage_error(capsys, code: int, path: str) -> None:
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("kind", ["binary", "directory"])
@pytest.mark.parametrize("command", [
    ["analyze"], ["blocks"], ["variants"], ["lint"], ["run", "P()"],
    ["mc", "P()"]], ids=lambda c: c[0])
def test_unreadable_file_exits_2(tmp_path, capsys, command, kind):
    """For mc, 1 would read as "property violated"."""
    path = _unreadable(tmp_path, kind)
    code = main([command[0], path, *command[1:]])
    _assert_usage_error(capsys, code, path)


@pytest.mark.parametrize("kind", ["binary", "directory", "not-json",
                                  "not-object"])
def test_lint_unreadable_manifest_exits_2(tmp_path, capsys, kind):
    if kind == "not-json":
        path = _write(tmp_path, "manifest.json", '{"expected": ')
    elif kind == "not-object":
        path = _write(tmp_path, "manifest.json", "[]")
    else:
        path = _unreadable(tmp_path, kind)
    code = main(["lint", "--corpus", "--manifest", path])
    _assert_usage_error(capsys, code, path)


# -- mc: 0 clean / 1 violation / 3 capped ------------------------------------------

def test_mc_clean_exits_0(tmp_path, capsys):
    code = main(["mc", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 "Down()", "Up()", "--mode", "full"])
    assert code == 0


def test_mc_violation_exits_1(tmp_path, capsys):
    code = main(["mc", _write(tmp_path, "sem.synl",
                              corpus.BROKEN_SEMAPHORE),
                 "DownBad()", "DownBad()", "--mode", "full"])
    assert code == 1


def test_block_releases_the_object_it_acquired(tmp_path, capsys):
    # the block moves B to a fresh box: its lock expression no longer
    # reads the object it acquired
    path = _write(tmp_path, "moved.synl", """
        class Box { lock; n; }
        global B;
        init { local b = new Box in { b.lock = new Box; b.n = 0; B = b; } }
        proc Hold() { synchronized (B.lock) { B = new Box; } }
        """)
    assert main(["run", path, "Hold()"]) == 0
    assert main(["mc", path, "Hold()"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    # a second Hold finds B.lock null: an error in every mode, also
    # where an atomic run steps into the acquire without testing it
    for mode in ("full", "atomic", "both"):
        assert main(["mc", path, "Hold()", "Hold()", "--mode", mode]) == 2
        assert "synchronized on non-object" in capsys.readouterr().err


def test_mc_capped_exits_3(tmp_path, capsys):
    code = main(["mc", _write(tmp_path, "sem.synl",
                              corpus.BROKEN_SEMAPHORE),
                 "DownBad()", "DownBad()", "--mode", "full",
                 "--max-states", "2"])
    assert code == EXIT_CAPPED


def test_mc_atomic_step_budget_exits_2(tmp_path, capsys):
    # no state of the run ever repeats, so only the step budget stops it
    grow = "proc Grow() { local x = 0 in { loop { x = x + 1; } } }\n"
    code = main(["mc", _write(tmp_path, "grow.synl", grow), "Grow()",
                 "--mode", "atomic"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: atomic run of Grow exceeded 10000 steps" in err
    assert "Traceback" not in err


def test_mc_deadline_exits_4(tmp_path, capsys):
    # a §6.3-style Gao-Hesselink search is far too big to finish in
    # ~0 seconds, so the soft deadline fires; the stop is graceful
    code = main(["mc", _write(tmp_path, "gh.synl", corpus.GH_PROGRAM1),
                 "Apply(1)", "Apply(2)", "Apply(3)", "--mode", "full",
                 "--deadline", "0"])
    assert code == EXIT_DEADLINE
    assert "UNKNOWN" in capsys.readouterr().out


def test_mc_deadline_violation_still_wins(tmp_path, capsys):
    # a found violation outranks the deadline verdict
    code = main(["mc", _write(tmp_path, "sem.synl",
                              corpus.BROKEN_SEMAPHORE),
                 "DownBad()", "DownBad()", "--mode", "full",
                 "--deadline", "3600"])
    assert code == 1


# -- run: 0 clean / 1 violation ----------------------------------------------------

def test_run_clean_exits_0(tmp_path, capsys):
    code = main(["run", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 "Down()", "Up()"])
    assert code == 0


def test_run_violation_exits_1(tmp_path, capsys):
    code = main(["run", _write(tmp_path, "sem.synl",
                               corpus.BROKEN_SEMAPHORE),
                 "DownBad()", "DownBad()", "--seed", "3"])
    assert code == 1


# -- lint: 0 clean / 2 errors ------------------------------------------------------

def test_lint_clean_exits_0(tmp_path, capsys):
    code = main(["lint", _write(tmp_path, "q.synl",
                                corpus.NFQ_PRIME)])
    assert code == 0


def test_lint_errors_exit_2(tmp_path, capsys):
    code = main(["lint", _write(tmp_path, "aba.synl",
                                corpus.ABA_STACK)])
    assert code == 2


# -- experiments usage errors ------------------------------------------------------

def test_experiments_unknown_name_exits_2(capsys):
    code = main(["experiments", "no-such-experiment"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["experiments", "table2", "--threads", "3"],
    ["experiments", "figure3", "--max-states", "100"],
], ids=lambda argv: " ".join(argv))
def test_experiments_section63_only_flag_exits_2(capsys, argv):
    """--threads and --max-states reach only section63; elsewhere they
    are refused rather than silently ignored."""
    code = main(argv)
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and argv[2] in err


# -- machine-clean stdout: progress stays on stderr --------------------------------

def test_mc_json_stdout_stays_parseable_with_progress(tmp_path, capsys):
    import json

    code = main(["mc", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 "Down()", "Up()", "--mode", "full", "--json",
                 "--progress", "9999"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)       # stdout is ONE JSON document
    assert doc["states"] > 0
    assert "heatmap" in doc


# -- perf diff: 0 identical / 1 drift / 2 unreadable operand ----------------------

def _bench_side(tmp_path, name, calls):
    from tests.test_perfdiff import bench_record, write_bench_run

    return write_bench_run(tmp_path / f"{name}.jsonl", [bench_record(
        layers={"mc.canonical": (calls, 0.01)})])


def _perf_operand(tmp_path, name, drifted):
    return _bench_side(tmp_path, name, 1600 if drifted else 1000)


def _corrupt_file_operand(tmp_path):
    path = tmp_path / "corrupt.jsonl"
    path.write_text('{"kind": "bench"\n{"torn": \n')
    return str(path)


# command -> (make operand, identical text, drift text)
DIFFS = {
    "perf": (_perf_operand, "no attributed drift", "DRIFT: 1 region(s)"),
}


@pytest.mark.parametrize("command", sorted(DIFFS))
def test_diff_identical_exits_0(tmp_path, capsys, command):
    make, identical, drift = DIFFS[command]
    a = make(tmp_path, "a", False)
    b = make(tmp_path, "b", False)
    assert main([command, "diff", a, b]) == 0
    out = capsys.readouterr().out
    assert identical in out and drift not in out


@pytest.mark.parametrize("command", sorted(DIFFS))
def test_diff_drift_exits_1(tmp_path, capsys, command):
    make, identical, drift = DIFFS[command]
    a = make(tmp_path, "a", False)
    b = make(tmp_path, "b", True)
    assert main([command, "diff", a, b]) == 1
    captured = capsys.readouterr()
    assert drift in captured.out and identical not in captured.out
    assert captured.err == ""


def _binary_file_operand(tmp_path):
    path = tmp_path / "binary.jsonl"
    path.write_bytes(b"\xff\xfe{")     # not UTF-8
    return str(path)


UNREADABLE = {
    "missing": lambda tmp_path: str(tmp_path / "missing"),
    "corrupt": _corrupt_file_operand,
    "binary": _binary_file_operand,
}


@pytest.mark.parametrize("operand", sorted(UNREADABLE))
@pytest.mark.parametrize("command", sorted(DIFFS))
def test_diff_unreadable_operand_exits_2(tmp_path, capsys, command, operand):
    make = DIFFS[command][0]
    a = make(tmp_path, "a", False)
    b = UNREADABLE[operand](tmp_path)
    assert main([command, "diff", a, b]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert b in err


@pytest.mark.parametrize("command", sorted(DIFFS))
def test_diff_json_stdout_parses(tmp_path, capsys, command):
    import json

    make = DIFFS[command][0]
    a = make(tmp_path, "a", False)
    b = make(tmp_path, "b", True)
    assert main([command, "diff", a, b, "--json"]) == 1
    assert isinstance(json.loads(capsys.readouterr().out), dict)


def test_perf_diff_out_written_even_on_drift(tmp_path, capsys):
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


def test_removed_ledger_commands_are_invalid_choices(capsys):
    # the run ledger and its subcommands are gone: the --json
    # documents are the one record of a run; so is the HTML report,
    # which only re-rendered those documents, the state-graph
    # capture, which only its own tests read, and the summary cache,
    # which replayed stored verdicts however the analysis had changed
    for argv in (["runs", "list"], ["replay", "last"], ["report"],
                 ["graph", "stats", "x"], ["summaries", "list"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{argv[0]}'" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--lenient", "{aba}"],
    ["mc", "{aba}", "PopCheck()", "Recycle()", "--mode", "por"],
    ["lint", "{aba}"],
    ["experiments", "figure3"],
    pytest.param(["analyze", "--corpus"], id="analyze-corpus"),
], ids=lambda argv: argv[0])
def test_commands_write_nothing_into_the_working_directory(
        tmp_path, monkeypatch, capsys, argv):
    aba = _write(tmp_path, "aba.synl", corpus.ABA_STACK)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main([a.format(aba=aba) for a in argv]) in (0, 2)
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["analyze", "--incremental", "{aba}"],
    ["analyze", "--summary-store", "store", "{aba}"],
    ["analyze", "--corpus", "--jobs", "2"],
    ["experiments", "section63", "--jobs", "2"],
], ids=lambda argv: argv[1])
def test_removed_analyze_flags_exit_2_and_write_nothing(
        tmp_path, monkeypatch, capsys, argv):
    # the summary cache, the parallel corpus pass and the forked
    # section63 grid are gone
    aba = _write(tmp_path, "aba.synl", corpus.ABA_STACK)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    with pytest.raises(SystemExit) as exc:
        main([a.format(aba=aba) for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(cwd.iterdir()) == []


# -- usage errors: thread specs and budget flags -----------------------------------

@pytest.mark.parametrize("command", ["mc", "run"])
@pytest.mark.parametrize("spec", ["PopCheck(x)", "PopCheck(", "PopCheck",
                                  "PopCheck(1,)", "PopCheck()x", "()"])
def test_bad_thread_spec_exits_2(tmp_path, capsys, command, spec):
    path = _write(tmp_path, "aba.synl", corpus.ABA_STACK)
    code = main([command, path, spec, "Recycle()"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad thread spec")
    assert "Traceback" not in err


def test_thread_spec_forms_still_parse(tmp_path, capsys):
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
def test_mc_bad_budget_flag_exits_2(tmp_path, capsys, argv):
    path = _write(tmp_path, "sem.synl", corpus.SEMAPHORE)
    with pytest.raises(SystemExit) as exc:
        main(["mc", path, "Down()", "Up()"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[0]}" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_experiments_bad_max_states_exits_2(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["experiments", "section63", "--max-states", value])
    assert exc.value.code == 2
    assert "argument --max-states" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["perf", "diff", "a", "b", "--threshold", "nan"],
    ["perf", "diff", "a", "b", "--threshold", "-0.1"],
    ["experiments", "section63", "--threads", "0"],
    ["run", "x.synl", "P()", "--max-steps", "-5"],
], ids=lambda argv: " ".join(argv))
def test_bad_numeric_flag_exits_2(capsys, argv):
    flag = next(a for a in argv if a.startswith("--"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err


def test_mc_budget_flag_boundaries_accepted(tmp_path, capsys):
    code = main(["mc", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 "Down()", "Up()", "--max-states", "1",
                 "--progress", "0.5", "--deadline", "0"])
    assert code in (EXIT_CAPPED, EXIT_DEADLINE)
