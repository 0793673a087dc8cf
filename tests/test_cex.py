"""Counterexample explainability: path reconstruction, mover/theorem
annotation, rendering, and the ``--explain-cex`` CLI surface."""

from __future__ import annotations

import json

import pytest

import repro.interp
from repro import cli, corpus
from repro.analysis import analyze_program
from repro.interp import Interp, ThreadSpec, run_random
from repro.errors import AssertionViolation
from repro.mc import Explorer
from repro.mc.cex import RunResultView, build_cex, describe_node
from repro.obs.export import CEX_SCHEMA, MC_SCHEMA, validate
from repro.synl.parser import parse_program
from repro.synl.resolve import load_program, resolve


@pytest.fixture(scope="module")
def broken_mc():
    program = parse_program(corpus.BROKEN_SEMAPHORE)
    resolve(program)
    interp = Interp(program)
    specs = [ThreadSpec.of(("DownBad",)), ThreadSpec.of(("DownBad",))]
    result = Explorer(interp, specs, mode="full",
                      max_states=200_000).run()
    assert result.violation
    return result, interp


@pytest.fixture(scope="module")
def broken_analysis():
    return analyze_program(corpus.BROKEN_SEMAPHORE)


def test_mcresult_path_is_structured(broken_mc):
    result, _ = broken_mc
    assert result.path[0]["kind"] == "init"
    # desc strings stay in sync with the structured path
    assert [s["desc"] for s in result.path] == result.trace


def test_every_step_carries_mover_and_citation(broken_mc,
                                               broken_analysis):
    result, interp = broken_mc
    cex = build_cex(result, interp, broken_analysis)
    assert cex.annotated
    assert cex.violation == result.violation
    assert len(cex.steps) == len(result.trace) - 1  # init dropped
    for step in cex.steps:
        assert step.mover in ("R", "L", "B", "A", "N"), step.desc
        assert step.citation, step.desc
        assert step.theorems, step.desc
    # the interleaving must exhibit the paper's vocabulary: the LL is
    # a right-mover by Thm 5.3, the successful SC a left-mover, and
    # the stale read the unclassified non-mover that broke atomicity
    citations = [s.citation for s in cex.steps]
    assert any("Thm 5.3" in c and "matching LL" in c
               for c in citations)
    assert any("Thm 5.3" in c and "successful SC" in c
               for c in citations)
    stale = [s for s in cex.steps if s.mover == "A"]
    assert stale and any("unclassified" in s.citation for s in stale)


def test_render_is_a_per_thread_timeline(broken_mc, broken_analysis):
    result, interp = broken_mc
    text = build_cex(result, interp, broken_analysis).render()
    assert "t0" in text and "t1" in text
    assert "[R]" in text and "[L]" in text and "[A]" in text
    assert "Thm 5.3" in text and "Thm 3.1" in text
    assert "violation after step" in text
    # every annotated step lands on its own line with its seq number
    assert f"{len(result.trace) - 1:>4}  " in text


def test_cex_to_dict_validates_schema(broken_mc, broken_analysis):
    result, interp = broken_mc
    cex = build_cex(result, interp, broken_analysis)
    doc = json.loads(json.dumps(cex.to_dict()))
    assert validate(doc, CEX_SCHEMA) == []
    assert doc["annotated"] is True
    movers = {s["mover"] for s in doc["steps"]}
    assert {"R", "L", "A"} <= movers


def test_unannotated_cex_still_renders(broken_mc):
    result, interp = broken_mc
    cex = build_cex(result, interp, analysis=None)
    assert not cex.annotated
    assert len(cex.steps) == len(result.trace) - 1
    assert "counterexample:" in cex.render()
    assert validate(cex.to_dict(), CEX_SCHEMA) == []


def test_build_cex_requires_a_violation():
    interp = Interp(corpus.NFQ_PRIME)
    clean = Explorer(interp, [ThreadSpec.of(("UpdateTail",))],
                     mode="full").run()
    with pytest.raises(ValueError):
        build_cex(clean, interp)


def test_run_view_produces_equivalent_timeline(broken_analysis):
    program = parse_program(corpus.BROKEN_SEMAPHORE)
    resolve(program)
    interp = Interp(program)
    world = interp.make_world([ThreadSpec.of(("DownBad",)),
                               ThreadSpec.of(("DownBad",))])
    path_log: list = []
    with pytest.raises(AssertionViolation) as exc:
        run_random(interp, world, seed=1, path_log=path_log)
    view = RunResultView(str(exc.value), path_log)
    cex = build_cex(view, interp, broken_analysis)
    assert cex.mode == "run"
    assert any("Thm 5.3" in s.citation for s in cex.steps)


def test_describe_node_renders_branches():
    program = parse_program(corpus.BROKEN_SEMAPHORE)
    resolve(program)
    interp = Interp(program)
    texts = {describe_node(n) for cfg in interp.cfgs.values()
             for n in cfg.nodes}
    assert "if (SC(Sem, cur - 1)) ..." in texts
    assert "loop ..." in texts
    assert "local cur = LL(Sem) in" in texts


def test_describe_node_renders_labels():
    """Loop heads, breaks and continues keep their label, so a step
    through an inlined call names the ``__inline_N`` wrapper it leaves."""
    program = load_program("""
        global G;
        init { G = 0; }
        proc Get() { return G; }
        proc P() {
          L: loop {
            if (G > 1) { break L; }
            G = G + 1;
            continue L;
          }
        }
        proc Q() { local x = Get() in { G = x; } }
    """)
    texts = {describe_node(n) for cfg in Interp(program).cfgs.values()
             for n in cfg.nodes}
    assert {"L: loop ...", "break L;", "continue L;",
            "__inline_1: loop ...", "break __inline_1;"} <= texts
    assert "break;" not in texts


def test_atomic_mode_steps_annotated_as_one_transition():
    program = parse_program(corpus.BROKEN_SEMAPHORE)
    resolve(program)
    interp = Interp(program)
    specs = [ThreadSpec.of(("DownBad",)), ThreadSpec.of(("DownBad",))]
    result = Explorer(interp, specs, mode="atomic",
                      max_states=200_000).run()
    if not result.violation:  # atomic mode may mask the interleaving
        pytest.skip("atomic reduction hides the violation")
    cex = build_cex(result, interp, analyze_program(
        corpus.BROKEN_SEMAPHORE))
    atomic_steps = [s for s in cex.steps if s.kind == "atomic"]
    assert atomic_steps
    assert all("one atomic transition" in s.text for s in atomic_steps)


# -- CLI ---------------------------------------------------------------------------

@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.synl"
    path.write_text(corpus.BROKEN_SEMAPHORE)
    return str(path)


def test_cli_mc_explain_cex(broken_file, capsys):
    code = cli.main(["mc", broken_file, "DownBad()", "DownBad()",
                     "--explain-cex"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample: assertion failed" in out
    assert "[R] R by Thm 5.3" in out
    assert "[L] L by Thm 5.3" in out
    assert "[A] A by default" in out


def test_cli_mc_explain_cex_json(broken_file, capsys):
    code = cli.main(["mc", "--json", broken_file, "DownBad()",
                     "DownBad()", "--explain-cex"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert validate(doc, MC_SCHEMA) == []
    assert validate(doc["counterexample"], CEX_SCHEMA) == []
    assert doc["path"][0]["kind"] == "init"
    assert doc["counterexample"]["steps"]


def test_cli_mc_json_explain_cex_analyzes_once(tmp_path, monkeypatch,
                                               capsys):
    # the heatmap and the counterexample share one analysis of the file
    path = tmp_path / "aba.synl"
    path.write_text(corpus.ABA_STACK)
    analyses, interps = [], []
    # repro mc imports the interpreter when it runs
    real_analyze, real_interp = cli.analyze_program, repro.interp.Interp

    def analyze(program, *args, **kwargs):
        analyses.append(program)
        return real_analyze(program, *args, **kwargs)

    def interp(program):
        interps.append(real_interp(program))
        return interps[-1]

    monkeypatch.setattr(cli, "analyze_program", analyze)
    monkeypatch.setattr(repro.interp, "Interp", interp)
    code = cli.main(["mc", str(path), "PopCheck(),PopCheck()",
                     "Recycle()", "--json", "--explain-cex"])
    assert code == 1
    assert len(analyses) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["heatmap"]["annotated"]
    # the same document a fresh analysis of the source annotates
    (mc_interp,) = interps
    fresh = build_cex(RunResultView(doc["violation"], doc["path"],
                                    doc["mode"]),
                      mc_interp, real_analyze(corpus.ABA_STACK))
    assert doc["counterexample"] == fresh.to_dict()
    assert doc["counterexample"]["annotated"]


def test_cli_run_explain_cex(broken_file, capsys):
    code = cli.main(["run", broken_file, "DownBad()", "DownBad()",
                     "--seed", "1", "--explain-cex"])
    out = capsys.readouterr().out
    assert code == 1
    assert "assertion violation" in out
    assert "counterexample: " in out
    assert "Thm 5.3" in out


def test_cli_run_json_includes_path(broken_file, capsys):
    code = cli.main(["run", "--json", broken_file, "DownBad()",
                     "DownBad()", "--seed", "1", "--explain-cex"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["violation"]
    # the schedule is replayable from the document: its seed, and
    # the path and history it produced
    assert doc["seed"] == 1
    assert doc["path"] and doc["path"][0]["kind"] == "invoke"
    assert doc["history"]
    assert validate(doc["counterexample"], CEX_SCHEMA) == []


def test_cli_mc_json_trace_survives_violation(broken_file, capsys):
    code = cli.main(["mc", broken_file, "DownBad()", "DownBad()",
                     "--json", "--trace"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["violation"] and doc["trace"]
    (run,) = doc["spans"]
    assert run["name"] == "mc.run"
    assert [c["name"] for c in run["children"]] == ["mc.init", "mc.dfs"]


def test_a_citation_never_shows_another_mover(capsys):
    """A step under a composite line (here Recycle's ``if (CAS(Top, x,
    y)) ...``, an N line) cites the §3.3 composition, not a
    justification of one of the line's inner actions."""
    code = cli.main(["mc", "examples/synl/aba_stack.synl",
                     "PopCheck(),PopCheck()", "Recycle()", "--json",
                     "--explain-cex"])
    assert code == 1
    steps = json.loads(capsys.readouterr().out)["counterexample"]["steps"]
    cited = [s for s in steps if " by " in s["citation"]]
    assert cited
    for step in cited:
        assert step["citation"].startswith(f"{step['mover']} by "), step
    composed = [s for s in steps if "§3.3 composition" in s["citation"]]
    assert composed and all(s["mover"] == "N" and s["proc"] == "Recycle"
                            for s in composed)
