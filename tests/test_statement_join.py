"""The position join between runtime statements and analysis report
lines (:func:`repro.analysis.report.statement_join`), as the heatmap
and counterexample explanations read it."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import cli, corpus
from repro.analysis import analyze_program
from repro.analysis import report
from repro.cfg.graph import CONTROL_KINDS
from repro.interp import Interp
from repro.mc import cex
from repro.mc.cex import describe_node
from repro.obs.heatmap import uid_annotations
from repro.synl import load_program

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples/synl"

PROGRAMS = ([(name, getattr(corpus, name)) for name in corpus.__all__]
            + [(path.name, path.read_text())
               for path in sorted(EXAMPLES.glob("*.synl"))])


def _joined(source):
    join = report.statement_join(analyze_program(source))
    return join, Interp(load_program(source))


def _annotation(source, proc, text):
    """(heatmap mover, covering line text) of the one statement of
    ``proc`` that renders as ``text``."""
    join, interp = _joined(source)
    (node,) = [n for n in interp.cfgs[proc].nodes
               if describe_node(n) == text]
    mover = uid_annotations(interp, join)[node.uid]["mover"]
    return mover, join[proc].line_of(node).text


@pytest.mark.parametrize("source, proc, text, mover, line", [
    # every statement of NFQ's retry loop sits inside the loop line
    (corpus.NFQ, "Enq", "local t = LL(Tail) in", "N", "loop ..."),
    # NFQ' DeqP2 rewrote the branch into an assumption at its position
    (corpus.NFQ_PRIME, "DeqP", "if (h == LL(Tail)) ...", "A",
     "TRUE(h != LL(Tail));"),
    (corpus.LOCKED_REGISTER, "Read", "monitor-enter (Lk)", "A",
     "synchronized (Lk) ..."),
    ((EXAMPLES / "aba_stack.synl").read_text(), "Recycle",
     "if (CAS(Top, y, z)) ...", "N", "if (CAS(Top, x, y)) ..."),
    # covered by its own branch, not by the LL binding of the same
    # variable earlier in the procedure
    (corpus.DOUBLE_LL_DOWN, "DownCond", "u = LL(Sem);", "A",
     "if (t > 1) ..."),
])
def test_statement_takes_its_covering_line(source, proc, text, mover,
                                           line):
    assert _annotation(source, proc, text) == (mover, line)


def test_covering_line_mover_matches_heatmap():
    join, interp = _joined(corpus.NFQ)
    annotations = uid_annotations(interp, join)
    for node in interp.cfgs["Deq"].nodes:
        if node.kind not in CONTROL_KINDS:
            assert annotations[node.uid]["mover"] \
                == join["Deq"].line_of(node).mover


@pytest.mark.parametrize("name, source", PROGRAMS,
                         ids=[name for name, _ in PROGRAMS])
def test_positions_are_distinct_and_covered(name, source):
    # the join is exact only while no two statements of a procedure
    # share a position and every statement has a covering line
    join, interp = _joined(source)
    for proc, cfg in interp.cfgs.items():
        stmts = {id(n.stmt): n.stmt for n in cfg.nodes
                 if n.kind not in CONTROL_KINDS}
        positions = [s.pos for s in stmts.values()]
        assert None not in positions, proc
        assert len(set(positions)) == len(positions), proc
        uncovered = [str(pos) for pos in positions
                     if pos not in join[proc].lines]
        assert uncovered == [], proc


def test_mc_json_explain_cex_builds_the_join_once(tmp_path, monkeypatch,
                                                  capsys):
    path = tmp_path / "aba.synl"
    path.write_text(corpus.ABA_STACK)
    builds = []
    real = report.statement_join

    def statement_join(analysis):
        builds.append(analysis)
        return real(analysis)

    monkeypatch.setattr(cli, "statement_join", statement_join)
    monkeypatch.setattr(cex, "statement_join", statement_join)
    code = cli.main(["mc", str(path), "PopCheck(),PopCheck()",
                     "Recycle()", "--json", "--explain-cex"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["heatmap"]["annotated"]
    assert doc["counterexample"]["annotated"]
    assert len(builds) == 1
