"""Each CLI command imports what it runs: the analysis commands load no
part of the model checker, the interpreter or the JSON exporter, which
a cold ``repro analyze`` would otherwise compile and never call.  Nor
does loading and running a program load the analysis."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import corpus

SRC = str(pathlib.Path(repro.__file__).parent.parent)

#: run one command in a fresh interpreter and print the repro modules
#: it loaded; the command's own output goes to /dev/null
_PROBE = """
import contextlib, json, os, sys
from repro.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""

UNUSED = ("repro.mc", "repro.interp", "repro.obs.export")


def _loaded(*argv: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--explain"],
                                  ["blocks"], ["variants"], ["lint"]])
def test_an_analysis_command_loads_no_checker_interpreter_or_exporter(
        tmp_path, argv):
    path = tmp_path / "treiber.synl"
    path.write_text(corpus.TREIBER_STACK)
    loaded = _loaded(*argv, str(path))
    assert "repro.analysis.inference" in loaded
    assert [m for m in loaded if m.startswith(UNUSED)] == []


def test_analyze_corpus_loads_no_checker_interpreter_or_exporter():
    loaded = _loaded("analyze", "--corpus")
    assert [m for m in loaded if m.startswith(UNUSED)] == []


def test_mc_without_json_loads_no_exporter(tmp_path):
    path = tmp_path / "treiber.synl"
    path.write_text(corpus.TREIBER_STACK)
    loaded = _loaded("mc", str(path), "Push(1)", "Pop()")
    assert "repro.mc.explorer" in loaded
    assert "repro.obs.export" not in loaded


#: load the inlining front-end canary's program and run it round-robin,
#: then print the repro modules loaded
_RUN_PROBE = """
import json, sys
from repro.interp import Interp, ThreadSpec, run_round_robin
from repro.synl.resolve import load_program
interp = Interp(load_program(sys.argv[1]))
world = interp.make_world([ThreadSpec.of(("Inc",), ("Check",))])
run_round_robin(interp, world)
assert world.globals["G"] == 6
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def test_loading_and_running_a_program_with_calls_loads_no_analysis():
    from tests.test_inline import _CAPTURE

    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", _RUN_PROBE, _CAPTURE],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    loaded = json.loads(proc.stdout)
    assert "repro.synl.inline" in loaded
    assert [m for m in loaded if m.startswith("repro.analysis")] == []
