"""Observer transparency: attaching every telemetry observer at once
must leave the exploration itself untouched — same counts, verdict,
counterexample and state sets as a bare ``observer=None`` run — and
the graph capture must still reconcile with the result."""

from __future__ import annotations

import pytest

from repro import corpus
from repro.experiments.section63 import commutes
from repro.experiments.table2 import _specs_add_heavy
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer, QueueContents, QueueShape, observers
from repro.obs.graph import GraphWriter, read_graph
from repro.obs.profile import Profiler

GH_SPECS = [ThreadSpec.of(("Apply", 1)), ThreadSpec.of(("Apply", 2))]

_FIELDS = ("states", "transitions", "violation", "trace", "path",
           "capped", "deadline_hit", "quiescent", "final", "final_shared")


class Recorder(observers.Observer):
    """Logs the search's stack hooks in call order: ``("push", depth,
    desc)``, ``("pop", depth)`` and ``("ample", tid, desc)``, then one
    ``("violation", desc, message)`` or ``("cap", states)`` from
    ``finish``."""

    def __init__(self):
        self.log: list[tuple] = []

    def ample(self, world, tid, desc, tids):
        self.log.append(("ample", tid, desc))

    def push(self, succ, depth):
        self.log.append(("push", depth, succ.desc))

    def pop(self, depth):
        self.log.append(("pop", depth))

    def finish(self, result):
        if result.violation and result.path:
            self.log.append(("violation", result.path[-1]["desc"],
                             result.violation))
        elif result.capped:
            self.log.append(("cap", result.states))

    def kind(self, name: str) -> list[tuple]:
        return [entry for entry in self.log if entry[0] == name]


def _everything(path):
    """Every observer at once (heartbeat period too long to beat)."""
    recorder = Recorder()
    graph = GraphWriter(path, record_pruned=True)
    observer = observers.compose(
        recorder,
        observers.Profile(Profiler()),
        observers.Heartbeat(1e9, sink=lambda line: None),
        observers.Coverage(),
        graph)
    return observer, graph, recorder


def _pair(tmp_path, source, specs, **kw):
    # one Interp for both runs: raw CFG uids (in traces and state
    # keys) differ between two builds of the same program
    interp = Interp(source)
    bare = Explorer(interp, specs, collect_quiescent=True, **kw).run()
    observer, graph, recorder = _everything(tmp_path / "g.jsonl")
    try:
        seen = Explorer(interp, specs, collect_quiescent=True,
                        observer=observer, **kw).run()
    finally:
        graph.close()
    return bare, seen, read_graph(tmp_path / "g.jsonl"), recorder


def _assert_transparent(bare, seen, doc):
    for name in _FIELDS:
        assert getattr(seen, name) == getattr(bare, name), name
    core = {k: v for k, v in bare.metrics.items()
            if k not in ("mc.states_per_s", "mc.mem_peak_mb")}
    assert {k: seen.metrics[k] for k in core} == core
    # the capture reconciles with the result by construction
    assert doc["summary"]["nodes"] == seen.states
    assert doc["summary"]["edges"] == seen.transitions
    assert len(doc["nodes"]) == seen.states
    assert {"mc.stmt_heat", "mc.depth", "mc.depth_hist",
            "mc.frontier_samples"} <= set(seen.metrics)
    assert seen.profile and not bare.profile


@pytest.mark.parametrize("mode", ["full", "por", "atomic", "both"])
def test_observers_never_change_gh_results(tmp_path, mode):
    kw = {"mode": mode, "max_states": 50_000}
    if mode == "both":
        kw["commutes"] = commutes
    bare, seen, doc, recorder = _pair(tmp_path, corpus.GH_PROGRAM1,
                                      GH_SPECS, **kw)
    _assert_transparent(bare, seen, doc)
    assert not bare.capped
    pushes = recorder.kind("push")
    pops = recorder.kind("pop")
    # an exhaustive search pops every state it pushed, plus the root
    assert len(pushes) + 1 == len(pops) == seen.states
    # the stack nests: each push goes one deeper than the stack it
    # lands on, and each pop leaves one level
    depth = 1
    for entry in recorder.log:
        if entry[0] == "push":
            assert entry[1] == depth + 1
            depth += 1
        elif entry[0] == "pop":
            assert entry[1] == depth - 1
            depth -= 1
    assert depth == 0
    if mode in ("por", "both"):
        assert len(recorder.kind("ample")) \
            == seen.metrics["mc.ample_reduced"] > 0
        assert doc["summary"]["pruned"] > 0
    else:
        assert doc["summary"]["pruned"] == 0


@pytest.mark.parametrize("mode", ["full", "atomic"])
def test_observers_never_change_table2_results(tmp_path, mode):
    # the incorrect-AddNode driver: per-state queue properties and the
    # violation path, capped small
    bare, seen, doc, recorder = _pair(
        tmp_path, corpus.NFQ_PRIME_BUGGY, _specs_add_heavy(2),
        mode=mode, properties=[QueueShape(), QueueContents()],
        max_states=2_000)
    _assert_transparent(bare, seen, doc)
    assert seen.violation is not None and seen.path
    # the violation is the last thing the search reports
    assert recorder.log[-1] == ("violation", seen.trace[-1],
                                seen.violation)


def test_capped_run_emits_cap_and_keeps_counts(tmp_path):
    bare, seen, doc, recorder = _pair(tmp_path, corpus.GH_PROGRAM1,
                                      GH_SPECS, mode="full",
                                      max_states=40)
    _assert_transparent(bare, seen, doc)
    assert seen.capped and seen.states == 40
    assert recorder.log[-1] == ("cap", 40)
    assert not recorder.kind("violation")


def test_compose_skips_none_and_unwraps_single():
    coverage = observers.Coverage()
    assert observers.compose() is None
    assert observers.compose(None, None) is None
    assert observers.compose(None, coverage) is coverage
    assert observers.compose(coverage, observers.Coverage()) \
        is not coverage


def test_library_run_has_core_counters_only():
    r = Explorer(Interp(corpus.GH_PROGRAM1), GH_SPECS, mode="por").run()
    assert set(r.metrics) == {
        "mc.states", "mc.transitions", "mc.states_per_s",
        "mc.cache_hits", "mc.cache_hit_ratio", "mc.max_depth", "mc.ample_reduced", "mc.ample_full",
        "mc.ample_reduction_ratio", "mc.safety_cache_hits",
        "mc.safety_cache_misses", "mc.deadline_hit", "mc.mem_peak_mb"}
    assert r.profile == {}
