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
from repro.obs.events import EventStream
from repro.obs.graph import GraphWriter, read_graph
from repro.obs.profile import Profiler

GH_SPECS = [ThreadSpec.of(("Apply", 1)), ThreadSpec.of(("Apply", 2))]

_FIELDS = ("states", "transitions", "violation", "trace", "path",
           "capped", "deadline_hit", "quiescent", "final", "final_shared")


def _everything(path):
    """Every observer at once (heartbeat period too long to beat)."""
    events = EventStream()
    graph = GraphWriter(path, record_pruned=True)
    observer = observers.compose(
        observers.Events(events),
        observers.Profile(Profiler(), events),
        observers.Heartbeat(1e9, sink=lambda line: None, events=events),
        observers.Coverage(),
        graph)
    return observer, graph, events


def _pair(tmp_path, source, specs, **kw):
    # one Interp for both runs: raw CFG uids (in traces and state
    # keys) differ between two builds of the same program
    interp = Interp(source)
    bare = Explorer(interp, specs, collect_quiescent=True, **kw).run()
    observer, graph, events = _everything(tmp_path / "g.jsonl")
    try:
        seen = Explorer(interp, specs, collect_quiescent=True,
                        observer=observer, **kw).run()
    finally:
        graph.close()
    return bare, seen, read_graph(tmp_path / "g.jsonl"), events


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
    bare, seen, doc, events = _pair(tmp_path, corpus.GH_PROGRAM1,
                                    GH_SPECS, **kw)
    _assert_transparent(bare, seen, doc)
    assert not bare.capped
    pushes = events.snapshot("mc.push")
    pops = events.snapshot("mc.pop")
    # an exhaustive search pops every state it pushed, plus the root
    assert len(pushes) + 1 == len(pops) == seen.states
    if mode in ("por", "both"):
        assert len(events.snapshot("mc.ample")) \
            == seen.metrics["mc.ample_reduced"] > 0
        assert doc["summary"]["pruned"] > 0
    else:
        assert doc["summary"]["pruned"] == 0


@pytest.mark.parametrize("mode", ["full", "atomic"])
def test_observers_never_change_table2_results(tmp_path, mode):
    # the incorrect-AddNode driver: per-state queue properties and the
    # violation path, capped small
    bare, seen, doc, events = _pair(
        tmp_path, corpus.NFQ_PRIME_BUGGY, _specs_add_heavy(2),
        mode=mode, properties=[QueueShape(), QueueContents()],
        max_states=2_000)
    _assert_transparent(bare, seen, doc)
    assert seen.violation is not None and seen.path
    (violation,) = events.snapshot("mc.violation")
    assert violation["message"] == seen.violation
    assert violation["desc"] == seen.trace[-1]


def test_capped_run_emits_cap_and_keeps_counts(tmp_path):
    bare, seen, doc, events = _pair(tmp_path, corpus.GH_PROGRAM1,
                                    GH_SPECS, mode="full", max_states=40)
    _assert_transparent(bare, seen, doc)
    assert seen.capped and seen.states == 40
    (cap,) = events.snapshot("mc.cap")
    assert cap["states"] == 40


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
