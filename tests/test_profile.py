"""The work-counter profiler: deterministic counters, ranked
hotspots, the disabled zero-overhead path, and the explorer/inference
integration (coverage telemetry, heartbeat,
embedded profile documents)."""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro import corpus
from repro.analysis.inference import analyze_program
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer, observers
from repro.mc.explorer import MCResult
from repro.obs.export import PROFILE_SCHEMA, validate
from repro.obs.profile import (MIN_RATE_WINDOW_S, NULL_PROFILER, Profiler,
                               escape_frame, malloc_top, peak_rss_mb)

TINY = """
global G;
init { G = 0; }
proc Inc() {
  loop {
    local t = LL(G) in {
      if (SC(G, t + 1)) { return; }
    }
  }
}
"""


# -- accumulation ------------------------------------------------------------------

def test_region_times_and_counts():
    prof = Profiler()
    with prof.region("outer"):
        time.sleep(0.002)
    with prof.region("outer"):
        pass
    (entry,) = prof.hotspots()
    assert entry["name"] == "outer"
    assert entry["calls"] == 2
    assert entry["wall_s"] >= 0.002


def test_add_counts_work_without_timing():
    prof = Profiler()
    prof.add("rule", 3)
    prof.add("rule")
    (entry,) = prof.hotspots()
    assert entry == {"name": "rule", "calls": 0, "work": 4,
                     "wall_s": 0.0, "share": 0.0}


def test_acc_flushes_hot_loop_totals():
    prof = Profiler()
    prof.acc("dfs", 0.5, work=100, calls=10)
    prof.acc("dfs", 0.25, work=50, calls=5)
    (entry,) = prof.hotspots()
    assert (entry["calls"], entry["work"]) == (15, 150)
    assert entry["wall_s"] == pytest.approx(0.75)


def test_hotspots_ranked_by_wall_then_work_then_name():
    prof = Profiler()
    prof.acc("slow", 0.2, work=1)
    prof.acc("fast-heavy", 0.1, work=99)
    prof.acc("fast-light", 0.1, work=1)
    names = [h["name"] for h in prof.hotspots()]
    assert names == ["slow", "fast-heavy", "fast-light"]
    top = prof.hotspots(limit=1)
    assert len(top) == 1 and top[0]["share"] == pytest.approx(0.5)


# -- disabled path -----------------------------------------------------------------

def test_disabled_profiler_is_inert():
    prof = Profiler(enabled=False)
    # one shared no-op region: no per-call allocation on the off path
    assert prof.region("a") is prof.region("b")
    with prof.region("a"):
        pass
    prof.add("a", 5)
    prof.acc("a", 1.0, work=3)
    assert prof.hotspots() == []
    assert prof.counters() == {}
    assert NULL_PROFILER.enabled is False


def test_disabled_mutators_are_cheap():
    # the watchdog guards end-to-end wall time; this guards the
    # per-call cost of instrumented-but-off call sites (one attribute
    # check) against accidental slow paths
    start = time.perf_counter()
    for _ in range(100_000):
        NULL_PROFILER.add("x")
        NULL_PROFILER.acc("x", 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5  # ~5 us/call ceiling, real cost is ~100x less


# -- determinism + schema ----------------------------------------------------------

def test_work_counters_deterministic_across_runs():
    p1, p2 = Profiler(), Profiler()
    analyze_program(corpus.GH_PROGRAM1, profiler=p1)
    analyze_program(corpus.GH_PROGRAM1, profiler=p2)
    assert p1.counters() == p2.counters()
    assert any(name.startswith("theorem.") for name in p1.counters())


def test_profile_document_validates():
    prof = Profiler()
    result = analyze_program(corpus.GH_PROGRAM1, profiler=prof)
    doc = prof.to_dict()
    assert doc["v"] == 1
    assert validate(doc, PROFILE_SCHEMA) == []
    # the result's document has no profile slot: the CLI appends the
    # profile after run_meta
    assert list(result.to_dict())[-1] == "run_meta"


def test_profile_absent_when_disabled():
    # the profiler's documents are built by whoever prints them: a
    # result holds none
    result = analyze_program(corpus.GH_PROGRAM1, profiler=Profiler())
    assert not hasattr(result, "profile") and not hasattr(result, "trace")
    doc = result.to_dict()
    assert "profile" not in doc and "trace" not in doc


def test_theorem_attribution_from_tallies():
    prof = Profiler()
    analyze_program(corpus.GH_PROGRAM1, profiler=prof)
    counters = prof.counters()
    assert counters["theorem.5.3"]["work"] > 0
    assert counters["theorem.3.1"]["work"] > 0


def test_lint_checker_regions_and_rule_work():
    prof = Profiler()
    analyze_program(corpus.ABA_STACK, profiler=prof)
    names = set(prof.counters())
    assert any(n.startswith("lint.checker.") for n in names)
    assert any(n.startswith("lint.rule.") for n in names)


def test_render_table():
    prof = Profiler()
    prof.acc("analysis.classify", 0.01, work=42)
    text = prof.render()
    assert "analysis.classify" in text
    assert "wall_ms" in text
    assert Profiler().render() == "(no profile data)"


# -- resource accounting -----------------------------------------------------------

def test_peak_rss_positive_on_posix():
    assert peak_rss_mb() > 0


def test_malloc_top_requires_tracing():
    assert malloc_top() == []
    tracemalloc.start()
    try:
        _junk = [bytearray(1024) for _ in range(64)]
        entries = malloc_top(limit=3)
    finally:
        tracemalloc.stop()
    assert entries and all(
        set(e) == {"site", "kb", "count"} for e in entries)


# -- explorer integration ----------------------------------------------------------

def _explore(*observer_list, threads=3, mode="por"):
    interp = Interp(TINY)
    specs = [ThreadSpec.of(("Inc",)) for _ in range(threads)]
    return Explorer(interp, specs, mode=mode,
                    observer=observers.compose(*observer_list)).run()


def test_explorer_profile_document():
    prof = Profiler()
    _explore(observers.Profile(prof))
    doc = prof.to_dict()
    assert validate(doc, PROFILE_SCHEMA) == []
    names = {h["name"] for h in doc["hotspots"]}
    assert {"mc.successors", "mc.canonicalize", "mc.dedup",
            "mc.por_ample"} <= names


def test_explorer_coverage_observer():
    core = _explore().metrics   # library run: core counters only
    assert "mc.max_depth" in core and "mc.depth" not in core
    result = _explore(observers.Coverage())
    m = result.metrics
    assert set(core) < set(m)
    assert "mc.dedup_hit_rate" not in m   # one name per metric
    assert 0 <= m["mc.cache_hit_ratio"] <= 1
    assert m["mc.mem_peak_mb"] > 0
    depth = m["mc.depth"]
    assert depth["count"] == sum(n for _, n in m["mc.depth_hist"])
    assert depth["min"] <= depth["p50"] <= depth["p95"] <= depth["max"]
    assert m["mc.depth_hist"] == sorted(m["mc.depth_hist"])
    assert all(f >= 0 for _, f in m["mc.frontier_samples"])


def test_explorer_heartbeat_and_progress_events():
    beats: list[str] = []
    interp = Interp(TINY)
    specs = [ThreadSpec.of(("Inc",)) for _ in range(3)]
    result = Explorer(interp, specs, mode="por",
                      observer=observers.Heartbeat(
                          0.0001, sink=beats.append)).run()
    # a short period beats during the search, then once more at the end
    assert len(beats) >= 2
    assert all(b.startswith("[mc:por] ") for b in beats)
    assert "done" not in beats[0] and "done" in beats[-1]
    assert f"states={result.states}" in beats[-1]
    assert f"trans={result.transitions}" in beats[-1]


def test_explorer_trace_malloc_metric():
    result = _explore(observers.TraceMalloc(), threads=2)
    assert isinstance(result.metrics["mc.malloc_top"], list)


def test_states_per_s_guard_for_submillisecond_runs():
    fake = MCResult(mode="full")
    fake.states, fake.elapsed = 100, MIN_RATE_WINDOW_S / 2
    assert fake.states_per_s == 0.0
    fake.elapsed = 0.5
    assert fake.states_per_s == pytest.approx(200.0)


# -- collapsed-stack (folded) accumulator ------------------------------------------

def test_folded_paths_follow_region_nesting():
    prof = Profiler()
    with prof.region("outer"):
        time.sleep(0.001)
        with prof.region("inner"):
            time.sleep(0.001)
    folded = prof.to_dict()["folded"]
    assert set(folded) == {"outer", "outer;inner"}
    # region scopes are cumulative: outer includes inner's time
    assert folded["outer"] >= folded["outer;inner"]


def test_acc_folds_under_the_live_stack():
    prof = Profiler()
    with prof.region("phase"):
        prof.acc("hot-loop", 0.002, work=10)
    assert "phase;hot-loop" in prof.to_dict()["folded"]
    # acc outside any region lands at the root
    prof.acc("flush", 0.001)
    assert "flush" in prof.to_dict()["folded"]
    # zero-wall acc contributes no folded path
    prof.acc("counter-only", 0.0, work=5)
    assert "counter-only" not in prof.to_dict()["folded"]


def test_to_dict_carries_folded_and_validates():
    prof = Profiler()
    with prof.region("outer"):
        prof.acc("inner", 0.002)
    doc = prof.to_dict()
    assert doc["folded"]["outer;inner"] == pytest.approx(0.002)
    assert validate(doc, PROFILE_SCHEMA) == []
    empty = Profiler().to_dict()
    assert "folded" not in empty


# -- folded-path escaping ----------------------------------------------------------

def _separators(path: str) -> int:
    """The unescaped ``;`` in an escaped folded path: every backslash
    there starts a two-character escape."""
    return path.replace("\\\\", "").replace("\\;", "").count(";")


def test_escape_frame_keeps_each_name_one_frame():
    names = ("plain", "has space", "semi;colon", "tab\there",
             "new\nline", "back\\slash", "back\\;slash",
             "mix ;\t\n end", "theorem 5.3; weak interference")
    escaped = [escape_frame(name) for name in names]
    # no literal whitespace (the folded line format is two-column),
    # no separator, and no two names share an escape
    for frame in escaped:
        assert not any(c in frame for c in " \t\n")
        assert _separators(frame) == 0
    assert len(set(escaped)) == len(names)


def test_folded_lines_survive_hostile_region_names():
    prof = Profiler()
    with prof.region("theorem 5.3; reduction"):
        with prof.region("site visit\tpass"):
            time.sleep(0.001)
    folded = prof.to_dict()["folded"]
    # one escaped path per nesting, each frame intact
    assert sorted(_separators(path) for path in folded) == [0, 1]
    assert all(not any(c in path for c in " \t\n") for path in folded)
    outer = escape_frame("theorem 5.3; reduction")
    assert set(folded) == {outer,
                           outer + ";" + escape_frame("site visit\tpass")}
