"""The incremental engine (repro.analysis.summaries.engine): replay
fidelity, invalidation cascades end to end, drift detection, the
verify canary, and the warm-cache canary."""

from __future__ import annotations

import json

from repro import corpus
from repro.analysis.inference import InferenceOptions
from repro.analysis import analyze_program
from repro.analysis.summaries import (
    SummaryStore,
    analyze_with_summaries,
    summary_counts,
    summary_row,
    verify_store,
    warm_canary,
)
from repro.analysis.summaries.engine import drift_doc, render_drift
from repro.obs.profile import Profiler


def _store(tmp_path):
    return SummaryStore(tmp_path / "summaries")


def _strip(doc: dict) -> dict:
    return {k: v for k, v in doc.items()
            if k not in ("run_meta", "cached", "trace", "profile")}


CALLS = """
global G; global H;
proc Leaf() { G = 1; }
proc Top() { Leaf(); }
proc Solo() { H = 2; }
"""


# -- hit / miss / replay -------------------------------------------------------

def test_cold_miss_then_full_hit(tmp_path):
    store = _store(tmp_path)
    r1, i1 = analyze_with_summaries(corpus.CAS_COUNTER, store=store)
    assert not i1["cached"]
    assert i1["misses"] == ["Get", "Inc"]
    r2, i2 = analyze_with_summaries(corpus.CAS_COUNTER, store=store)
    assert i2["cached"]
    assert i2["hits"] == ["Get", "Inc"]
    assert not i2["misses"] and not i2["drift"]
    assert getattr(r2, "cached", False)


def test_replay_is_byte_identical_modulo_volatile(tmp_path):
    store = _store(tmp_path)
    fresh, _ = analyze_with_summaries(corpus.ABA_STACK, store=store)
    cached, info = analyze_with_summaries(corpus.ABA_STACK,
                                          store=store)
    assert info["cached"]
    a = json.dumps(_strip(fresh.to_dict()), sort_keys=True)
    b = json.dumps(_strip(cached.to_dict()), sort_keys=True)
    assert a == b
    # cached doc advertises itself and keeps provenance chains
    doc = cached.to_dict()
    assert doc["cached"] is True
    assert "run_meta" in doc
    lines = doc["procedures"][0]["variants"][0]["lines"]
    assert any(line.get("provenance") for line in lines)
    bare = cached.to_dict(include_provenance=False)
    bare_lines = bare["procedures"][0]["variants"][0]["lines"]
    assert all("provenance" not in line for line in bare_lines)


def test_cached_result_mirrors_analysis_result(tmp_path):
    store = _store(tmp_path)
    fresh, _ = analyze_with_summaries(corpus.ABA_STACK, store=store)
    cached, _ = analyze_with_summaries(corpus.ABA_STACK, store=store)
    assert cached.all_atomic == fresh.all_atomic
    assert cached.atomic_procedures() == fresh.atomic_procedures()
    assert [cached.is_atomic(n) for n in cached.verdicts] \
        == [fresh.is_atomic(n) for n in fresh.verdicts]
    assert cached.diagnostics == list(fresh.diagnostics)
    assert cached.figure() and cached.figure(explain=True)
    assert [f.render() for f in cached.lint.findings] \
        == [f.render() for f in fresh.lint.findings]


def test_metrics_and_profiler_attribution(tmp_path):
    store = _store(tmp_path)
    profiler = Profiler()
    cold = summary_row(*analyze_with_summaries(
        corpus.CAS_COUNTER, store=store, profiler=profiler))
    assert summary_counts([cold]) == {
        "summary.drift": 0, "summary.procs.hit": 0,
        "summary.procs.invalidated": 0, "summary.procs.miss": 2,
        "summary.programs.hit": 0, "summary.programs.miss": 1}
    counters = profiler.counters()
    assert counters["summary.hash"]["work"] == 2
    assert "summary.emit" in counters
    warm = summary_row(*analyze_with_summaries(
        corpus.CAS_COUNTER, store=store, profiler=profiler))
    assert summary_counts([warm]) == {
        "summary.drift": 0, "summary.procs.hit": 2,
        "summary.procs.invalidated": 0, "summary.procs.miss": 0,
        "summary.programs.hit": 1, "summary.programs.miss": 0}
    assert "summary.replay" in profiler.counters()
    # rows of several targets add up per key
    both = summary_counts([cold, warm])
    assert both["summary.procs.hit"] == 2
    assert both["summary.procs.miss"] == 2
    assert both["summary.programs.hit"] == both["summary.programs.miss"] \
        == 1


def test_summary_events_emitted(tmp_path):
    from repro.obs.events import EventStream

    store = _store(tmp_path)
    events = EventStream()
    analyze_with_summaries(corpus.CAS_COUNTER, store=store,
                           events=events, label="cas")
    analyze_with_summaries(corpus.CAS_COUNTER, store=store,
                           events=events, label="cas")
    kinds = [e["kind"] for e in events.snapshot()]
    assert "summary.resolve" in kinds
    assert "summary.emit" in kinds
    assert "summary.replay" in kinds


# -- invalidation cascades (satellite) -----------------------------------------

def test_callee_edit_invalidates_callers_but_not_siblings(tmp_path):
    store = _store(tmp_path)
    analyze_with_summaries(CALLS, store=store)
    edited = CALLS.replace("G = 1", "G = 3")
    _, info = analyze_with_summaries(edited, store=store)
    assert sorted(info["misses"]) == ["Leaf", "Top"]
    assert info["hits"] == ["Solo"]
    # stale records for known names count as invalidations
    assert sorted(info["invalidated"]) == ["Leaf", "Top"]
    assert not info["drift"]


def test_lint_suppression_edit_invalidates_only_that_proc(tmp_path):
    base = ("global Sem;\n"
            "proc Down() {\n"
            "  local t = Sem in { Sem = t - 1; }\n"
            "}\n"
            "proc Observe() {\n"
            "  local t = Sem in { return t; }\n"
            "}\n")
    suppressed = base.replace(
        "  local t = Sem in { Sem = t - 1; }",
        "  // lint: ignore[race.unlocked]\n"
        "  local t = Sem in { Sem = t - 1; }")
    store = _store(tmp_path)
    _, cold = analyze_with_summaries(base, store=store)
    assert not cold["cached"]
    _, info = analyze_with_summaries(suppressed, store=store)
    assert info["misses"] == ["Down"]
    assert info["hits"] == ["Observe"]
    assert info["invalidated"] == ["Down"]
    # the suppression landed in Down's lint-bearing slice
    down_key = info["proc_keys"]["Down"]
    record = store.get("proc", down_key)
    rules = {f["rule"] for f in record["slice"]["lint"]}
    assert "race.unlocked" not in rules


def test_whitespace_edit_is_a_full_proc_hit(tmp_path):
    store = _store(tmp_path)
    analyze_with_summaries(CALLS, store=store)
    spaced = CALLS.replace("Leaf()", "Leaf( )")  # text-only change
    _, info = analyze_with_summaries(spaced, store=store)
    # program record misses (source text changed) but every proc
    # summary replays, so the recompute doubles as a drift check
    assert not info["cached"]
    assert sorted(info["hits"]) == ["Leaf", "Solo", "Top"]
    assert not info["drift"]


LOCALS = ("global Sem;\n"
          "proc Down() {\n"
          "  local tmp = Sem in { Sem = tmp - 1; }\n"
          "}\n"
          "proc Observe() {\n"
          "  local tmp = Sem in { return tmp; }\n"
          "}\n")


def test_local_rename_is_a_full_proc_hit(tmp_path):
    # A pure local rename keeps every proc key (canonical hashing) but
    # changes the pretty-printed statement text and any rendered lint
    # message naming the local.  The drift comparison must therefore
    # ignore those name-bearing fields: the recompute after the rename
    # has to report hits with NO drift, not trip the soundness alarm.
    store = _store(tmp_path)
    _, cold = analyze_with_summaries(LOCALS, store=store)
    assert sorted(cold["misses"]) == ["Down", "Observe"]
    renamed = LOCALS.replace("tmp", "current")
    _, info = analyze_with_summaries(renamed, store=store)
    assert not info["cached"]  # program key tracks exact source text
    assert sorted(info["hits"]) == ["Down", "Observe"]
    assert not info["misses"]
    assert not info["drift"], info["drift"]


# -- drift detection (the soundness alarm) -------------------------------------

def _tamper_proc(store, info, name):
    key = info["proc_keys"][name]
    record = store.get("proc", key)
    sl = record["slice"]
    sl["atomic"] = not sl["atomic"]
    if sl["variants"]:
        sl["variants"][0]["body_atomicity"] = "nonatomic"
    store.put("proc", key, name,
              {k: v for k, v in record.items()
               if k not in ("v", "kind", "key", "name")})


def test_tampered_summary_is_reported_as_drift(tmp_path):
    store = _store(tmp_path)
    _, cold = analyze_with_summaries(corpus.CAS_COUNTER, store=store,
                                     label="cas")
    _tamper_proc(store, cold, "Inc")
    # drop the program record so the engine recomputes and compares
    for path in store.iter_paths("program"):
        path.unlink()
    _, info = analyze_with_summaries(corpus.CAS_COUNTER, store=store,
                                     label="cas")
    assert [d["proc"] for d in info["drift"]] == ["Inc"]
    diff = info["drift"][0]["diff"]
    assert not diff["empty"]
    assert any(entry["name"] == "Inc"
               for entry in diff["procedures"])


def test_verify_store_catches_tampered_program_doc(tmp_path):
    store = _store(tmp_path)
    analyze_with_summaries(corpus.CAS_COUNTER, store=store,
                           label="cas")
    report = verify_store(store)
    assert report == {"checked": 1, "mismatches": []}
    record = next(iter(store.records("program")))
    record["doc"]["all_atomic"] = not record["doc"]["all_atomic"]
    store.put("program", record["key"], record["name"],
              {k: v for k, v in record.items()
               if k not in ("v", "kind", "key", "name")})
    report = verify_store(store)
    assert report["checked"] == 1
    assert len(report["mismatches"]) == 1
    assert not report["mismatches"][0]["diff"]["empty"]


def test_identical_analyses_diff_empty():
    a = analyze_program(corpus.ABA_STACK).to_dict()
    b = analyze_program(corpus.ABA_STACK).to_dict()
    diff = drift_doc("a", a, "b", b)
    assert diff["empty"] is True
    assert "no drift" in render_drift(diff)


def test_aba_fix_shows_classification_drift():
    a = analyze_program(corpus.ABA_STACK).to_dict()
    b = analyze_program(corpus.ABA_STACK_FIXED).to_dict()
    diff = drift_doc("aba", a, "aba-fixed", b)
    assert diff["empty"] is False
    # the versioned-CAS fix reclassifies blocks and gains Thm 5.4
    assert diff["classification"]
    gained = {t for e in diff["theorems"] for t in e["gained"]}
    assert "5.4" in gained
    table = render_drift(diff)
    assert table.splitlines()[0] == "drift aba -> aba-fixed"
    assert any(line.startswith("class    | ")
               for line in table.splitlines())


def test_verdict_flip_alone_is_drift():
    doc = analyze_program(corpus.CAS_COUNTER).to_dict()
    flipped = dict(doc, all_atomic=not doc["all_atomic"])
    diff = drift_doc("stored", flipped, "fresh", doc)
    assert not diff["classification"] and not diff["procedures"]
    assert diff["outcome"] is not None and diff["empty"] is False
    assert "outcome  | " in render_drift(diff)


# -- options and corpus --------------------------------------------------------

def test_options_partition_the_cache(tmp_path):
    store = _store(tmp_path)
    analyze_with_summaries(corpus.CAS_COUNTER, store=store)
    _, info = analyze_with_summaries(
        corpus.CAS_COUNTER, InferenceOptions(enable_lint=False),
        store=store)
    assert not info["cached"]
    assert len(info["misses"]) == 2


def test_warm_canary_full_corpus(tmp_path):
    report = warm_canary(tmp_path / "canary")
    assert report["ok"], report
    assert report["programs"] >= 19
    assert not report["not_cached"]
    assert not report["mismatched"]
    assert report["stats"]["programs"] == report["programs"]


def test_warm_speedup_by_work_counters(tmp_path):
    from repro.analysis.summaries import analyze_corpus

    store = _store(tmp_path)

    def work(profiler):
        return sum(entry["calls"] + entry["work"]
                   for entry in profiler.counters().values())

    cold = Profiler()
    analyze_corpus(store, profiler=cold)
    warm = Profiler()
    analyze_corpus(store, profiler=warm)
    assert work(cold) >= 5 * work(warm)
