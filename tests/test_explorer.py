"""Model-checker tests: determinism, violations, caps, and the central
soundness property — reduced explorations reach exactly the quiescent
states of the full one (the operational content of Theorem 5.2)."""

import pytest

from repro import corpus
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer, QueueContents, QueueShape, observers

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
proc Set(v) { G = v; }
"""


def _explore(source, specs, mode, **kw):
    interp = Interp(source)
    return Explorer(interp, specs, mode=mode, **kw).run()


def test_state_count_deterministic():
    specs = [ThreadSpec.of(("Inc",)), ThreadSpec.of(("Inc",))]
    a = _explore(TINY, specs, "full")
    b = _explore(TINY, specs, "full")
    assert (a.states, a.transitions) == (b.states, b.transitions)


def test_single_thread_linear_exploration():
    r = _explore(TINY, [ThreadSpec.of(("Set", 5))], "full")
    assert r.states == r.transitions + 1  # a simple chain


def test_atomic_mode_counts_op_granularity():
    specs = [ThreadSpec.of(("Inc",)), ThreadSpec.of(("Inc",))]
    r = _explore(TINY, specs, "atomic", collect_quiescent=True)
    # op-granularity states only (stale reservations keep a little
    # per-thread residue, so slightly more than the 4 shared shapes)
    assert r.states <= 6
    assert len(r.quiescent) <= 6
    assert r.violation is None


@pytest.mark.parametrize("mode", ["por", "atomic"])
def test_reductions_preserve_quiescent_states(mode):
    specs = [ThreadSpec.of(("Inc",)), ThreadSpec.of(("Inc",)),
             ThreadSpec.of(("Set", 7))]
    full = _explore(TINY, specs, "full", collect_quiescent=True)
    reduced = _explore(TINY, specs, mode, collect_quiescent=True)
    assert reduced.quiescent == full.quiescent
    assert reduced.states <= full.states


def test_reductions_preserve_quiescent_states_nfq():
    specs = [
        ThreadSpec.of(("AddNode", 1)),
        ThreadSpec.of(("DeqP",), ("DeqP",)),
        ThreadSpec.of(("UpdateTail",), repeat=True),
    ]
    interp = Interp(corpus.NFQ_PRIME)
    full = Explorer(interp, specs, mode="full",
                    collect_quiescent=True).run()
    atomic = Explorer(interp, specs, mode="atomic",
                      collect_quiescent=True).run()
    por = Explorer(interp, specs, mode="por",
                   collect_quiescent=True).run()
    assert atomic.quiescent == full.quiescent
    assert por.quiescent == full.quiescent
    assert atomic.states < full.states / 50


def test_both_mode_preserves_final_states():
    from repro.experiments.section63 import commutes

    interp = Interp(corpus.GH_PROGRAM1)
    specs = [ThreadSpec.of(("Apply", 1)), ThreadSpec.of(("Apply", 2))]
    full = Explorer(interp, specs, mode="full",
                    collect_quiescent=True).run()
    both = Explorer(interp, specs, mode="both", commutes=commutes,
                    collect_quiescent=True).run()
    assert both.final_shared == full.final_shared
    assert both.final <= full.final
    assert both.states < full.states


def test_violation_found_with_trace():
    bad = TINY + "proc Boom() { assert(G == 99); }"
    r = _explore(bad, [ThreadSpec.of(("Boom",))], "full")
    assert r.violation is not None
    assert "assertion" in r.violation
    assert r.trace


def test_queue_property_violation_in_buggy_nfq():
    specs = [
        ThreadSpec.of(("AddNode", 1)),
        ThreadSpec.of(("AddNode", 2)),
        ThreadSpec.of(("UpdateTail",), repeat=True),
    ]
    interp = Interp(corpus.NFQ_PRIME_BUGGY)
    props = [QueueShape(), QueueContents()]
    for mode in ("full", "atomic"):
        r = Explorer(interp, specs, mode=mode, properties=props).run()
        assert r.violation is not None, mode
        assert "lost or duplicated" in r.violation


def test_correct_nfq_passes_properties_in_atomic_mode():
    specs = [
        ThreadSpec.of(("AddNode", 1)),
        ThreadSpec.of(("AddNode", 2)),
        ThreadSpec.of(("DeqP",)),
        ThreadSpec.of(("UpdateTail",), repeat=True),
    ]
    interp = Interp(corpus.NFQ_PRIME)
    r = Explorer(interp, specs, mode="atomic",
                 properties=[QueueShape(), QueueContents()]).run()
    assert r.violation is None


def test_state_cap_reported():
    specs = [ThreadSpec.of(("Inc",)), ThreadSpec.of(("Inc",)),
             ThreadSpec.of(("Inc",))]
    r = _explore(TINY, specs, "full", max_states=10)
    assert r.capped and r.states == 10


def test_state_cap_counts_the_initial_state():
    specs = [ThreadSpec.of(("Inc",)), ThreadSpec.of(("Inc",))]
    one = _explore(TINY, specs, "full", max_states=1)
    assert one.capped and (one.states, one.transitions) == (1, 0)
    two = _explore(TINY, specs, "full", max_states=2)
    assert two.capped and two.states == 2


@pytest.mark.parametrize("cap", [0, -1])
def test_state_cap_below_one_is_rejected(cap):
    with pytest.raises(ValueError, match="max_states"):
        Explorer(Interp(TINY), [ThreadSpec.of(("Inc",))], max_states=cap)


def test_atomic_disabled_spinning_operation():
    """A helper that can never commit (UpdateTail on an up-to-date
    queue) contributes no transitions in atomic mode."""
    interp = Interp(corpus.NFQ_PRIME)
    specs = [ThreadSpec.of(("UpdateTail",), repeat=True)]
    r = Explorer(interp, specs, mode="atomic").run()
    assert r.states == 1 and r.transitions == 0


def test_variant_mode_matches_run_to_commit():
    from repro.analysis import analyze_program

    analysis = analyze_program(corpus.NFQ_PRIME)
    vprog = analysis.variant_set.program
    variant_interp = Interp(vprog)
    variant_map = {src: [v.name for v in vs]
                   for src, vs in analysis.variant_set.by_source.items()}
    interp = Interp(corpus.NFQ_PRIME)
    specs = [
        ThreadSpec.of(("AddNode", 1)),
        ThreadSpec.of(("DeqP",)),
        ThreadSpec.of(("UpdateTail",), repeat=True),
    ]
    rtc = Explorer(interp, specs, mode="atomic",
                   collect_quiescent=True).run()
    var = Explorer(interp, specs, mode="atomic",
                   variant_interp=variant_interp,
                   variant_map=variant_map,
                   collect_quiescent=True).run()
    assert var.quiescent == rtc.quiescent


# -- deadline: graceful soft-timeout -----------------------------------------------

def test_deadline_zero_stops_immediately_with_telemetry():
    specs = [ThreadSpec.of(("Inc",)), ThreadSpec.of(("Inc",)),
             ThreadSpec.of(("Inc",))]
    r = _explore(TINY, specs, "full",
                 observer=observers.compose(observers.Heartbeat(deadline=0.0),
                                            observers.Coverage()))
    assert r.deadline_hit and not r.capped and r.violation is None
    # the stop is graceful: partial counts and telemetry survive
    assert r.states >= 1
    assert r.metrics["mc.deadline_hit"] is True
    assert "mc.depth_hist" in r.metrics
    assert "UNKNOWN (deadline)" in str(r)


def test_generous_deadline_never_fires():
    specs = [ThreadSpec.of(("Inc",)), ThreadSpec.of(("Inc",))]
    r = _explore(TINY, specs, "full",
                 observer=observers.Heartbeat(deadline=3600.0))
    assert not r.deadline_hit
    assert r.metrics["mc.deadline_hit"] is False
    assert "UNKNOWN" not in str(r)
    # and the default (no deadline) matches the deadline-free counts
    plain = _explore(TINY, specs, "full")
    assert (r.states, r.transitions) == (plain.states, plain.transitions)


def test_deadline_cuts_the_search_short():
    # three threads: enough loop iterations to reach the clock-check
    # stride (a sub-stride search finishes before the soft deadline
    # is ever consulted — that is the documented semantics)
    specs = [ThreadSpec.of(("Inc",)), ThreadSpec.of(("Inc",)),
             ThreadSpec.of(("Inc",))]
    interp = Interp(TINY)
    r = Explorer(interp, specs, mode="full",
                 observer=observers.Heartbeat(deadline=0.0)).run()
    assert r.deadline_hit
    assert r.states < Explorer(interp, specs, mode="full").run().states


# -- statement heat counters (the Coverage observer) -------------------------------

def test_stmt_heat_counts_visits_and_switches():
    specs = [ThreadSpec.of(("Inc",)), ThreadSpec.of(("Inc",))]
    r = _explore(TINY, specs, "full", observer=observers.Coverage())
    heat = r.metrics["mc.stmt_heat"]
    assert heat, "Coverage collects statement heat"
    # rows are [uid, visits, switches, distinct threads], sorted by uid
    assert heat == sorted(heat)
    assert all(len(row) == 4 for row in heat)
    visits = sum(row[1] for row in heat)
    switches = sum(row[2] for row in heat)
    # every uid-carrying transition is one visit; a symmetric 2-thread
    # search must context-switch somewhere and both threads run the
    # same code
    assert 0 < visits <= r.transitions
    assert 0 < switches < visits
    assert max(row[3] for row in heat) == 2


def test_stmt_heat_single_thread_has_no_switches():
    r = _explore(TINY, [ThreadSpec.of(("Set", 5))], "full",
                 observer=observers.Coverage())
    heat = r.metrics["mc.stmt_heat"]
    assert heat
    assert all(row[2] == 0 for row in heat)     # nothing to switch from
    assert all(row[3] == 1 for row in heat)


def test_stmt_heat_is_deterministic():
    # raw CFG uids shift between program builds (process-global
    # counter), but relative order and every count column must agree
    specs = [ThreadSpec.of(("Inc",)), ThreadSpec.of(("Inc",))]
    a = _explore(TINY, specs, "full",
                 observer=observers.Coverage()).metrics["mc.stmt_heat"]
    b = _explore(TINY, specs, "full",
                 observer=observers.Coverage()).metrics["mc.stmt_heat"]
    assert [row[1:] for row in a] == [row[1:] for row in b]


def test_heatmap_document_annotates_statements():
    from repro.analysis import analyze_program
    from repro.obs.export import HEATMAP_SCHEMA, validate
    from repro.obs.heatmap import build_heatmap, uid_annotations

    interp = Interp(corpus.GH_PROGRAM1)
    analysis = analyze_program(corpus.GH_PROGRAM1)
    specs = [ThreadSpec.of(("Apply", 1)), ThreadSpec.of(("Apply", 2))]
    r = Explorer(interp, specs, mode="full",
                 observer=observers.Coverage()).run()
    annotations = uid_annotations(interp, analysis)
    doc = build_heatmap(r.metrics["mc.stmt_heat"], annotations,
                        annotated=True)
    assert validate(doc, HEATMAP_SCHEMA) == []
    assert doc["annotated"] is True
    assert doc["total_visits"] == sum(x[1] for x
                                      in r.metrics["mc.stmt_heat"])
    movers = {row["mover"] for row in doc["rows"]}
    assert movers & {"R", "L", "B", "N"}
    assert any(row["text"] for row in doc["rows"])


def test_heatmap_without_analysis_is_unannotated():
    from repro.obs.heatmap import build_heatmap, uid_annotations

    interp = Interp(TINY)
    specs = [ThreadSpec.of(("Inc",)), ThreadSpec.of(("Inc",))]
    r = Explorer(interp, specs, mode="full",
                 observer=observers.Coverage()).run()
    annotations = uid_annotations(interp, None)
    doc = build_heatmap(r.metrics["mc.stmt_heat"], annotations,
                        annotated=False)
    assert doc["annotated"] is False
    assert doc["rows"]
