"""Central registry of per-subsystem schema versions.

Every versioned artifact the observability stack emits — state-graph
captures, profiles, counterexample documents — stamps a ``"v"`` field
so consumers can reject incompatible layouts.  This registry is the
single source of truth:

* emitting modules import their constant from here
  (``graph.SCHEMA_VERSION is schemas.GRAPH``);
* the ``schema_versions`` block of every ``run_meta`` is
  :func:`registry` verbatim;
* :func:`check_registry`, run by the tier-1 tests, re-imports the
  live constants from each emitting module and fails loudly if any
  module ever re-diverges.

Bump a constant here when (and only when) the corresponding document
layout changes incompatibly.
"""

from __future__ import annotations

#: JSONL state-graph capture artifacts (:mod:`repro.obs.graph`)
GRAPH = 1

#: ranked-hotspot profile documents (:mod:`repro.obs.profile`)
PROFILE = 1

#: lint run documents (``repro lint --json``)
LINT = 1

#: annotated counterexample documents (:mod:`repro.mc.cex`)
CEX = 1

#: per-statement source heatmap documents (:mod:`repro.obs.heatmap`)
HEATMAP = 1

#: content-addressed procedure/program summary records
#: (:mod:`repro.analysis.summaries.store`)
#: v2: name-insensitive proc slices (no pretty-printed text / lint
#: messages), full-key filenames, callee-closure interference
SUMMARY = 2

#: differential-profiling attribution documents
#: (:mod:`repro.obs.perfdiff` — ``repro perf diff --json`` and its
#: ``--out`` file)
PERFDIFF = 1


def registry() -> dict:
    """``{subsystem: version}`` for every versioned document schema —
    the block stamped into ``run_meta``."""
    return {
        "graph": GRAPH,
        "profile": PROFILE,
        "lint": LINT,
        "cex": CEX,
        "heatmap": HEATMAP,
        "summary": SUMMARY,
        "perfdiff": PERFDIFF,
    }


def check_registry() -> list[str]:
    """Cross-check the registry against the live constants of every
    emitting module (empty list = consistent).  The tier-1 tests run
    this so CI notices the moment a module grows a local version
    literal again."""
    from repro.analysis.summaries import store as summary_store
    from repro.mc import cex
    from repro.obs import graph, heatmap, perfdiff, profile

    live = {
        "graph": graph.SCHEMA_VERSION,
        "profile": profile.PROFILE_VERSION,
        "cex": cex.SCHEMA_VERSION,
        "heatmap": heatmap.SCHEMA_VERSION,
        "summary": summary_store.SCHEMA_VERSION,
        "perfdiff": perfdiff.SCHEMA_VERSION,
    }
    problems = []
    reg = registry()
    for name, version in live.items():
        if reg.get(name) != version:
            problems.append(
                f"schema registry drift: {name} registry={reg.get(name)}"
                f" module={version}")
    return problems
