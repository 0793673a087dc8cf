"""Central registry of per-subsystem schema versions.

Every versioned artifact the observability stack emits — event
streams, state-graph captures, profiles, counterexample documents,
run-ledger manifests — stamps a ``"v"`` field so consumers can reject
incompatible layouts.  Before this module the version literals were
scattered across their emitting modules (and had already drifted once
between the ledger and an emitter).  This registry is now the single
source of truth:

* emitting modules import their constant from here
  (``events.SCHEMA_VERSION is schemas.EVENTS``);
* :func:`repro.obs.ledger.schema_versions` — the block recorded in
  every run manifest and ``run_meta`` — is :func:`registry` verbatim;
* ``repro report --self-check`` calls :func:`check_registry`, which
  re-imports the live constants from each emitting module and fails
  loudly if any module ever re-diverges.

Bump a constant here when (and only when) the corresponding document
layout changes incompatibly.
"""

from __future__ import annotations

#: structured event stream records (:mod:`repro.obs.events`)
EVENTS = 1

#: JSONL state-graph capture artifacts (:mod:`repro.obs.graph`)
GRAPH = 1

#: ranked-hotspot profile documents (:mod:`repro.obs.profile`)
PROFILE = 1

#: run-ledger manifests and crash bundles (:mod:`repro.obs.ledger`)
MANIFEST = 1

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

#: fleet merge-summary documents and worker spool layout
#: (:mod:`repro.obs.fleet` — per-worker telemetry spools and the
#: cross-process aggregator behind ``--jobs``)
FLEET = 1


def registry() -> dict:
    """``{subsystem: version}`` for every versioned document schema —
    the block stamped into run manifests and ``run_meta``."""
    return {
        "events": EVENTS,
        "graph": GRAPH,
        "profile": PROFILE,
        "manifest": MANIFEST,
        "lint": LINT,
        "cex": CEX,
        "heatmap": HEATMAP,
        "summary": SUMMARY,
        "perfdiff": PERFDIFF,
        "fleet": FLEET,
    }


def check_registry() -> list[str]:
    """Cross-check the registry against the live constants of every
    emitting module (empty list = consistent).  ``repro report
    --self-check`` runs this so CI notices the moment a module grows
    a local version literal again."""
    from repro.analysis.summaries import store as summary_store
    from repro.mc import cex
    from repro.obs import (events, fleet, graph, heatmap, ledger,
                           perfdiff, profile)

    live = {
        "events": events.SCHEMA_VERSION,
        "graph": graph.SCHEMA_VERSION,
        "profile": profile.PROFILE_VERSION,
        "manifest": ledger.SCHEMA_VERSION,
        "cex": cex.SCHEMA_VERSION,
        "heatmap": heatmap.SCHEMA_VERSION,
        "summary": summary_store.SCHEMA_VERSION,
        "perfdiff": perfdiff.SCHEMA_VERSION,
        "fleet": fleet.SCHEMA_VERSION,
    }
    problems = []
    reg = registry()
    for name, version in live.items():
        if reg.get(name) != version:
            problems.append(
                f"schema registry drift: {name} registry={reg.get(name)}"
                f" module={version}")
    return problems
