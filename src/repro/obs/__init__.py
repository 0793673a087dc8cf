"""Structured observability for the analysis pipeline (zero-dep).

Three concerns, one package:

* :mod:`repro.obs.tracing` — hierarchical wall-clock spans around the
  §5.4 pipeline steps and the model checker's DFS phases;
* :mod:`repro.obs.metrics` — thread-safe counters/gauges/histograms
  (states/sec, canonical-hash cache hits, ample-set reduction ratio,
  per-theorem exclusion counts, …);
* :mod:`repro.obs.provenance` — per-action justification chains naming
  the theorem (5.1/5.3/5.4/5.5, …) behind every mover classification;
* :mod:`repro.obs.events` — a schema-versioned, bounded structured
  event stream (ring buffer + optional JSONL sink) fed by the model
  checker, the scheduler, and the dynamic checker;
* :mod:`repro.obs.chrometrace` — span-tree + event-stream export in
  Chrome trace-event format (``--trace-out``, loadable in Perfetto);
* :mod:`repro.obs.profile` — deterministic work-counter profiler
  (scoped regions + ``sys.setprofile`` sampling fallback, ranked
  hotspot tables, ``--profile``);
* :mod:`repro.obs.perfdiff` — differential profiling over profiles,
  ledgered runs and ``bench/run.py --traced`` records
  (``repro perf diff``);
* :mod:`repro.obs.report_html` — the ``repro report`` self-contained
  HTML artifact (trace + metrics + hotspots + coverage + lint + run
  ledger + perf forensics);
* :mod:`repro.obs.ledger` — the persistent run ledger: one schema-
  versioned manifest (argv, seed, git rev, outcome, classification
  summary, content-addressed artifacts, crash bundle) per CLI
  invocation under ``.repro/runs/``, plus the hooks the explorer and
  scheduler feed (``repro runs``, ``repro replay``);
* :mod:`repro.obs.rundiff` — cross-run drift diffing over ledger
  manifests (``repro runs diff``).

:mod:`repro.obs.export` serializes analysis/model-checking results
against small self-validated JSON schemas; :mod:`repro.obs.config`
reads the ``REPRO_TRACE`` / ``REPRO_METRICS`` / ``REPRO_LEDGER``
environment switches.

``export`` is imported lazily (it reaches back into
:mod:`repro.analysis`); everything else here is import-cycle-free.
"""

from repro.obs.config import ObsConfig
from repro.obs.events import EventStream
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry)
from repro.obs.profile import NULL_PROFILER, Profiler, Sampler
from repro.obs.provenance import Justification
from repro.obs.tracing import NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "EventStream",
    "Gauge",
    "Histogram",
    "Justification",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_TRACER",
    "ObsConfig",
    "Profiler",
    "Sampler",
    "Span",
    "Tracer",
]
