"""Structured observability for the analysis pipeline (zero-dep).

One package, several concerns.  Counts need no module of their own:
they are plain ``{name: value}`` dicts on the results
(``AnalysisResult.metrics``, ``MCResult.metrics``, ``lint_counts``).

* :mod:`repro.obs.provenance` — per-action justification chains naming
  the theorem (5.1/5.3/5.4/5.5, …) behind every mover classification;
* :mod:`repro.obs.events` — a schema-versioned, bounded structured
  event stream (ring buffer + optional JSONL sink) fed by the model
  checker, the scheduler, and the dynamic checker;
* :mod:`repro.obs.chrometrace` — span-tree + event-stream export in
  Chrome trace-event format (``--trace-out``, loadable in Perfetto);
* :mod:`repro.obs.profile` — the one scoped timer: profiler regions
  around the §5.4 pipeline steps, the lint checkers and the model
  checker's DFS phases, read as a span tree (``--trace``), ranked
  deterministic work counters (``--profile``) and collapsed stacks
  (``--profile-out``);
* :mod:`repro.obs.perfdiff` — differential profiling over profiles
  and ``bench/run.py --traced`` records (``repro perf diff``);
* :mod:`repro.obs.report_html` — the ``repro report`` self-contained
  HTML artifact (trace + metrics + hotspots + coverage + lint + perf
  forensics).

A command's ``--json`` document is the one record of what it
concluded.  :mod:`repro.obs.export` serializes analysis/model-checking
results against small self-validated JSON schemas;
:mod:`repro.obs.config` reads the ``REPRO_TRACE`` / ``REPRO_METRICS``
/ ``REPRO_PROFILE`` environment switches.

``export`` is imported lazily (it reaches back into
:mod:`repro.analysis`); everything else here is import-cycle-free.
"""

from repro.obs.config import ObsConfig
from repro.obs.events import EventStream
from repro.obs.profile import NULL_PROFILER, Profiler, Span
from repro.obs.provenance import Justification

__all__ = [
    "EventStream",
    "Justification",
    "NULL_PROFILER",
    "ObsConfig",
    "Profiler",
    "Span",
]
