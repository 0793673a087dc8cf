"""Structured observability for the analysis pipeline (zero-dep).

One package, several concerns.  Counts need no module of their own:
they are plain ``{name: value}`` dicts on the results
(``AnalysisResult.metrics``, ``MCResult.metrics``, ``lint_counts``).

* :mod:`repro.obs.provenance` — per-action justification chains naming
  the theorem (5.1/5.3/5.4/5.5, …) behind every mover classification;
* :mod:`repro.obs.profile` — the one scoped timer: profiler regions
  around the §5.4 pipeline steps, the lint checkers and the model
  checker's DFS phases, read as a span tree (``--trace``) and as
  ranked deterministic work counters with collapsed stacks
  (``--profile``);
* :mod:`repro.obs.perfdiff` — differential profiling over
  ``bench/run.py --traced`` records (``repro perf diff``).

A command's ``--json`` document is the one record of a run: with
``--trace`` it carries the span tree and with ``--profile`` the
profile document, and no command writes a side file beside it.
:mod:`repro.obs.export` serializes analysis/model-checking results
against small self-validated JSON schemas and holds the one JSONL
reader.

``export`` is imported lazily (it reaches back into
:mod:`repro.analysis`); everything else here is import-cycle-free.
"""

from repro.obs.profile import NULL_PROFILER, Profiler, Span
from repro.obs.provenance import Justification

__all__ = [
    "Justification",
    "NULL_PROFILER",
    "Profiler",
    "Span",
]
