"""Summary-based incremental atomicity analysis.

The §5.4 pipeline is modular in spirit — purity, mover classification
and the atomicity verdicts (Thms 5.3/5.4) are derived per procedure —
but :func:`repro.analysis.inference.analyze_program` recomputes every
pass from scratch.  This package layers a content-addressed summary
cache over the existing passes:

* :mod:`repro.analysis.summaries.canon` — canonical (rename-tolerant)
  procedure hashes, the pre-inline call graph, shared-region
  footprints and the dependency digests that decide invalidation;
* :mod:`repro.analysis.summaries.store` — the schema-versioned
  content-addressed record store;
* :mod:`repro.analysis.summaries.engine` — the resolution phase:
  cache hit → replay the stored verdicts (``cached: true``), miss →
  run the passes and emit fresh summaries.

See docs/ANALYSIS.md ("Incremental analysis & summaries").
"""

from repro.analysis.summaries.canon import (  # noqa: F401
    call_graph,
    callee_closure,
    decl_digest,
    dependency_digests,
    effective_hashes,
    proc_content_hash,
    shared_footprint,
    suppression_slice,
)
from repro.analysis.summaries.engine import (  # noqa: F401
    CachedAnalysisResult,
    analyze_corpus,
    analyze_with_summaries,
    corpus_targets,
    resolve_store,
    summary_counts,
    summary_row,
    verify_store,
    warm_canary,
)
from repro.analysis.summaries.store import (  # noqa: F401
    SCHEMA_VERSION,
    SummaryStore,
)
