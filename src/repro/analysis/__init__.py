"""The paper's static atomicity analysis (§3.3–§5.4) and its substrates."""

from repro.analysis.atomicity import (Atomicity, iter_closure, join, meet,
                                      parse_atomicity, seq, seq_all)
from repro.analysis.blocks import (BlockPartition, partition_lines,
                                   partition_procedure)
from repro.analysis.inference import (AnalysisResult, AtomicityChecker,
                                      InferenceOptions, analyze_program)
from repro.analysis.purity import PurityAnalysis, PurityInfo, pure_loops
from repro.analysis.report import (line_atomicities, line_provenance,
                                   line_sites, render_figure,
                                   render_variant, variant_lines)
from repro.analysis.variants import Variant, VariantSet, make_variants

__all__ = [
    "Atomicity",
    "join",
    "meet",
    "seq",
    "seq_all",
    "iter_closure",
    "parse_atomicity",
    "AnalysisResult",
    "AtomicityChecker",
    "InferenceOptions",
    "analyze_program",
    "PurityAnalysis",
    "PurityInfo",
    "pure_loops",
    "Variant",
    "VariantSet",
    "make_variants",
    "BlockPartition",
    "partition_lines",
    "partition_procedure",
    "render_figure",
    "render_variant",
    "variant_lines",
    "line_atomicities",
    "line_provenance",
    "line_sites",
]
