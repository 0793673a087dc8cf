"""Atomic-block partitioning (§6.4).

When a procedure is not atomic as a whole, the analysis still shows that
many code blocks are atomic, which "can significantly reduce the number
of states considered during subsequent analysis and verification".  We
partition the flattened line sequence of each variant greedily: extend
the current block while the sequential composition of its lines stays
reducible (≠ N); start a new block otherwise.  Greedy left-to-right is
optimal for this objective: the reducible-prefix predicate is monotone
(every prefix of a reducible sequence is reducible), so cutting as late
as possible never increases the number of blocks.

The paper's headline (§6.4): Michael's lock-free allocator, 74 lines of
pseudocode, partitions into 15 atomic blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import atomicity as AT
from repro.analysis.atomicity import Atomicity
from repro.analysis.inference import AnalysisResult
from repro.analysis.report import ReportLine, variant_lines


@dataclass
class AtomicBlock:
    lines: list[ReportLine]
    atomicity: Atomicity

    @property
    def size(self) -> int:
        return len(self.lines)


@dataclass
class BlockPartition:
    variant_name: str
    blocks: list[AtomicBlock] = field(default_factory=list)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_lines(self) -> int:
        return sum(b.size for b in self.blocks)

    def render(self) -> str:
        out = [f"{self.variant_name}: {self.n_lines} lines -> "
               f"{self.n_blocks} atomic blocks"]
        for i, block in enumerate(self.blocks, 1):
            out.append(f"  block {i} [{block.atomicity}]:")
            for line in block.lines:
                out.append("    " + line.render())
        return "\n".join(out)


def partition_lines(lines: list[ReportLine],
                    variant_name: str = "") -> BlockPartition:
    """Greedy maximal-block partition of a line sequence."""
    partition = BlockPartition(variant_name)
    current: list[ReportLine] = []
    acc = Atomicity.B
    for line in lines:
        composed = AT.seq(acc, line.atomicity)
        if composed is Atomicity.N and current:
            partition.blocks.append(AtomicBlock(current, acc))
            current = [line]
            acc = line.atomicity
        else:
            current.append(line)
            acc = composed
    if current:
        partition.blocks.append(AtomicBlock(current, acc))
    return partition


def partition_procedure(result: AnalysisResult,
                        proc_name: str) -> list[BlockPartition]:
    """Partition every exceptional variant of a procedure into maximal
    atomic blocks."""
    verdict = result.verdicts[proc_name]
    out = []
    for report in verdict.variants:
        lines = variant_lines(report, "x")
        out.append(partition_lines(lines, report.variant.name))
    return out

