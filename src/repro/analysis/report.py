"""Per-line atomicity reports in the style of Figure 3 of the paper.

Each exceptional variant is flattened into *lines*: the binding part of a
``local`` block, each simple statement, and compound statements
(``if``/``loop``/``synchronized``) as single composite lines.  Every line
gets a label (``a1``, ``a2``, … with one letter per variant) and the
atomicity type the inference assigned, e.g.::

    a4:R    local t = LL(Tail) in
    a5:R      local next = LL(t.Next) in
    a6:B        TRUE(VL(Tail));
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis import atomicity as AT
from repro.analysis.atomicity import Atomicity
from repro.analysis.inference import (AnalysisResult, ProcVerdict,
                                      VariantReport)
from repro.cfg.graph import CFGNode
from repro.errors import SourcePos
from repro.synl import ast as A
from repro.synl.printer import stmt_head


@dataclass
class ReportLine:
    label: str
    depth: int
    text: str
    atomicity: Atomicity
    stmt: A.Stmt

    def render(self) -> str:
        return f"{self.label}:{self.atomicity}  " \
               f"{'  ' * self.depth}{self.text}"


def _line_text(s: A.Stmt) -> str:
    """A statement's report line: the printer's first line, with `` ...``
    standing for the body of a composite statement."""
    head = stmt_head(s)
    if isinstance(s, (A.If, A.Loop, A.Synchronized)):
        return f"{head} ..."
    return head


def variant_lines(report: VariantReport, prefix: str) -> list[ReportLine]:
    """Flatten a variant into labelled report lines."""
    ctx = report.ctx
    lines: list[ReportLine] = []
    counter = [0]

    def label() -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def visit(s: A.Stmt, depth: int) -> None:
        if isinstance(s, A.Block):
            for sub in s.stmts:
                visit(sub, depth)
            return
        if isinstance(s, A.LocalDecl):
            # the binding line: the atomicity of the bind node alone
            bind_nodes = ctx.stmt_nodes.get(s.nid)
            atom = ctx.node_atom(bind_nodes[0]) if bind_nodes else AT.B
            lines.append(ReportLine(label(), depth, _line_text(s), atom, s))
            visit(s.body, depth + 1)
            return
        # simple statements, and composite statements as single lines:
        # their atomicity from the step-6 propagation
        atom = report.stmt_atoms.get(s.nid, AT.B)
        lines.append(ReportLine(label(), depth, _line_text(s), atom, s))

    visit(report.variant.proc.body, 0)
    return lines


def _covered(stmt: A.Stmt, depth: int = 0
             ) -> Iterator[tuple[A.Stmt, int]]:
    """The statements the report line of ``stmt`` accounts for, each
    with its nesting depth below the line: the statement alone for a
    simple statement or a ``local`` binding, the whole statement
    subtree for a composite ``if``/``loop``/``synchronized`` line."""
    yield stmt, depth
    if depth or isinstance(stmt, (A.If, A.Loop, A.Synchronized)):
        for sub in stmt.children():
            if isinstance(sub, A.Stmt):
                yield from _covered(sub, depth + 1)


def _line_nodes(report: VariantReport, line: ReportLine) -> list[CFGNode]:
    """The CFG nodes whose actions a report line accounts for, so a
    composite line loses no provenance of its subtree."""
    stmt_nodes = report.ctx.stmt_nodes
    return [n for s, _ in _covered(line.stmt)
            for n in stmt_nodes.get(s.nid, ())]


def line_sites(report: VariantReport, line: ReportLine):
    """The classified sites behind a report line, in site order."""
    nodes = set(_line_nodes(report, line))
    return [s for s in report.ctx.sites if s.node in nodes]


def line_provenance(report: VariantReport, line: ReportLine) -> list:
    """Flattened justification chain for a report line."""
    out = []
    for site in line_sites(report, line):
        out.extend(site.provenance)
    return out


def _explain_lines(report: VariantReport, line: ReportLine,
                   indent: str) -> list[str]:
    out = []
    for site in line_sites(report, line):
        for j in site.provenance:
            out.append(f"{indent}- {site.action!r}: {j.render()}")
    return out


def render_variant(report: VariantReport, prefix: str,
                   explain: bool = False) -> str:
    header = (f"proc {report.variant.name}"
              f"({', '.join(report.variant.proc.params)})"
              f"    [atomicity: {report.body_atomicity}]")
    chunks = [header]
    for line in variant_lines(report, prefix):
        chunks.append(line.render())
        if explain:
            chunks.extend(_explain_lines(report, line, " " * 8))
    return "\n".join(chunks)


def render_figure(result: AnalysisResult,
                  proc_order: list[str] | None = None,
                  explain: bool = False) -> str:
    """Render all variants of all procedures, Figure-3 style.  With
    ``explain``, each line is followed by its classification
    provenance (one indented bullet per rule firing)."""
    order = proc_order or [p.name for p in result.program.procs]
    prefixes = iter(string.ascii_lowercase)
    chunks: list[str] = []
    for name in order:
        verdict = result.verdicts[name]
        for report in verdict.variants:
            prefix = next(prefixes, "z")
            chunks.append(render_variant(report, prefix, explain))
    return "\n\n".join(chunks)


def line_atomicities(result: AnalysisResult,
                     variant_name: str) -> list[tuple[str, str]]:
    """(text, atomicity-letter) pairs for one variant — handy for the
    Fig. 3 golden tests."""
    for verdict in result.verdicts.values():
        for report in verdict.variants:
            if report.variant.name == variant_name:
                return [(line.text, str(line.atomicity))
                        for line in variant_lines(report, "x")]
    raise KeyError(variant_name)


@dataclass
class LineAnnotation:
    """One analysis report line: its mover type and provenance."""

    variant: str
    text: str
    mover: str
    provenance: list = field(default_factory=list)

    @property
    def theorems(self) -> list[str]:
        """Every theorem cited anywhere in the provenance chain,
        including the per-theorem tallies of step-4 aggregates."""
        out = set()
        for j in self.provenance:
            if j.theorem is not None:
                out.add(j.theorem)
            out.update(t for t in j.counts if t[:1].isdigit())
        return sorted(out)

    def citation(self) -> str:
        """The most informative justification of the line's own mover,
        rendered.  When no justification has that mover, the line's
        type was composed (§3.3) from the types of its statements, as
        for a composite ``if``/``loop``/``synchronized`` line, and the
        citation names the composition: it never shows another mover
        as the line's."""
        chain = self.provenance
        mine = [j for j in chain if j.mover == self.mover]
        best = next((j for j in mine if j.theorem is not None),
                    mine[0] if mine else None)
        if best is not None:
            return best.render()
        if not chain:
            return "no provenance"
        parts = ", ".join(sorted({j.mover for j in chain if j.mover}))
        return f"{self.mover} by §3.3 composition of {parts}"


@dataclass
class ProcJoin:
    """One procedure's report lines, keyed by the source positions of
    the statements they cover."""

    verdict: ProcVerdict
    body_mover: str
    #: every theorem any line of any variant cites, sorted
    theorems: list[str]
    #: statement position -> the innermost line covering it; among
    #: lines of several variants at one depth, the first in report order
    lines: dict[SourcePos, LineAnnotation]

    def line_of(self, node: CFGNode) -> LineAnnotation | None:
        """The line covering a runtime node's statement, or None when
        no variant line covers it (the variants elided it)."""
        return self.lines.get(node.stmt.pos)


def statement_join(result: AnalysisResult) -> dict[str, ProcJoin]:
    """Join every procedure's report lines (across all of its
    variants) to the statement source positions they cover.  A runtime
    CFG node of the procedure finds its line by its statement's
    position: variants clone statements with their positions, so the
    join is exact and needs no text comparison."""
    out: dict[str, ProcJoin] = {}
    for name, verdict in result.verdicts.items():
        lines: dict[SourcePos, LineAnnotation] = {}
        depths: dict[SourcePos, int] = {}
        theorems: set[str] = set()
        for report in verdict.variants:
            for line in variant_lines(report, "x"):
                la = LineAnnotation(report.variant.name, line.text,
                                    str(line.atomicity),
                                    line_provenance(report, line))
                theorems.update(la.theorems)
                for stmt, depth in _covered(line.stmt):
                    pos = stmt.pos
                    if pos is not None and depth < depths.get(pos, depth + 1):
                        depths[pos] = depth
                        lines[pos] = la
        reports = verdict.variants
        out[name] = ProcJoin(
            verdict, str(reports[0].body_atomicity) if reports else "B",
            sorted(theorems), lines)
    return out
