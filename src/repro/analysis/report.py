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
from dataclasses import dataclass

from repro.analysis import atomicity as AT
from repro.analysis.atomicity import Atomicity
from repro.analysis.inference import AnalysisResult, VariantReport
from repro.cfg.graph import CFGNode, NodeKind
from repro.synl import ast as A
from repro.synl.printer import pretty_expr


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


def _one_line(s: A.Stmt) -> str:
    """A compact single-line rendering of a statement."""
    if isinstance(s, A.Assign):
        return f"{pretty_expr(s.target)} = {pretty_expr(s.value)};"
    if isinstance(s, A.Assume):
        return f"TRUE({pretty_expr(s.cond)});"
    if isinstance(s, A.AssertStmt):
        return f"assert({pretty_expr(s.cond)});"
    if isinstance(s, A.ExprStmt):
        return f"{pretty_expr(s.expr)};"
    if isinstance(s, A.Return):
        return f"return {pretty_expr(s.value)};" if s.value is not None \
            else "return;"
    if isinstance(s, A.Break):
        return f"break {s.label};" if s.label else "break;"
    if isinstance(s, A.Continue):
        return f"continue {s.label};" if s.label else "continue;"
    if isinstance(s, A.Skip):
        return "skip;"
    if isinstance(s, A.LocalDecl):
        return f"local {s.name} = {pretty_expr(s.init)} in"
    if isinstance(s, A.If):
        return f"if ({pretty_expr(s.cond)}) ..."
    if isinstance(s, A.Loop):
        return f"{s.label}: loop ..." if s.label else "loop ..."
    if isinstance(s, A.Synchronized):
        return f"synchronized ({pretty_expr(s.lock)}) ..."
    if isinstance(s, A.Block):
        return "{ ... }"
    raise TypeError(type(s).__name__)


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
            bind_nodes = [n for n in ctx.stmt_nodes.get(s.nid, [])
                          if n.kind is NodeKind.BIND]
            atom = ctx.node_atom(bind_nodes[0]) if bind_nodes else AT.B
            lines.append(ReportLine(label(), depth, _one_line(s), atom, s))
            visit(s.body, depth + 1)
            return
        # simple statements, and composite statements as single lines:
        # their atomicity from the step-6 propagation
        atom = report.stmt_atoms.get(s.nid, AT.B)
        lines.append(ReportLine(label(), depth, _one_line(s), atom, s))

    visit(report.variant.proc.body, 0)
    return lines


def _line_nodes(report: VariantReport, line: ReportLine) -> list[CFGNode]:
    """The CFG nodes whose actions a report line accounts for —
    mirrors the node selection of :func:`variant_lines`, except that
    composite lines (rendered as ``if (...) ...``) cover their whole
    statement subtree so no provenance is lost."""
    ctx = report.ctx
    s = line.stmt
    if isinstance(s, A.LocalDecl):
        return [n for n in ctx.stmt_nodes.get(s.nid, [])
                if n.kind is NodeKind.BIND]
    if isinstance(s, (A.If, A.Loop, A.Synchronized)):
        nids = {x.nid for x in s.walk() if isinstance(x, A.Stmt)}
        return [n for nid in sorted(nids)
                for n in ctx.stmt_nodes.get(nid, [])]
    return ctx.stmt_nodes.get(s.nid, [])


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
