"""Counterexample explainability: annotated interleaving timelines.

When the model checker (or a random-schedule ``run``) hits a
violation, the raw trace is a list of opaque ``t0@17`` transition
descriptors.  This module reconstructs that path into a
:class:`Counterexample` — one step per transition, carrying

* the executing thread and the source statement it ran,
* the *mover classification* the §5.4 inference assigned to that
  statement, and
* the theorem that justified it (Thm 3.1/3.2/5.1/5.3/5.4/5.5, reusing
  the per-site provenance chains of :mod:`repro.obs.provenance`),

so the user can see *which* step broke the ``R*;(A|ε);L*`` reduction
pattern and why the analysis could not exclude the interleaving.  This
is the presentation argued for by runtime atomicity debuggers (render
the concrete buggy interleaving) combined with the paper's
theorem-level reasoning.

Mapping runtime steps back to analysis lines is textual: exceptional
variants rewrite ``if (SC(v, e)) ...`` into ``TRUE(SC(v, e));`` /
``TRUE(!SC(v, e));``, so an executed branch is matched first by exact
line text, then by its condition appearing inside a variant line
(preferring the success branch, then theorem-bearing provenance).
Control-only transitions (loop heads, branches over procedure-local
data that the variants elided) are both-movers by Theorem 3.1 and are
annotated as such.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.cfg.graph import CFGNode, NodeKind
from repro.synl.printer import pretty_expr

from repro.obs.schemas import CEX as SCHEMA_VERSION

#: annotation used for transitions that touch no shared state
_CONTROL = ("B", "Thm 3.1: thread-local control flow")

_CONTROL_KINDS = (NodeKind.LOOP_HEAD, NodeKind.BREAK, NodeKind.CONTINUE,
                  NodeKind.ENTRY, NodeKind.EXIT)


def describe_node(node: CFGNode) -> str:
    """A compact one-line source rendering of a CFG node."""
    from repro.analysis.report import _one_line

    kind = node.kind
    if kind is NodeKind.BRANCH:
        return f"if ({pretty_expr(node.expr)}) ..."
    if kind is NodeKind.ACQUIRE:
        return f"monitor-enter ({pretty_expr(node.expr)})"
    if kind is NodeKind.RELEASE:
        return f"monitor-exit ({pretty_expr(node.expr)})"
    if kind is NodeKind.LOOP_HEAD:
        return "loop ..."
    if kind is NodeKind.BREAK:
        return "break;"
    if kind is NodeKind.CONTINUE:
        return "continue;"
    if node.stmt is not None:
        return _one_line(node.stmt)
    return kind.value


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
        """The most informative single justification, rendered."""
        chain = self.provenance
        best = next((j for j in chain
                     if j.mover == self.mover and j.theorem is not None),
                    None)
        if best is None:
            best = next((j for j in chain if j.mover == self.mover), None)
        if best is None:
            best = next((j for j in chain if j.theorem is not None), None)
        if best is None and chain:
            best = chain[0]
        return best.render() if best is not None else "no provenance"


class _ProcIndex:
    """Lookup from runtime statement text to analysis annotations for
    one procedure (across all of its exceptional variants)."""

    def __init__(self, verdict):
        from repro.analysis.report import line_provenance, variant_lines

        self.verdict = verdict
        self.lines: list[LineAnnotation] = []
        for report in verdict.variants:
            for line in variant_lines(report, "x"):
                self.lines.append(LineAnnotation(
                    report.variant.name, line.text,
                    str(line.atomicity),
                    line_provenance(report, line)))

    @property
    def body_mover(self) -> str:
        reports = self.verdict.variants
        return str(reports[0].body_atomicity) if reports else "B"

    def match(self, text: str) -> Optional[LineAnnotation]:
        for la in self.lines:
            if la.text == text:
                return la
        # branch → TRUE(...) variant-line fallback
        m = re.fullmatch(r"if \((.+)\) \.\.\.", text)
        needles = []
        if m:
            cond = m.group(1)
            needles = [f"TRUE({cond});", cond, cond.lstrip("!")]
        else:
            # last resort: shared sync sub-expressions
            needles = re.findall(r"(?:LL|SC|VL|CAS)\([^()]*(?:\([^()]*"
                                 r"\)[^()]*)*\)", text)
        for needle in needles:
            hits = [la for la in self.lines if needle in la.text]
            if not hits:
                continue
            exact = [la for la in hits if la.text == f"TRUE({needle});"]
            cited = [la for la in hits if la.theorems]
            return (exact or cited or hits)[0]
        return None


@dataclass
class CexStep:
    """One annotated transition of the violating interleaving."""

    seq: int
    tid: int
    kind: str                    # 'invoke'|'stmt'|'return'|'atomic'
    desc: str                    # raw explorer descriptor
    text: str                    # source-level rendering
    proc: Optional[str] = None
    variant: Optional[str] = None
    mover: str = "B"
    citation: str = _CONTROL[1]
    theorems: list[str] = field(default_factory=list)
    provenance: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq, "tid": self.tid, "kind": self.kind,
            "desc": self.desc, "text": self.text, "proc": self.proc,
            "variant": self.variant, "mover": self.mover,
            "citation": self.citation, "theorems": list(self.theorems),
            "provenance": [j.to_dict() for j in self.provenance],
        }


@dataclass
class Counterexample:
    """A fully annotated violating interleaving."""

    violation: str
    mode: str
    steps: list[CexStep]
    annotated: bool   # False when no analysis result was supplied
    #: lint-driven theorem downgrades carried over from the analysis
    #: (see ``AnalysisResult.downgrades``) — cited in the footer so a
    #: reader knows which mover arguments were deliberately withheld
    downgrades: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "v": SCHEMA_VERSION,
            "violation": self.violation,
            "mode": self.mode,
            "annotated": self.annotated,
            "steps": [s.to_dict() for s in self.steps],
        }
        if self.downgrades:
            out["downgrades"] = [dict(d) for d in self.downgrades]
        return out

    def render(self, max_col: int = 44) -> str:
        """Per-thread timeline: one column per thread, each step
        annotated with its mover tag and theorem citation."""
        tids = sorted({s.tid for s in self.steps})
        widths = {
            tid: min(max_col, max([len(s.text) for s in self.steps
                                   if s.tid == tid] or [4]) + 2)
            for tid in tids}
        lines = [f"counterexample: {self.violation}",
                 f"mode={self.mode}  steps={len(self.steps)}  "
                 f"threads={len(tids)}", ""]
        header = "step  " + "".join(
            f"t{tid}".ljust(widths[tid]) for tid in tids) + "  note"
        lines.append(header)
        lines.append("-" * len(header))
        for s in self.steps:
            cells = "".join(
                (s.text[:widths[tid] - 1].ljust(widths[tid])
                 if tid == s.tid else " " * widths[tid])
                for tid in tids)
            lines.append(f"{s.seq:>4}  {cells}  [{s.mover}] {s.citation}")
        lines.append("")
        lines.append(f"violation after step {self.steps[-1].seq}: "
                     f"{self.violation}" if self.steps else self.violation)
        if self.downgrades:
            lines.append("")
            lines.append("lint downgrades in effect during analysis:")
            for d in self.downgrades:
                rules = ", ".join(d.get("rules", []))
                lines.append(f"  - Thm {d['theorem']} on "
                             f"{d['region']} ({rules})")
        return "\n".join(lines)


def _annotate_stmt(step: CexStep, node: CFGNode,
                   index: Optional[_ProcIndex]) -> None:
    if node.kind in _CONTROL_KINDS:
        step.mover, step.citation = _CONTROL
        step.theorems = ["3.1"]
        return
    if index is None:
        step.mover, step.citation = "?", "no analysis available"
        return
    la = index.match(step.text)
    if la is None:
        # the variants elided this statement: it contributed no shared
        # action to any variant, so it moves freely (Thm 3.1)
        step.mover, step.citation = _CONTROL
        step.theorems = ["3.1"]
        return
    if not la.provenance:
        # matched a pure-control line (return;, skip;): both-mover
        step.mover, step.citation = la.mover, _CONTROL[1]
        step.theorems = ["3.1"]
        return
    step.variant = la.variant
    step.mover = la.mover
    step.citation = la.citation()
    step.theorems = la.theorems or ["3.1"]
    step.provenance = list(la.provenance)


def build_cex(result, interp, analysis=None) -> Counterexample:
    """Reconstruct the violating path of an
    :class:`~repro.mc.explorer.MCResult` (or a ``run`` ``path_log`` —
    anything exposing ``violation``/``mode``/``path``) into an
    annotated :class:`Counterexample`.

    ``analysis`` is the :class:`~repro.analysis.inference.AnalysisResult`
    for the *same* program; without it the timeline still renders, but
    steps carry no mover/theorem annotations.
    """
    if not result.violation:
        raise ValueError("result has no violation to explain")
    uid_map: dict[int, CFGNode] = {node.uid: node
                                   for cfg in interp.cfgs.values()
                                   for node in cfg.nodes}
    indexes: dict[str, _ProcIndex] = {}
    if analysis is not None:
        indexes = {name: _ProcIndex(verdict)
                   for name, verdict in analysis.verdicts.items()}

    steps: list[CexStep] = []
    for raw in result.path:
        kind = raw.get("kind")
        if kind == "init":
            continue
        proc = raw.get("proc")
        index = indexes.get(proc)
        step = CexStep(seq=len(steps) + 1, tid=raw["tid"], kind=kind,
                       desc=raw["desc"], text=raw["desc"], proc=proc,
                       variant=raw.get("via"))
        if kind == "invoke":
            step.text = f"call {proc}()"
            if index is not None:
                step.mover = index.body_mover
                step.citation = (
                    "procedure shown atomic (reducible, §3.3)"
                    if index.verdict.atomic else
                    "procedure NOT shown atomic — its steps interleave")
                step.theorems = sorted(
                    {t for la in index.lines for t in la.theorems})
        elif kind == "return":
            step.text = f"return from {proc}"
            step.mover, step.citation = _CONTROL
            step.theorems = ["3.1"]
        elif kind == "atomic":
            suffix = f" via {raw['via']}" if raw.get("via") else ""
            step.text = f"{proc}(){suffix} as one atomic transition"
            if index is not None:
                step.mover = index.body_mover
                step.citation = ("whole invocation is one transition "
                                 "(Thm 4.1/5.2 reduction)")
                step.theorems = sorted(
                    {t for la in index.lines for t in la.theorems})
        else:  # stmt
            node = uid_map.get(raw.get("uid"))
            if node is not None:
                step.text = describe_node(node)
                _annotate_stmt(step, node, index)
            else:
                step.mover, step.citation = "?", "unknown CFG node"
        steps.append(step)
    return Counterexample(violation=result.violation,
                          mode=getattr(result, "mode", "run"),
                          steps=steps, annotated=analysis is not None,
                          downgrades=[dict(d) for d in
                                      getattr(analysis, "downgrades",
                                              None) or []])


@dataclass
class RunResultView:
    """Adapter giving a random-schedule ``run`` the same face as an
    :class:`~repro.mc.explorer.MCResult` for :func:`build_cex`."""

    violation: str
    path: list[dict]
    mode: str = "run"
