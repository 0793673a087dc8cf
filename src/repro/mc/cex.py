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

Runtime steps map back to analysis lines through the position join of
:func:`repro.analysis.report.statement_join`: a step's statement takes
the innermost report line that covers its source position — its own
line, or the composite ``if``/``loop``/``synchronized`` line around
it.  Exceptional variants clone statements with their positions, so a
branch the variants rewrote into ``TRUE(SC(v, e));`` still finds that
line.  Control-only transitions (loop heads, ``break``) and statements
no variant line covers (the variants elided them) are both-movers by
Theorem 3.1 and are annotated as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.report import ProcJoin, statement_join
from repro.cfg.graph import CONTROL_KINDS, CFGNode, NodeKind
from repro.synl.printer import pretty_expr, stmt_head

from repro.obs.schemas import CEX as SCHEMA_VERSION

#: annotation used for transitions that touch no shared state
_CONTROL = ("B", "Thm 3.1: thread-local control flow")


def describe_node(node: CFGNode) -> str:
    """A compact one-line source rendering of a CFG node."""
    kind = node.kind
    if kind is NodeKind.ACQUIRE:
        return f"monitor-enter ({pretty_expr(node.expr)})"
    if kind is NodeKind.RELEASE:
        return f"monitor-exit ({pretty_expr(node.expr)})"
    if kind is NodeKind.BRANCH or kind is NodeKind.LOOP_HEAD:
        return f"{stmt_head(node.stmt)} ..."
    if node.stmt is not None:
        return stmt_head(node.stmt)
    return kind.value


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
                   proc_join: Optional[ProcJoin]) -> None:
    if node.kind in CONTROL_KINDS:
        step.mover, step.citation = _CONTROL
        step.theorems = ["3.1"]
        return
    if proc_join is None:
        step.mover, step.citation = "?", "no analysis available"
        return
    la = proc_join.line_of(node)
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


def build_cex(result, interp, analysis=None,
              join: Optional[dict[str, ProcJoin]] = None) -> Counterexample:
    """Reconstruct the violating path of an
    :class:`~repro.mc.explorer.MCResult` (or a ``run`` ``path_log`` —
    anything exposing ``violation``/``mode``/``path``) into an
    annotated :class:`Counterexample`.

    ``analysis`` is the :class:`~repro.analysis.inference.AnalysisResult`
    for the *same* program; without it the timeline still renders, but
    steps carry no mover/theorem annotations.  ``join`` is its
    :func:`~repro.analysis.report.statement_join`, built here when the
    caller has none to share.
    """
    if not result.violation:
        raise ValueError("result has no violation to explain")
    uid_map: dict[int, CFGNode] = {node.uid: node
                                   for cfg in interp.cfgs.values()
                                   for node in cfg.nodes}
    if join is None:
        join = statement_join(analysis) if analysis is not None else {}

    steps: list[CexStep] = []
    for raw in result.path:
        kind = raw.get("kind")
        if kind == "init":
            continue
        proc = raw.get("proc")
        proc_join = join.get(proc)
        step = CexStep(seq=len(steps) + 1, tid=raw["tid"], kind=kind,
                       desc=raw["desc"], text=raw["desc"], proc=proc,
                       variant=raw.get("via"))
        if kind == "invoke":
            step.text = f"call {proc}()"
            if proc_join is not None:
                step.mover = proc_join.body_mover
                step.citation = (
                    "procedure shown atomic (reducible, §3.3)"
                    if proc_join.verdict.atomic else
                    "procedure NOT shown atomic — its steps interleave")
                step.theorems = list(proc_join.theorems)
        elif kind == "return":
            step.text = f"return from {proc}"
            step.mover, step.citation = _CONTROL
            step.theorems = ["3.1"]
        elif kind == "atomic":
            suffix = f" via {raw['via']}" if raw.get("via") else ""
            step.text = f"{proc}(){suffix} as one atomic transition"
            if proc_join is not None:
                step.mover = proc_join.body_mover
                step.citation = ("whole invocation is one transition "
                                 "(Thm 4.1/5.2 reduction)")
                step.theorems = list(proc_join.theorems)
        else:  # stmt
            node = uid_map.get(raw.get("uid"))
            if node is not None:
                step.text = describe_node(node)
                _annotate_stmt(step, node, proc_join)
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
