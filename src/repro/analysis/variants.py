"""Exceptional variants of procedures (§5.2).

Each variant is "a specialized version of the procedure ... with each
pure loop replaced by its selected exceptional slice"; non-pure loops
appear unchanged.  Theorem 5.2: if all exceptional variants of a
procedure are atomic, the procedure is atomic.

Variant generation produces a fresh, fully re-resolved
:class:`~repro.synl.ast.Program` whose procedures are the variants (one
per selection of exceptional slices across the procedure's *outermost*
pure loops, times the SC success-split of
:func:`repro.analysis.slices.split_bare_sc`).  Pure loops nested inside
other pure loops are left inside their parent's slices (their atomicity
is then computed via the iterative closure, which is conservative).
An expansion that would change nothing returns the input program as
its own variant program, so its facts can be reused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.purity import PurityInfo
from repro.analysis.slices import exceptional_slice, split_bare_sc
from repro.cfg.graph import CFGNode, ProcCFG
from repro.synl import ast as A
from repro.synl.resolve import resolve


@dataclass
class Variant:
    """One exceptional variant of one procedure."""

    name: str                 #: variant procedure name (e.g. ``DeqP2``)
    source: str               #: original procedure name
    proc: A.Procedure         #: the variant as a fresh Procedure AST
    #: which exceptional exit was selected per sliced loop (loop nid ->
    #: human-readable exit description)
    exits: dict[int, str] = field(default_factory=dict)


@dataclass
class VariantSet:
    """All exceptional variants of a program, as a resolved program."""

    program: A.Program                      #: the variant program
    variants: list[Variant]
    by_source: dict[str, list[Variant]] = field(default_factory=dict)
    #: pure loops this expansion replaced by their slices (0: a further
    #: expansion would change nothing)
    sliced: int = 0

    def of(self, source: str) -> list[Variant]:
        return self.by_source.get(source, [])


def _exit_label(node: CFGNode) -> str:
    stmt = node.stmt
    if isinstance(stmt, A.Return):
        if stmt.value is None:
            return "return"
        from repro.synl.printer import pretty_expr

        return f"return {pretty_expr(stmt.value)}"
    if isinstance(stmt, A.Break):
        return f"break {stmt.label}" if stmt.label else "break"
    return "exit"


class _ProcExpander:
    def __init__(self, cfg: ProcCFG, purity: dict[A.Loop, PurityInfo],
                 labels: Iterator[str]):
        self.cfg = cfg
        self.purity = purity
        self.labels = labels  # for the slices' residual exit loops
        self.sliced = 0       # pure loops replaced by their slices

    def _is_pure(self, loop: A.Loop) -> bool:
        info = self.purity.get(loop)
        return info is not None and info.pure

    def _slices(self, s: A.Stmt) -> bool:
        """Does expanding ``s`` slice a loop?  Every pure loop it
        reaches is sliced, or a pure loop inside it is; a non-pure loop
        is kept verbatim, with the pure loops inside it."""
        if isinstance(s, A.Loop):
            return self._is_pure(s)
        return any(self._slices(c) for c in s.children()
                   if isinstance(c, A.Stmt))

    def expand_stmt(self, s: A.Stmt) -> list[tuple[list[A.Stmt], dict, bool]]:
        """Return alternatives as (stmts, exit-selection, terminated)."""
        if isinstance(s, A.Block):
            results: list[tuple[list[A.Stmt], dict, bool]] = [([], {}, False)]
            for sub in s.stmts:
                if all(terminated for _s, _sel, terminated in results):
                    break
                subs = self.expand_stmt(sub)
                new_results = []
                for stmts, sel, terminated in results:
                    if terminated:
                        new_results.append((stmts, sel, True))
                        continue
                    for sub_stmts, sub_sel, sub_term in subs:
                        new_results.append(
                            (stmts + sub_stmts, {**sel, **sub_sel},
                             sub_term))
                results = new_results
            return results

        if isinstance(s, A.Loop) and self._is_pure(s):
            if self._slices(s.body):
                # slice innermost pure loops first: keep this loop for a
                # later expansion round (the checker iterates to a
                # fixpoint) and expand only its body now
                out = []
                for body, sel, _term in self.expand_stmt(s.body):
                    loop = A.Loop(A.Block(body).at(s.pos), s.label)
                    loop.at(s.pos)
                    out.append(([loop], sel, False))
                return out
            info = self.cfg.loop_info(s)
            self.sliced += 1
            alternatives = []
            for exit_node in info.exceptional_exits:
                slice_stmts = exceptional_slice(self.cfg, info, exit_node,
                                                self.labels)
                terminated = isinstance(exit_node.stmt, A.Return)
                for split in split_bare_sc(slice_stmts):
                    alternatives.append(
                        (split, {s.nid: _exit_label(exit_node)},
                         terminated))
            return alternatives

        if isinstance(s, A.LocalDecl):
            out = []
            for body, sel, term in self.expand_stmt(s.body):
                decl = A.LocalDecl(s.name, s.init.clone(),
                                   A.Block(body).at(s.pos))
                decl.at(s.pos)
                out.append(([decl], sel, term))
            return out

        if isinstance(s, A.If):
            thens = self.expand_stmt(s.then)
            elses = self.expand_stmt(s.els) if s.els is not None \
                else [(None, {}, False)]
            out = []
            for tstmts, tsel, tterm in thens:
                for estmts, esel, eterm in elses:
                    node = A.If(
                        s.cond.clone(), A.Block(tstmts).at(s.pos),
                        A.Block(estmts).at(s.pos)
                        if estmts is not None else None)
                    node.at(s.pos)
                    out.append(([node], {**tsel, **esel},
                                tterm and (estmts is not None and eterm)))
            return out

        if isinstance(s, A.Synchronized):
            out = []
            for body, sel, term in self.expand_stmt(s.body):
                sync = A.Synchronized(s.lock.clone(),
                                      A.Block(body).at(s.pos))
                sync.at(s.pos)
                out.append(([sync], sel, term))
            return out

        if isinstance(s, A.Loop):
            # non-pure loop: kept unchanged (§5.2); nested pure loops
            # inside it are also kept (conservative)
            return [([s.clone()], {}, False)]

        terminated = isinstance(s, (A.Return,))
        return [([s.clone()], {}, terminated)]


def make_variants(program: A.Program,
                  cfgs: dict[str, ProcCFG],
                  purity: dict[str, dict[A.Loop, PurityInfo]]) -> VariantSet:
    """Build the variant program: every procedure replaced by its
    exceptional variants, cloned and freshly resolved.  When that
    changes nothing (no loop sliced, so no bare SC split and one
    alternative per procedure, and no statement after a ``return``
    dropped), the variant program is ``program`` itself and each
    variant its procedure."""
    labels = map("__slice_{}".format, itertools.count(1))
    sliced = 0
    expanded: list[tuple[A.Procedure, list]] = []
    for proc in program.procs:
        expander = _ProcExpander(cfgs[proc.name], purity.get(proc.name, {}),
                                 labels)
        expanded.append((proc, expander.expand_stmt(proc.body)))
        sliced += expander.sliced
    if not sliced and all(A.Block(alts[0][0]).key() == proc.body.key()
                          for proc, alts in expanded):
        same = [Variant(p.name, p.name, p) for p in program.procs]
        return VariantSet(program, same, {v.source: [v] for v in same})

    variants: list[Variant] = []
    by_source: dict[str, list[Variant]] = {}
    procs: list[A.Procedure] = []
    for proc, alternatives in expanded:
        named: list[Variant] = []
        multiple = len(alternatives) > 1
        for i, (stmts, sel, _term) in enumerate(alternatives, start=1):
            if i > 1:
                # alternatives share the statements around each split
                # (here and in split_bare_sc); CFG nodes and the
                # resolver's decorations live on statement objects, so
                # every variant after the first takes its own copy
                stmts = [x.clone() for x in stmts]
            name = f"{proc.name}{i}" if multiple else proc.name
            vproc = A.Procedure(name, list(proc.params),
                                A.Block(stmts).at(proc.body.pos))
            vproc.at(proc.pos)
            variant = Variant(name=name, source=proc.name, proc=vproc,
                              exits=sel)
            named.append(variant)
            procs.append(vproc)
        variants.extend(named)
        by_source[proc.name] = named

    vprogram = A.Program(
        globals=[d.clone() for d in program.globals],
        threadlocals=[d.clone() for d in program.threadlocals],
        consts=[c.clone() for c in program.consts],
        classes=[c.clone() for c in program.classes],
        procs=procs,
        init=program.init.clone() if program.init is not None else None,
        threadinit=program.threadinit.clone()
        if program.threadinit is not None else None,
    )
    resolve(vprogram)
    return VariantSet(vprogram, variants, by_source, sliced)
