"""Lockset-style static race pass over non-LL/SC shared accesses.

Eraser's discipline, statically: every shared region outside the
LL/SC/VL/CAS regime must have a *common lock* held at all of its
accesses (``analysis.locks`` supplies the must-held locksets,
``analysis.escape`` and ``analysis.uniqueness`` exempt provably
thread-private data).  Regions with any synchronized access are the
business of the llsc/aba families, not this pass; regions written
only during ``init``/``threadinit`` never reach it because the
linter only scans procedure CFGs.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.lint.core import (LintContext, Severity, checker,
                                      declare, region_key, region_label)
from repro.cfg.graph import CFGNode, NodeKind
from repro.synl import ast as A

declare(
    "race.unlocked", Severity.ERROR,
    "a shared region outside the LL/SC regime is written with no "
    "common lock across its accesses",
    theorem="§5.4 (lock-based movers)",
    fix="guard every access with a common synchronized lock, or "
        "route updates through LL/SC or a versioned CAS")


@checker
def race_pass(ctx: LintContext) -> None:
    # lock regions (acquire targets) read/written as part of locking
    lock_keys = {region_key(a.target)
                 for _p, _c, _n, a in ctx.actions()
                 if a.op == "acquire" and a.target is not None}
    sync_keys = ctx.llsc_regions | ctx.cas_regions

    accesses: list[tuple[str, CFGNode, str, object]] = []
    for proc, cfg, node, action in ctx.actions():
        if node.kind in (NodeKind.ACQUIRE, NodeKind.RELEASE):
            continue
        if isinstance(node.stmt, A.AssertStmt):
            continue  # specification-only reads
        if action.op not in ("read", "write") or action.via != "plain":
            continue
        target = action.target
        if target is None or target.kind == "var":
            continue
        key = region_key(target)
        if key in sync_keys or key in lock_keys:
            continue
        if ctx.is_private(proc, node, target):
            continue
        accesses.append((proc, node, action.op, target))

    # group accesses by may-alias on their targets (greedy, with a
    # representative per group — may_alias is symmetric and, at the
    # class-set granularity the corpus uses, effectively transitive)
    groups: list[tuple[object, list[tuple[str, CFGNode, str, object]]]] = []
    for acc in accesses:
        target = acc[3]
        for rep, members in groups:
            if ctx.facts.alias.may_alias(rep, target):
                members.append(acc)
                break
        else:
            groups.append((target, [acc]))

    for rep, members in groups:
        writes = [m for m in members if m[2] == "write"]
        if not writes:
            continue  # read-only regions race benignly
        candidate: Optional[list] = None
        for proc, node, _op, _target in members:
            held = ctx.facts.lockset(proc).held_at(node)
            if candidate is None:
                candidate = list(held)
            else:
                candidate = [l for l in candidate
                             if any(ctx.facts.alias.must_alias(l, h)
                                    for h in held)]
            if not candidate:
                break
        if candidate:
            continue  # a common lock protects the region
        anchor_proc, anchor_node, _op, anchor_target = min(
            writes, key=lambda m: (m[0], m[1].stmt.pos.line
                                   if m[1].stmt is not None
                                   and m[1].stmt.pos is not None
                                   else 0))
        procs = sorted({m[0] for m in members})
        ctx.report(
            "race.unlocked",
            f"shared region {region_label(anchor_target)} is written "
            f"with no common lock and no LL/SC/CAS discipline "
            f"({len(members)} access(es), {len(writes)} write(s) "
            f"across {', '.join(procs)})",
            proc=anchor_proc, node=anchor_node, target=anchor_target)
