"""LL/SC/VL well-formedness, ABA-discipline, and working-copy rules.

Each checker walks the per-procedure CFGs of the original program (the
linter runs *before* variant generation — diagnostics point at source
the user wrote, not at synthesized exceptional variants) and reports
through :meth:`~repro.analysis.lint.core.LintContext.report`.
"""

from __future__ import annotations

from repro.analysis.actions import node_actions
from repro.analysis.lint.core import (LintContext, Severity, checker,
                                      declare, pretty_target, region_key)
from repro.analysis.matching import matching_lls_search, matching_reads
from repro.analysis.purity import target_region
from repro.analysis.typing import versioned
from repro.cfg.graph import CFGNode, ProcCFG
from repro.synl import ast as A

# -- rule declarations ---------------------------------------------------------

declare(
    "llsc.multi-ll", Severity.ERROR,
    "an SC/VL has more than one matching LL",
    theorem="§5.2 / Thm 5.3",
    fix="restructure the retry loop so every path to the SC/VL passes "
        "through a single LL on the region")
declare(
    "llsc.no-ll", Severity.WARNING,
    "an SC/VL has no matching LL and can never succeed",
    theorem="§5.2")
declare(
    "llsc.ll-gap", Severity.WARNING,
    "the matching-LL search escapes the procedure entry",
    theorem="§5.2",
    fix="ensure an LL on the region dominates the SC/VL")
declare(
    "llsc.nested-ll", Severity.ERROR,
    "an LL may execute while an earlier LL reservation on the same "
    "region is still pending",
    theorem="§5.2 / Thm 5.3",
    fix="conclude the first reservation with an SC before "
        "re-reserving, or restructure into a single LL per iteration")
declare(
    "llsc.plain-read", Severity.WARNING,
    "a plain read of an LL/SC-managed region inside a procedure that "
    "also holds reservations on it (stale-read hazard)",
    theorem="§3.1",
    fix="read the region through LL so the subsequent SC validates it")
declare(
    "llsc.plain-write", Severity.ERROR,
    "a plain write to an LL/SC-managed region (breaks the SC-only "
    "update discipline Thm 5.3 relies on)",
    theorem="Thm 5.3",
    fix="route the update through SC")
declare(
    "aba.unversioned-cas", Severity.ERROR,
    "a CAS with a matching read targets a region with no modification "
    "counter — an ABA reuse of the expected value makes the CAS "
    "succeed on stale state",
    theorem="§5.2 / Thm 5.4")
declare(
    "aba.cas-no-read", Severity.INFO,
    "a CAS has no matching read; this is legal (§5.2) but no "
    "Theorem 5.4 window will justify movers around it",
    theorem="§5.2")
declare(
    "aba.multi-read", Severity.WARNING,
    "a CAS has more than one matching read (the analysis assumes "
    "exactly one)",
    theorem="§5.2 / Thm 5.4")
declare(
    "aba.plain-write-versioned", Severity.ERROR,
    "a non-CAS write to a versioned region bypasses the modification "
    "counter discipline",
    theorem="Thm 5.4",
    fix="route every shared update of a versioned region through CAS")
declare(
    "unique.escape", Severity.WARNING,
    "a working copy escapes: it is consumed outside the SC that "
    "publishes it, so the uniqueness idiom (§4) cannot certify it",
    theorem="§4",
    fix="only publish the working copy through SC(g, u) and do not "
        "use it afterwards")
declare(
    "unique.broken-swap", Severity.WARNING,
    "a thread-local working copy does not follow the swap idiom "
    "(§4), so its dereferences are treated as shared accesses",
    theorem="§4")


# -- helpers -------------------------------------------------------------------

def _has_sc_on(node: CFGNode, region: tuple) -> bool:
    return any(a.via == "SC" and target_region(a.target) == region
               for a in node_actions(node))


def _has_ll_on(node: CFGNode, region: tuple) -> bool:
    return any(a.via == "LL" and a.op == "read"
               and target_region(a.target) == region
               for a in node_actions(node))


def _live_outer_lls(cfg: ProcCFG, start: CFGNode,
                    region: tuple) -> set[CFGNode]:
    """LL nodes on ``region`` backward-reachable from ``start``
    without crossing an SC on the region (whose execution would have
    concluded the earlier reservation).  ``start`` itself reached
    around a loop does not count — re-executing the same LL is the
    ordinary retry idiom."""
    matches: set[CFGNode] = set()
    seen: set[CFGNode] = {start}
    stack: list[CFGNode] = [start]
    while stack:
        node = stack.pop()
        for prev in cfg.predecessors(node):
            if prev in seen:
                continue
            seen.add(prev)
            if _has_sc_on(prev, region):
                continue  # reservation concluded before reaching start
            if _has_ll_on(prev, region):
                matches.add(prev)
                continue
            stack.append(prev)
    return matches


# -- (a) LL/SC/VL well-formedness ---------------------------------------------

@checker
def llsc_wellformedness(ctx: LintContext) -> None:
    for proc, cfg, node, action in ctx.actions():
        if action.via in ("SC", "VL"):
            label = f"{action.via}({pretty_target(action.target)})"
            search = matching_lls_search(cfg, node, action.target)
            count = len(search.matches)
            if count > 1:
                ctx.report(
                    "llsc.multi-ll",
                    f"{label} has {count} matching LLs; §5.2 assumes "
                    f"exactly one, so Thm 5.3/5.4 windows cannot be "
                    f"formed here",
                    proc=proc, node=node, target=action.target)
            elif count == 0:
                ctx.report(
                    "llsc.no-ll",
                    f"{label} has no matching LL on any path and can "
                    f"never succeed",
                    proc=proc, node=node, target=action.target)
            if count and search.reaches_entry:
                ctx.report(
                    "llsc.ll-gap",
                    f"the matching-LL search for {label} escapes the "
                    f"procedure entry: some path reaches this "
                    f"{action.via} without holding a reservation",
                    proc=proc, node=node, target=action.target)
        elif action.via == "LL":
            region = target_region(action.target)
            outer = _live_outer_lls(cfg, node, region)
            if outer:
                label = f"LL({pretty_target(action.target)})"
                ctx.report(
                    "llsc.nested-ll",
                    f"{label} may execute while an earlier LL on the "
                    f"same region is still pending ({len(outer)} "
                    f"reachable reservation site(s) with no "
                    f"intervening SC)",
                    proc=proc, node=node, target=action.target)


@checker
def llsc_plain_access(ctx: LintContext) -> None:
    if not ctx.llsc_regions:
        return
    for proc, cfg, node, action in ctx.actions():
        if action.via != "plain" or action.op not in ("read", "write"):
            continue
        target = action.target
        if target is None or target.kind == "var":
            continue
        key = region_key(target)
        if key not in ctx.llsc_regions:
            continue
        if ctx.is_private(proc, node, target):
            continue
        label = pretty_target(target)
        if action.op == "write":
            ctx.report(
                "llsc.plain-write",
                f"plain write to {label}, a region otherwise updated "
                f"through SC — the SC-only discipline of Thm 5.3 is "
                f"broken",
                proc=proc, node=node, target=target)
        else:
            if isinstance(node.stmt, A.AssertStmt):
                continue  # specification reads are deliberate
            if key not in ctx.proc_llsc_regions.get(proc, set()):
                continue  # read-only consumer procedure: plain reads ok
            if (proc, node) in ctx.cas_read_nodes():
                continue  # the CAS idiom's matching read
            ctx.report(
                "llsc.plain-read",
                f"plain read of {label} in a procedure that also "
                f"takes LL reservations on it — the value is not "
                f"validated by any SC and may be stale",
                proc=proc, node=node, target=target)


# -- (b) ABA discipline --------------------------------------------------------

def _versioned_fix(target) -> str:
    if target.kind == "global" or target.binding is None:
        return f"declare the global as `global versioned {target.name};`"
    return (f"declare the field as `versioned {target.field};` in its "
            f"class")


@checker
def aba_discipline(ctx: LintContext) -> None:
    for proc, cfg, node, action in ctx.actions():
        if action.via != "CAS" or action.op != "write":
            continue
        target = action.target
        assert isinstance(action.expr, A.CASExpr)
        reads = matching_reads(cfg, node, action.expr)
        label = f"CAS({pretty_target(target)}, ...)"
        if not reads:
            ctx.report(
                "aba.cas-no-read",
                f"{label} has no matching read (expected value is not "
                f"bound from a read of the region); legal per §5.2, "
                f"but no Thm 5.4 window protects it",
                proc=proc, node=node, target=target)
        elif not versioned(ctx.facts.program, ctx.facts.env, target):
            ctx.report(
                "aba.unversioned-cas",
                f"{label} compares a previously-read value but "
                f"{pretty_target(target)} carries no modification "
                f"counter: if the value is recycled (freed and "
                f"reallocated) the CAS succeeds on stale state (ABA)",
                proc=proc, node=node, target=target,
                fix=_versioned_fix(target))
        if len(reads) > 1:
            ctx.report(
                "aba.multi-read",
                f"{label} has {len(reads)} matching reads; the "
                f"analysis assumes exactly one",
                proc=proc, node=node, target=target)


@checker
def aba_counter_bypass(ctx: LintContext) -> None:
    for proc, cfg, node, action in ctx.actions():
        if action.op != "write" or action.via == "CAS":
            continue
        target = action.target
        if target is None or target.kind == "var":
            continue
        if not versioned(ctx.facts.program, ctx.facts.env, target):
            continue
        if ctx.is_private(proc, node, target):
            continue
        via = "SC" if action.via == "SC" else "plain"
        ctx.report(
            "aba.plain-write-versioned",
            f"{via} write to versioned region "
            f"{pretty_target(target)} bypasses the CAS modification "
            f"discipline; competing CAS windows (Thm 5.4) assume all "
            f"updates bump the counter via CAS",
            proc=proc, node=node, target=target)


# -- (c) uniqueness / working copies ------------------------------------------

def _dereferenced_threadlocals(program: A.Program) -> set[str]:
    """Thread-local names whose object is actually dereferenced
    (a Field/Index through the variable) somewhere in procedure code
    — scalars never certified by the idiom are not worth flagging."""
    out: set[str] = set()
    for proc in program.procs:
        for node in proc.walk():
            base = None
            if isinstance(node, A.Field):
                base = node.base
            elif isinstance(node, A.Index):
                base = node.base
                if isinstance(base, A.Field):
                    base = base.base
            if isinstance(base, A.Var) \
                    and base.kind is A.VarKind.THREADLOCAL:
                out.add(base.name)
    return out


def _threadlocal_span(ctx: LintContext, name: str):
    """Anchor uniqueness findings at the first procedure-code use of
    the thread-local."""
    for proc in ctx.facts.program.procs:
        for node in proc.walk():
            if isinstance(node, A.Var) and node.name == name \
                    and node.kind is A.VarKind.THREADLOCAL \
                    and node.pos is not None:
                return proc.name, node
    return None, None


@checker
def uniqueness_rules(ctx: LintContext) -> None:
    used = _dereferenced_threadlocals(ctx.facts.program)
    for name, reason in sorted(ctx.facts.uniqueness.rejected.items()):
        if reason in ("never used", "no swap root"):
            continue  # nothing resembling the idiom — not a hazard
        if name not in used:
            continue  # scalar thread-local; uniqueness is irrelevant
        proc, node = _threadlocal_span(ctx, name)
        if reason == "consumed outside SC(g, u)":
            ctx.report(
                "unique.escape",
                f"working copy {name} escapes: {reason} — after the "
                f"swap publishes it, other threads may hold the same "
                f"object",
                proc=proc, node=node)
        else:
            ctx.report(
                "unique.broken-swap",
                f"thread-local {name} is swapped into shared state "
                f"but the working-copy idiom cannot be certified: "
                f"{reason}",
                proc=proc, node=node)
