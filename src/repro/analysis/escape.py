"""Simple escape analysis (§3.2/§5.4 step 1).

The paper uses "a simple escape analysis ... to identify accesses to
objects that have not escaped from the creating threads; those accesses
are like accesses to unshared variables and have atomicity type B".

We compute, per CFG node, the set of bindings that *definitely* hold a
freshly allocated, not-yet-escaped object at that point (a forward
must-analysis, meet = intersection).  Freshness is established by
``x = new C`` and destroyed when the variable is *consumed* — used as an
rvalue anywhere other than as the base of a field/array access (stored
into the heap or a global, passed as the new-value of an SC/CAS,
returned, compared, ...).  This is deliberately conservative.
"""

from __future__ import annotations

from typing import Iterator

from repro.cfg.dataflow import Problem, Solution, intersection_meet, solve
from repro.cfg.graph import CFGNode, NodeKind, ProcCFG
from repro.synl import ast as A


def _consumed_bindings(e: A.Expr) -> Iterator[int]:
    """Bindings whose value is consumed (read as an rvalue outside a
    field/array-base position) while evaluating ``e``."""
    if isinstance(e, A.Var):
        if e.binding is not None:
            yield e.binding
        return
    if isinstance(e, (A.Field, A.Index)):
        # the base variable is dereferenced, not consumed; the index is
        # consumed
        if isinstance(e, A.Index):
            yield from _consumed_bindings(e.index)
        return
    if isinstance(e, A.Unary):
        yield from _consumed_bindings(e.operand)
        return
    if isinstance(e, A.Binary):
        yield from _consumed_bindings(e.left)
        yield from _consumed_bindings(e.right)
        return
    if isinstance(e, A.PrimCall):
        for a in e.args:
            yield from _consumed_bindings(a)
        return
    if isinstance(e, A.LLExpr) or isinstance(e, A.VLExpr):
        if isinstance(e.loc, A.Index):
            yield from _consumed_bindings(e.loc.index)
        return
    if isinstance(e, A.SCExpr):
        yield from _consumed_bindings(e.value)
        if isinstance(e.loc, A.Index):
            yield from _consumed_bindings(e.loc.index)
        return
    if isinstance(e, A.CASExpr):
        yield from _consumed_bindings(e.expected)
        yield from _consumed_bindings(e.new)
        if isinstance(e.loc, A.Index):
            yield from _consumed_bindings(e.loc.index)
        return
    if isinstance(e, A.NewArray):
        yield from _consumed_bindings(e.size)
        return
    # Const / New: nothing


def _branch_publish(cond) -> tuple[object, set[int], set[int]] | None:
    """For a branch on SC/CAS, the bindings passed as the published
    value escape only along the *success* edge (a failed SC/CAS writes
    nothing).  Returns (success edge label, publish-consumed bindings,
    unconditionally consumed bindings), or None when the condition is
    not of that shape."""
    success: object = True
    if isinstance(cond, A.Unary) and cond.op == "!":
        cond = cond.operand
        success = False
    others: set[int] = set()
    if isinstance(cond, (A.SCExpr, A.CASExpr)):
        if isinstance(cond.loc, A.Index):
            others |= set(_consumed_bindings(cond.loc.index))
    if isinstance(cond, A.SCExpr):
        published = set(_consumed_bindings(cond.value))
        return success, published - others, others
    if isinstance(cond, A.CASExpr):
        others |= set(_consumed_bindings(cond.expected))
        published = set(_consumed_bindings(cond.new))
        return success, published - others, others
    return None


def _node_effects(node: CFGNode) -> tuple[set[int], int | None, bool]:
    """Return (consumed bindings, assigned binding or None,
    assigned_value_is_fresh_allocation)."""
    consumed: set[int] = set()
    assigned: int | None = None
    fresh = False
    stmt = node.stmt
    if node.kind is NodeKind.BIND:
        decl = stmt
        assert isinstance(decl, A.LocalDecl)
        consumed |= set(_consumed_bindings(decl.init))
        assigned = decl.binding
        fresh = isinstance(decl.init, (A.New, A.NewArray))
        if fresh:
            consumed.discard(assigned)
    elif node.kind is NodeKind.STMT and isinstance(stmt, A.Assign):
        consumed |= set(_consumed_bindings(stmt.value))
        if isinstance(stmt.target, A.Var) and stmt.target.binding is not None:
            assigned = stmt.target.binding
            fresh = isinstance(stmt.value, (A.New, A.NewArray))
        elif isinstance(stmt.target, A.Index):
            consumed |= set(_consumed_bindings(stmt.target.index))
    elif node.kind is NodeKind.STMT and isinstance(
            stmt, (A.Assume, A.AssertStmt)):
        consumed |= set(_consumed_bindings(stmt.cond))
    elif node.kind is NodeKind.STMT and isinstance(stmt, A.ExprStmt):
        consumed |= set(_consumed_bindings(stmt.expr))
    elif node.kind is NodeKind.BRANCH:
        publish = _branch_publish(node.expr)
        if publish is not None:
            # the published bindings are killed edge-sensitively by
            # escape_analysis's edge_transfer, not here
            _, _, others = publish
            consumed |= others
        else:
            consumed |= set(_consumed_bindings(node.expr))
    elif node.kind is NodeKind.RETURN and isinstance(stmt, A.Return):
        if stmt.value is not None:
            consumed |= set(_consumed_bindings(stmt.value))
    elif node.kind is NodeKind.ACQUIRE:
        consumed |= set(_consumed_bindings(node.expr))
    return consumed, assigned, fresh


class EscapeResult:
    """Per-node sets of definitely-fresh (unescaped) bindings."""

    def __init__(self, sol: Solution):
        self._sol = sol

    def is_fresh(self, node: CFGNode, binding: int | None) -> bool:
        """Is ``binding`` holding a fresh unescaped object just before
        ``node`` executes?"""
        return binding is not None and binding in self._sol.before[node]


def escape_analysis(cfg: ProcCFG) -> EscapeResult:
    all_bindings: set[int] = set()
    for node in cfg.nodes:
        _, assigned, fresh = _node_effects(node)
        if fresh and assigned is not None:
            all_bindings.add(assigned)
    top = frozenset(all_bindings)

    def transfer(node: CFGNode, fact: frozenset) -> frozenset:
        consumed, assigned, fresh = _node_effects(node)
        out = fact - frozenset(consumed)
        if assigned is not None:
            out = out | {assigned} if fresh else out - {assigned}
        return out

    def edge_transfer(edge, fact: frozenset) -> frozenset:
        # branch out-edges always carry True/False labels (the builder
        # preserves the boolean even on edges that close a loop body)
        if edge.src.kind is not NodeKind.BRANCH:
            return fact
        publish = _branch_publish(edge.src.expr)
        if publish is None:
            return fact
        success_label, published, _ = publish
        if edge.label is success_label:
            return fact - frozenset(published)
        return fact

    problem: Problem[frozenset] = Problem(
        boundary=frozenset(),
        init=top,  # optimistic start for the must-analysis fixpoint
        meet=intersection_meet,
        transfer=transfer,
        edge_transfer=edge_transfer,
    )
    return EscapeResult(solve(cfg, problem))
