"""Exceptional slices of pure loops (§5.2).

For each ``break``/``return`` in a pure loop, the *exceptional slice* is
the backward slice of the loop body from that exit to the loop's entry.
When the slice keeps only one branch of an ``if e S1 S2``, the ``if`` is
replaced by ``TRUE(e); S1`` (or ``TRUE(!e); S2``).  Slices are computed
on the CFG (backward reachability from the exit node, stopping at the
loop head) and then reconstructed as fresh AST statements.

A bare ``SC(v, e);`` statement is sugar for ``if (SC(v, e)) skip; else
skip;`` (§3.2), so slicing through it yields both a ``TRUE(SC(v, e))``
and a ``TRUE(!SC(v, e))`` slice — :func:`split_bare_sc` performs this
success split, which is how Fig. 3 shows ``b5: TRUE(SC(Tail, next))``
for UpdateTail's bare SC statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.cfg.graph import CFGNode, LoopInfo, NodeKind, ProcCFG
from repro.synl import ast as A

_NEGATED_OP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">",
               ">": "<=", ">=": "<"}


def negate(e: A.Expr) -> A.Expr:
    """Logical negation with simplification (``!(a == b)`` → ``a != b``)."""
    if isinstance(e, A.Unary) and e.op == "!":
        return e.operand.clone()
    if isinstance(e, A.Binary) and e.op in _NEGATED_OP:
        out: A.Expr = A.Binary(_NEGATED_OP[e.op], e.left.clone(),
                               e.right.clone())
        out.at(e.pos)
        return out
    if isinstance(e, A.Const) and isinstance(e.value, bool):
        out = A.Const(not e.value)
        out.at(e.pos)
        return out
    out = A.Unary("!", e.clone())
    out.at(e.pos)
    return out


# -- slice computation --------------------------------------------------------

def slice_nodes_for_exit(cfg: ProcCFG, info: LoopInfo,
                         exit_node: CFGNode) -> set[CFGNode]:
    """CFG nodes of the exceptional slice from the loop entry to
    ``exit_node`` (backward reachability within the loop body, not
    crossing the loop head).  The head itself is excluded: an edge back
    to the head is a *normal* termination and must not count as a kept
    branch direction during reconstruction."""
    body = set(info.body_nodes)
    nodes = cfg.backward_reachable([exit_node], stop={info.head})
    return (nodes & body) | {exit_node}


# -- AST reconstruction ---------------------------------------------------------

@dataclass
class _Rebuilt:
    stmts: list[A.Stmt]
    terminated: bool = False  # the emitted sequence always leaves the slice


class SliceRebuilder:
    """Rebuilds the AST of one exceptional slice.

    ``exit_break`` is the ``break`` that leaves the sliced loop, if the
    slice's exit is one.  It is dropped, or, when ``residual`` is the
    loop kept in the slice that holds it, rebuilt as ``break
    exit_label`` and ``residual`` rebuilt with that label."""

    def __init__(self, cfg: ProcCFG, keep: set[CFGNode],
                 exit_break: A.Break | None = None,
                 residual: A.Loop | None = None,
                 exit_label: str | None = None):
        self.cfg = cfg
        self.keep = keep
        self.exit_break = exit_break
        self.residual = residual
        self.exit_label = exit_label
        self._by_stmt: dict[int, list[CFGNode]] = {}
        for node in cfg.nodes:
            if node.stmt is not None:
                self._by_stmt.setdefault(node.stmt.nid, []).append(node)

    def _nodes_of(self, s: A.Stmt) -> list[CFGNode]:
        return self._by_stmt.get(s.nid, [])

    def _kept(self, s: A.Stmt) -> bool:
        return any(n in self.keep for n in self._nodes_of(s))

    def rebuild(self, s: A.Stmt) -> _Rebuilt:
        if isinstance(s, A.Block):
            out: list[A.Stmt] = []
            for sub in s.stmts:
                r = self.rebuild(sub)
                out.extend(r.stmts)
                if r.terminated:
                    return _Rebuilt(out, True)
            return _Rebuilt(out)

        if s is self.exit_break:
            if self.residual is None:
                return _Rebuilt([], True)
            brk = A.Break(self.exit_label)
            brk.at(s.pos)
            return _Rebuilt([brk], True)

        if isinstance(s, (A.Assign, A.Assume, A.AssertStmt, A.ExprStmt,
                          A.Skip)):
            if self._kept(s):
                return _Rebuilt([s.clone()])
            return _Rebuilt([])

        if isinstance(s, (A.Break, A.Continue, A.Return)):
            if self._kept(s):
                return _Rebuilt([s.clone()], True)
            return _Rebuilt([])

        if isinstance(s, A.LocalDecl):
            if not self._kept(s):
                return _Rebuilt([])
            body = self.rebuild(s.body)
            decl = A.LocalDecl(s.name, s.init.clone(),
                               A.Block(body.stmts).at(s.pos))
            decl.at(s.pos)
            return _Rebuilt([decl], body.terminated)

        if isinstance(s, A.If):
            branch_nodes = [n for n in self._nodes_of(s)
                            if n.kind is NodeKind.BRANCH]
            if not branch_nodes or branch_nodes[0] not in self.keep:
                return _Rebuilt([])
            branch = branch_nodes[0]
            true_kept = any(e.dst in self.keep
                            for e in self.cfg.out_edges(branch)
                            if e.label is True)
            false_kept = any(e.dst in self.keep
                             for e in self.cfg.out_edges(branch)
                             if e.label is False)
            if true_kept and false_kept:
                then = self.rebuild(s.then)
                els = self.rebuild(s.els) if s.els is not None else None
                node = A.If(s.cond.clone(),
                            A.Block(then.stmts).at(s.pos),
                            A.Block(els.stmts).at(s.pos)
                            if els is not None and els.stmts else None)
                node.at(s.pos)
                terminated = then.terminated and (
                    els is not None and els.terminated)
                return _Rebuilt([node], terminated)
            if true_kept:
                assume = A.Assume(s.cond.clone())
                assume.at(s.pos)
                then = self.rebuild(s.then)
                return _Rebuilt([assume] + then.stmts, then.terminated)
            if false_kept:
                assume = A.Assume(negate(s.cond))
                assume.at(s.pos)
                els = self.rebuild(s.els) if s.els is not None \
                    else _Rebuilt([])
                return _Rebuilt([assume] + els.stmts, els.terminated)
            return _Rebuilt([])

        if isinstance(s, A.Loop):
            heads = [n for n in self._nodes_of(s)
                     if n.kind is NodeKind.LOOP_HEAD]
            if not heads or heads[0] not in self.keep:
                return _Rebuilt([])
            body = self.rebuild(s.body)
            label = self.exit_label if s is self.residual else s.label
            loop = A.Loop(A.Block(body.stmts).at(s.pos), label)
            loop.at(s.pos)
            return _Rebuilt([loop])

        if isinstance(s, A.Synchronized):
            if not self._kept(s):
                return _Rebuilt([])
            body = self.rebuild(s.body)
            sync = A.Synchronized(s.lock.clone(),
                                  A.Block(body.stmts).at(s.pos))
            sync.at(s.pos)
            return _Rebuilt([sync], body.terminated)

        raise TypeError(f"cannot rebuild {type(s).__name__}")


def exceptional_slice(cfg: ProcCFG, info: LoopInfo, exit_node: CFGNode,
                      labels: Iterator[str]) -> list[A.Stmt]:
    """The exceptional slice for one exit, as a fresh statement list that
    replaces the loop.

    A ``break`` of the sliced loop itself is normally dropped (control
    falls through to the code after the loop).  When that break sits
    inside a *residual* inner loop kept in the slice, dropping it would
    leave the inner loop with no exit; instead it breaks out of the
    outermost such loop, labelled with the next of ``labels`` if it
    has no label.  No statement after that loop is in the slice (the
    exit is reached again only through the sliced loop's head), so
    control still goes straight to the code after the sliced loop.  A
    slice holds no loop that the sliced loop's body does not, so every
    slice leaves one loop fewer and variant expansion terminates.
    """
    keep = slice_nodes_for_exit(cfg, info, exit_node)
    if exit_node.kind is not NodeKind.BREAK \
            or getattr(exit_node, "jump_target", None) is not info.loop:
        return SliceRebuilder(cfg, keep).rebuild(info.loop.body).stmts
    residual = None
    if exit_node.loop is not info.loop:
        outer = cfg.loop_info(exit_node.loop)
        while outer.parent is not info:
            outer = outer.parent
        residual = outer.loop
    rebuilder = SliceRebuilder(
        cfg, keep, exit_node.stmt, residual,
        None if residual is None else residual.label or next(labels))
    return rebuilder.rebuild(info.loop.body).stmts


# -- bare SC/CAS success split ---------------------------------------------------

def split_bare_sc(stmts: list[A.Stmt]) -> list[list[A.Stmt]]:
    """Expand bare ``SC(...)`` / ``CAS(...)`` statements into their
    success/failure assumptions (see module docstring).  Returns the list
    of alternative statement lists (cartesian product over occurrences)."""

    def expand(s: A.Stmt) -> list[list[A.Stmt]]:
        if isinstance(s, A.ExprStmt) and isinstance(
                s.expr, (A.SCExpr, A.CASExpr)):
            ok = A.Assume(s.expr.clone())
            ok.at(s.pos)
            fail = A.Assume(negate(s.expr))
            fail.at(s.pos)
            return [[ok], [fail]]
        if isinstance(s, A.Block):
            variants = split_bare_sc(s.stmts)
            return [[A.Block(v).at(s.pos)] for v in variants]
        if isinstance(s, A.LocalDecl):
            bodies = expand(s.body)
            out = []
            for b in bodies:
                decl = A.LocalDecl(s.name, s.init.clone(),
                                   b[0] if len(b) == 1
                                   else A.Block(b).at(s.pos))
                decl.at(s.pos)
                out.append([decl])
            return out
        if isinstance(s, A.If):
            thens = expand(s.then)
            elses = expand(s.els) if s.els is not None else [None]
            out = []
            for t in thens:
                for e in elses:
                    node = A.If(
                        s.cond.clone(),
                        t[0] if len(t) == 1 else A.Block(t).at(s.pos),
                        None if e is None else
                        (e[0] if len(e) == 1 else A.Block(e).at(s.pos)))
                    node.at(s.pos)
                    out.append([node])
            return out
        return [[s.clone()]]

    results: list[list[A.Stmt]] = [[]]
    for s in stmts:
        expanded = expand(s)
        results = [prefix + alt for prefix in results for alt in expanded]
    return results
