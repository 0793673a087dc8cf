"""Local conditions of local blocks, and LL-SC blocks (§5.3).

A predicate ``p(lvar)`` is a *local condition* of ``local lvar = e in
stmt`` when (i) ``lvar`` is not updated in ``stmt`` and (ii) ``p(lvar)``
holds throughout the execution of ``stmt``.  Because ``lvar`` is
immutable inside the block, any ``TRUE(...)`` statement that depends
only on ``lvar`` (and constants) asserts a property of ``lvar``'s value
that holds throughout — we collect such atoms from the unconditional
spine of the block (not under ``if``/``loop``).

An *LL-SC block on svar* is ``local lvar = LL(svar) in {...;
TRUE(SC(svar, val)); ...}`` (the paper generalizes so the SC need not be
last).  Theorem 5.5 then excludes interleavings between an LL-SC block
with condition ``p`` and a local block with condition implying ``!p`` on
the same variable.

Conditions are conjunctions of atoms ``(op, const)`` over the block's
``lvar`` — e.g. ``next == null`` is ``("==", None)``.  Conditions from
different procedures are compared by value, not by binding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.actions import Target, location_target
from repro.synl import ast as A

Atom = tuple  # (op, const_value) with op in {"==", "!="}


def _atom_of(cond: A.Expr, lvar: int) -> Atom | None:
    """Convert a TRUE(...) condition into an atom over ``lvar``."""
    if isinstance(cond, A.Binary) and cond.op in ("==", "!="):
        left, right = cond.left, cond.right
        if isinstance(right, A.Var) and isinstance(left, A.Const):
            left, right = right, left
        if isinstance(left, A.Var) and left.binding == lvar \
                and isinstance(right, A.Const):
            return (cond.op, right.value)
    if isinstance(cond, A.Var) and cond.binding == lvar:
        return ("==", True)
    if isinstance(cond, A.Unary) and cond.op == "!" \
            and isinstance(cond.operand, A.Var) \
            and cond.operand.binding == lvar:
        return ("==", False)
    return None


def complementary(a: Atom, b: Atom) -> bool:
    """Do the two atoms contradict each other (p vs !p)?"""
    op_a, val_a = a
    op_b, val_b = b
    if val_a != val_b:
        # x == c contradicts x == d for c != d
        return op_a == "==" and op_b == "=="
    return op_a != op_b


def condition_excludes(local_cond: frozenset[Atom],
                       llsc_cond: frozenset[Atom]) -> bool:
    """Does the local block's condition imply the negation of the LL-SC
    block's condition (the ``!p`` premise of Theorem 5.5)?"""
    return any(complementary(a, b)
               for a in local_cond for b in llsc_cond)


@dataclass
class BlockInfo:
    """A local block (possibly an LL-SC block) with its local condition."""

    kind: str                     # 'llsc' | 'local'
    decl: A.LocalDecl             # the block's binder
    lvar: int                     # binding of lvar
    svar: Target                  # root variable (SC target for llsc,
    #                               the read location for local blocks)
    condition: frozenset[Atom] = frozenset()
    #: nids of all AST nodes inside the block (binder subtree)
    member_nids: frozenset[int] = frozenset()
    #: for llsc blocks: the SC expression(s) on svar inside the block
    sc_exprs: list[A.Expr] = field(default_factory=list)

    def contains(self, node: A.Node | None) -> bool:
        return node is not None and node.nid in self.member_nids


def _spine_assumes(stmt: A.Stmt):
    """TRUE(...) statements on the unconditional spine of a block (not
    inside if/loop/synchronized)."""
    if isinstance(stmt, A.Assume):
        yield stmt
    elif isinstance(stmt, A.Block):
        for sub in stmt.stmts:
            yield from _spine_assumes(sub)
    elif isinstance(stmt, A.LocalDecl):
        yield from _spine_assumes(stmt.body)


def blocks_of_proc(proc: A.Procedure) -> list[BlockInfo]:
    """All local blocks of a (variant) procedure, with conditions."""
    from repro.analysis.purity import target_region

    out: list[BlockInfo] = []
    for node in proc.body.walk():
        if not isinstance(node, A.LocalDecl) or node.binding is None:
            continue
        init = node.init
        if isinstance(init, A.LLExpr) and A.is_location(init.loc):
            svar = location_target(init.loc)
            sc_region = target_region(svar)
        elif A.is_location(init):
            svar = location_target(init)
            sc_region = None
        else:
            continue  # not a block on a variable (e.g. local x = new C)
        # one walk of the block: its member nids, whether the body
        # updates lvar, and an LL block's TRUE(SC(svar, ...))s
        member_nids, scs, updated = [], [], False
        for sub in node.walk():
            member_nids.append(sub.nid)
            if isinstance(sub, A.Assign) and isinstance(sub.target, A.Var):
                updated = updated or sub.target.binding == node.binding
            elif sc_region is not None and isinstance(sub, A.Assume) \
                    and isinstance(sub.cond, A.SCExpr) \
                    and A.is_location(sub.cond.loc) \
                    and target_region(location_target(sub.cond.loc)) \
                    == sc_region:
                scs.append(sub.cond)
        if updated:
            continue  # condition (i) of §5.3 fails: no local condition
        atoms = set()
        for assume in _spine_assumes(node.body):
            atom = _atom_of(assume.cond, node.binding)
            if atom is not None:
                atoms.add(atom)
        out.append(BlockInfo(kind="llsc" if scs else "local", decl=node,
                             lvar=node.binding, svar=svar,
                             condition=frozenset(atoms),
                             member_nids=frozenset(member_nids),
                             sc_exprs=scs))
    return out


def blocks_of_program(program: A.Program) -> dict[str, list[BlockInfo]]:
    return {proc.name: blocks_of_proc(proc) for proc in program.procs}
