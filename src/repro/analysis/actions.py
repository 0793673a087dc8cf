"""Syntactic extraction of *actions* from CFG nodes (§3.3).

An action is a read/write of a variable, a lock acquire/release, or an
allocation.  Extraction here is purely syntactic and records, in
left-to-right evaluation order, every access a node performs.  Whether
an access is a *local action* (both-mover) or a *global action* is
decided later by the inference driver using the escape and uniqueness
analyses — see :mod:`repro.analysis.inference`.

:func:`node_actions` extracts a node's actions once and keeps them on
the :class:`~repro.cfg.graph.CFGNode`, so the purity, uniqueness,
matching and lint passes that rescan a node all read one list.

Targets are syntactic location descriptors:

* ``GLOBAL name``          — a global variable;
* ``VAR binding``          — a thread/procedure-local scalar;
* ``FIELD binding.field``  — field of the object held in a local var;
* ``ELEM binding.field[]`` — array element region (index-insensitive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cfg.graph import CONTROL_KINDS, CFGNode, NodeKind
from repro.synl import ast as A


@dataclass(frozen=True)
class Target:
    """Syntactic location descriptor (see module docstring)."""

    kind: str                      # 'global' | 'var' | 'field' | 'elem'
    name: Optional[str] = None     # global name, or base var name (debug)
    binding: Optional[int] = None  # base binding for var/field/elem
    field: Optional[str] = None    # field name for field/elem

    def __str__(self) -> str:
        if self.kind == "global":
            return self.name or "?"
        if self.kind == "var":
            return self.name or f"#{self.binding}"
        suffix = "[]" if self.kind == "elem" else ""
        if self.field is None:
            return f"{self.name}{suffix}"
        return f"{self.name}.{self.field}{suffix}"


@dataclass
class RawAction:
    """One access performed by a CFG node."""

    op: str                        # 'read' | 'write' | 'acquire' | 'release' | 'alloc'
    target: Optional[Target]      # None for alloc
    via: str = "plain"             # 'plain' | 'LL' | 'SC' | 'VL' | 'CAS'
    expr: Optional[A.Expr] = None  # originating LL/SC/VL/CAS expression
    node: Optional[CFGNode] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        via = f"/{self.via}" if self.via != "plain" else ""
        return f"{self.op}{via}({self.target})"


def location_target(loc: A.Expr) -> Target:
    """Build a :class:`Target` for a Location expression (Table 1)."""
    if isinstance(loc, A.Var):
        if loc.kind is A.VarKind.GLOBAL:
            return Target("global", name=loc.name)
        return Target("var", name=loc.name, binding=loc.binding)
    if isinstance(loc, A.Field):
        base = loc.base
        assert isinstance(base, A.Var)
        if base.kind is A.VarKind.GLOBAL:
            # field of an object named directly by a global is modelled as
            # a global region; the corpus always goes through locals.
            return Target("field", name=base.name, field=loc.name)
        return Target("field", name=base.name, binding=base.binding,
                      field=loc.name)
    if isinstance(loc, A.Index):
        base = loc.base
        if isinstance(base, A.Var):
            if base.kind is A.VarKind.GLOBAL:
                # element of an array named directly by a global: a
                # global-rooted region (like the Field case above)
                return Target("elem", name=base.name)
            return Target("elem", name=base.name, binding=base.binding)
        assert isinstance(base, A.Field) and isinstance(base.base, A.Var)
        return Target("elem", name=base.base.name,
                      binding=base.base.binding, field=base.name)
    raise TypeError(f"not a location: {type(loc).__name__}")


def _base_reads(loc: A.Expr, out: list[RawAction]) -> None:
    """Reads performed while *evaluating* a location (base var, index)."""
    if isinstance(loc, A.Var):
        return  # reading the variable itself is the access, handled by caller
    if isinstance(loc, A.Field):
        out.append(RawAction("read", location_target(loc.base)))
        return
    if isinstance(loc, A.Index):
        if isinstance(loc.base, A.Var):
            out.append(RawAction("read", location_target(loc.base)))
        else:
            field_base = loc.base
            assert isinstance(field_base, A.Field)
            out.append(RawAction("read", location_target(field_base.base)))
            out.append(RawAction("read", location_target(field_base)))
        expr_actions(loc.index, out)
        return
    raise TypeError(f"not a location: {type(loc).__name__}")


def expr_actions(e: A.Expr, out: list[RawAction]) -> None:
    """Append the actions of evaluating ``e``, in evaluation order."""
    if isinstance(e, A.Const):
        return
    if isinstance(e, A.Var):
        if e.kind is A.VarKind.CONST:
            return
        out.append(RawAction("read", location_target(e)))
        return
    if isinstance(e, (A.Field, A.Index)):
        _base_reads(e, out)
        out.append(RawAction("read", location_target(e)))
        return
    if isinstance(e, A.New):
        out.append(RawAction("alloc", None, expr=e))
        return
    if isinstance(e, A.NewArray):
        expr_actions(e.size, out)
        out.append(RawAction("alloc", None, expr=e))
        return
    if isinstance(e, A.Unary):
        expr_actions(e.operand, out)
        return
    if isinstance(e, A.Binary):
        expr_actions(e.left, out)
        expr_actions(e.right, out)
        return
    if isinstance(e, A.PrimCall):
        for a in e.args:
            expr_actions(a, out)
        return
    if isinstance(e, A.LLExpr):
        _base_reads(e.loc, out)
        out.append(RawAction("read", location_target(e.loc), via="LL",
                             expr=e))
        return
    if isinstance(e, A.VLExpr):
        _base_reads(e.loc, out)
        out.append(RawAction("read", location_target(e.loc), via="VL",
                             expr=e))
        return
    if isinstance(e, A.SCExpr):
        expr_actions(e.value, out)
        _base_reads(e.loc, out)
        out.append(RawAction("write", location_target(e.loc), via="SC",
                             expr=e))
        return
    if isinstance(e, A.CASExpr):
        expr_actions(e.expected, out)
        expr_actions(e.new, out)
        _base_reads(e.loc, out)
        out.append(RawAction("write", location_target(e.loc), via="CAS",
                             expr=e))
        return
    raise TypeError(f"unknown expression {type(e).__name__}")


def node_actions(node: CFGNode) -> list[RawAction]:
    """The actions of one CFG node, in evaluation order.  They are
    extracted on the first call and kept on the node, so every later
    call (from any analysis, lint rule or the model checker) returns the
    same list; callers must not mutate it."""
    if node.actions is None:
        node.actions = _extract_actions(node)
    return node.actions


def _extract_actions(node: CFGNode) -> list[RawAction]:
    out: list[RawAction] = []
    kind = node.kind
    stmt = node.stmt
    if kind in CONTROL_KINDS:
        pass
    elif kind is NodeKind.RETURN:
        assert isinstance(stmt, A.Return)
        if stmt.value is not None:
            expr_actions(stmt.value, out)
    elif kind is NodeKind.STMT:
        if isinstance(stmt, A.Assign):
            expr_actions(stmt.value, out)
            _base_reads(stmt.target, out)
            out.append(RawAction("write", location_target(stmt.target)))
        elif isinstance(stmt, (A.Assume, A.AssertStmt)):
            expr_actions(stmt.cond, out)
        elif isinstance(stmt, A.ExprStmt):
            expr_actions(stmt.expr, out)
        elif isinstance(stmt, A.Skip):
            pass
        else:  # pragma: no cover - builder invariant
            raise TypeError(f"unexpected stmt node {type(stmt).__name__}")
    elif kind is NodeKind.BIND:
        decl = stmt
        assert isinstance(decl, A.LocalDecl)
        expr_actions(decl.init, out)
        out.append(RawAction(
            "write",
            Target("var", name=decl.name, binding=decl.binding)))
    elif kind is NodeKind.BRANCH:
        expr_actions(node.expr, out)
    elif kind is NodeKind.ACQUIRE:
        expr_actions(node.expr, out)
        out.append(RawAction("acquire", _lock_target(node.expr)))
    elif kind is NodeKind.RELEASE:
        out.append(RawAction("release", _lock_target(node.expr)))
    else:  # pragma: no cover
        raise TypeError(f"unexpected node kind {kind}")
    for action in out:
        action.node = node
    return out


def _lock_target(lock: A.Expr) -> Target:
    if A.is_location(lock):
        return location_target(lock)
    # a computed lock expression: model as an unknown lock
    return Target("global", name="<computed-lock>")
