"""Abstract syntax trees for SYNL (Table 1 of the paper, plus sugar).

Design notes
------------
* Nodes use **identity equality** (``eq=False``): the analyses attach
  per-node facts keyed by the node object, and the same syntactic text may
  occur at several program points.  Structural comparison is provided by
  :func:`structural_eq` / :meth:`Node.key`.
* Every node carries a unique ``nid`` (for stable ordering / debugging) and
  an optional source position.
* The resolver (:mod:`repro.synl.resolve`) decorates ``Var`` nodes with
  their :class:`VarKind` and binding id, and ``LocalDecl`` nodes with a
  unique binding id.
* A node's *structural fields* are its dataclass fields with
  ``init=True``, in declaration order.  One per-class table of them
  (``Node._fields``) drives :meth:`Node.key`, :meth:`Node.children` and
  :meth:`Node.clone`; ``pos``, ``nid`` and the resolver's decorations are
  not in it.

The statement sugar accepted by the parser (``while``, ``x++``) is
desugared in the parser itself, so the analyses only ever see the core
forms.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterator, Optional, TypeVar

from repro.errors import SourcePos

_NID = itertools.count(1)
_N = TypeVar("_N", bound="Node")


class VarKind(enum.Enum):
    """Storage class of a variable occurrence (attached by the resolver)."""

    GLOBAL = "global"
    THREADLOCAL = "threadlocal"
    PARAM = "param"
    LOCAL = "local"  # introduced by ``local x = e in s``
    CONST = "const"  # program-level named constant

    @property
    def is_local(self) -> bool:
        """True for variables private to one thread (paper's 'local')."""
        return self in (VarKind.THREADLOCAL, VarKind.PARAM,
                        VarKind.LOCAL, VarKind.CONST)


@dataclass(eq=False)
class Node:
    """Base class of all AST nodes."""

    pos: Optional[SourcePos] = field(default=None, init=False, repr=False)
    nid: int = field(default=0, init=False, repr=False)
    #: the names of the structural fields, set per class at the end of
    #: this module
    _fields: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        self.nid = next(_NID)

    def at(self: _N, pos: Optional[SourcePos]) -> _N:
        """Attach a source position; returns self for chaining."""
        self.pos = pos
        return self

    # -- structural identity -------------------------------------------------
    def key(self) -> tuple:
        """A structural key: node class name plus keys of the structural
        fields, ignoring nid/pos/analysis decorations.  A block
        containing a single statement is identified with that statement
        (the printer braces sub-statements for unambiguous reparsing)."""
        if isinstance(self, Block) and len(self.stmts) == 1:
            return self.stmts[0].key()
        parts: list = [type(self).__name__]
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Node):
                parts.append(value.key())
            elif isinstance(value, list):
                parts.append(tuple(
                    v.key() if isinstance(v, Node) else v for v in value))
            else:
                parts.append(value)
        return tuple(parts)

    def children(self) -> list["Node"]:
        """The direct child nodes, in field order."""
        out: list[Node] = []
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Node):
                out.append(value)
            elif isinstance(value, list):
                for v in value:
                    if isinstance(v, Node):
                        out.append(v)
        return out

    def clone(self: _N) -> _N:
        """A deep copy of this subtree that shares no node with it.

        Children are copied first, in field order, so a copy's nids keep
        the original's relative order.  Each copy is built by its class's
        constructor: it gets a fresh nid and no resolver decorations
        (re-resolve the copy), and keeps the original's ``pos``."""
        out = type(self)(*[_copy(getattr(self, name))
                           for name in self._fields])
        out.pos = self.pos
        return out

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of this subtree (including self).

        An explicit stack, so each node costs O(1) rather than the
        O(depth) of a chain of nested generators."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            kids = node.children()
            kids.reverse()
            stack.extend(kids)

    def span(self) -> tuple[Optional[SourcePos], Optional[SourcePos]]:
        """Smallest source span covering this subtree: the (start, end)
        pair of the minimum and maximum positions attached to any node
        in it.  Either element is ``None`` when no node carries a
        position (e.g. synthesized variants)."""
        start: Optional[SourcePos] = None
        end: Optional[SourcePos] = None
        for node in self.walk():
            pos = node.pos
            if pos is None:
                continue
            key = (pos.line, pos.col)
            if start is None or key < (start.line, start.col):
                start = pos
            if end is None or key > (end.line, end.col):
                end = pos
        return start, end


def _copy(value):
    if isinstance(value, Node):
        return value.clone()
    if isinstance(value, list):
        return [_copy(v) for v in value]
    return value


def structural_eq(a: Node, b: Node) -> bool:
    """Structural equality, ignoring node identities and positions."""
    return a.key() == b.key()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Expr(Node):
    pass


@dataclass(eq=False)
class Const(Expr):
    """Integer, boolean, or null literal."""

    value: object  # int | bool | None (None encodes null)


@dataclass(eq=False)
class Var(Expr):
    """Variable occurrence.  ``kind``/``binding`` are set by the resolver;
    ``binding`` identifies the declaration (unique int per binder)."""

    name: str

    def __post_init__(self) -> None:
        super().__post_init__()
        self.kind: Optional[VarKind] = None
        self.binding: Optional[int] = None


@dataclass(eq=False)
class Field(Expr):
    """Field access ``base.name``.  Per Table 1, ``base`` is a variable."""

    base: Expr
    name: str


@dataclass(eq=False)
class Index(Expr):
    """Array element access ``base[index]``."""

    base: Expr
    index: Expr


@dataclass(eq=False)
class New(Expr):
    """Object allocation ``new C``."""

    class_name: str


@dataclass(eq=False)
class NewArray(Expr):
    """Array allocation ``new C[size]`` (element class is informational)."""

    class_name: str
    size: Expr


@dataclass(eq=False)
class Unary(Expr):
    op: str  # "!" or "-"
    operand: Expr


@dataclass(eq=False)
class Binary(Expr):
    op: str  # "==","!=","<","<=",">",">=","+","-","*","/","%","&&","||"
    left: Expr
    right: Expr


@dataclass(eq=False)
class PrimCall(Expr):
    """Call to a side-effect-free primitive operation (paper §3.2)."""

    name: str
    args: list[Expr]


@dataclass(eq=False)
class LLExpr(Expr):
    """Load-Linked:  ``LL(loc)`` returns the content of ``loc``."""

    loc: Expr


@dataclass(eq=False)
class SCExpr(Expr):
    """Store-Conditional: ``SC(loc, value)`` returns success boolean."""

    loc: Expr
    value: Expr


@dataclass(eq=False)
class VLExpr(Expr):
    """Validate: ``VL(loc)`` returns True iff the reservation is intact."""

    loc: Expr


@dataclass(eq=False)
class CASExpr(Expr):
    """Compare-and-Swap: ``CAS(loc, expected, new)`` returns success."""

    loc: Expr
    expected: Expr
    new: Expr


def is_location(e: Expr) -> bool:
    """Per Table 1, a Location is ``x``, ``x.fd`` or ``x[e]``."""
    if isinstance(e, Var):
        return True
    if isinstance(e, Field):
        return isinstance(e.base, Var)
    if isinstance(e, Index):
        return isinstance(e.base, (Var, Field)) and (
            not isinstance(e.base, Field) or isinstance(e.base.base, Var))
    return False


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Stmt(Node):
    pass


@dataclass(eq=False)
class Assign(Stmt):
    """``loc = e;``"""

    target: Expr  # a location
    value: Expr


@dataclass(eq=False)
class LocalDecl(Stmt):
    """``local x = e in s`` — scoped procedure-local variable."""

    name: str
    init: Expr
    body: Stmt

    def __post_init__(self) -> None:
        super().__post_init__()
        self.binding: Optional[int] = None  # set by the resolver


@dataclass(eq=False)
class If(Stmt):
    cond: Expr
    then: Stmt
    els: Optional[Stmt] = None


@dataclass(eq=False)
class Loop(Stmt):
    """Unconditional loop (``while (true) s`` in the paper)."""

    body: Stmt
    label: Optional[str] = None


@dataclass(eq=False)
class Block(Stmt):
    stmts: list[Stmt]


@dataclass(eq=False)
class Break(Stmt):
    label: Optional[str] = None


@dataclass(eq=False)
class Continue(Stmt):
    """Not in core SYNL (the paper eliminates it manually); we support it
    natively: it jumps to the head of the (labelled) enclosing loop and is
    a *normal* termination of the loop body for purposes of §4."""

    label: Optional[str] = None


@dataclass(eq=False)
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass(eq=False)
class Skip(Stmt):
    pass


@dataclass(eq=False)
class Synchronized(Stmt):
    """``synchronized (e) s`` with Java monitor semantics."""

    lock: Expr
    body: Stmt


@dataclass(eq=False)
class Assume(Stmt):
    """``TRUE(e);`` — appears in exceptional variants (§5.2): asserts that
    ``e`` holds (an SC/CAS inside must be *successful*)."""

    cond: Expr


@dataclass(eq=False)
class AssertStmt(Stmt):
    """``assert(e);`` — checked by the interpreter / model checker."""

    cond: Expr


@dataclass(eq=False)
class ExprStmt(Stmt):
    """Expression used as a statement (sugar for ``local _ = e in skip``)."""

    expr: Expr


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class VarDecl(Node):
    name: str
    init: Optional[Expr] = None
    versioned: bool = False  # CAS modification-counter discipline (§5.2)


@dataclass(eq=False)
class ConstDecl(Node):
    name: str
    value: Const


@dataclass(eq=False)
class ClassDecl(Node):
    name: str
    fields: list[str]
    #: fields updated by CAS under the modification-counter (ABA-free)
    #: discipline of §5.2
    versioned_fields: frozenset[str] = frozenset()


@dataclass(eq=False)
class Procedure(Node):
    name: str
    params: list[str]
    body: Block

    def __post_init__(self) -> None:
        super().__post_init__()
        # Param binding ids, set by the resolver: name -> binding id
        self.param_bindings: dict[str, int] = {}


@dataclass(eq=False)
class Program(Node):
    """A SYNL program: declarations plus top-level procedures that the
    environment invokes concurrently with arbitrary arguments (§3.2)."""

    globals: list[VarDecl]
    threadlocals: list[VarDecl]
    consts: list[ConstDecl]
    classes: list[ClassDecl]
    procs: list[Procedure]
    init: Optional[Block] = None
    threadinit: Optional[Block] = None

    def proc(self, name: str) -> Procedure:
        for p in self.procs:
            if p.name == name:
                return p
        raise KeyError(name)

    def versioned_names(self) -> set[str]:
        return {d.name for d in self.globals if d.versioned}

    def class_decl(self, name: str) -> Optional[ClassDecl]:
        for c in self.classes:
            if c.name == name:
                return c
        return None


def _set_field_tables(cls: type[Node]) -> None:
    cls._fields = tuple(f.name for f in fields(cls) if f.init)
    for sub in cls.__subclasses__():
        _set_field_tables(sub)


_set_field_tables(Node)
