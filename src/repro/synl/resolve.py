"""Name resolution and well-formedness checking for SYNL programs.

Responsibilities:

* classify every ``Var`` occurrence as global / thread-local / parameter /
  procedure-local / constant (:class:`repro.synl.ast.VarKind`) and link it
  to its binder via a unique binding id;
* check the structural restrictions of Table 1 (field/array bases are
  variables — deeper chains must go through ``local`` bindings);
* check ``break`` / ``continue`` placement and loop labels;
* reject duplicate declarations and undeclared names.

Resolution mutates the AST in place (setting ``Var.kind``, ``Var.binding``
and ``LocalDecl.binding``) and returns a :class:`Resolution` summary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import ResolveError
from repro.synl import ast as A


@dataclass
class BindingInfo:
    """Metadata about one variable binder."""

    binding: int
    name: str
    kind: A.VarKind
    node: A.Node | None = None  # VarDecl / LocalDecl / Procedure (params)


@dataclass
class Resolution:
    """Result of resolving a program."""

    program: A.Program
    bindings: dict[int, BindingInfo] = field(default_factory=dict)

    def info(self, binding: int) -> BindingInfo:
        return self.bindings[binding]


class _Scope:
    """A chain of name -> binding-id maps."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.names: dict[str, int] = {}

    def lookup(self, name: str) -> int | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def bind(self, name: str, binding: int) -> None:
        self.names[name] = binding


class Resolver:
    def __init__(self, program: A.Program):
        self.program = program
        self.counter = itertools.count(1)
        self.resolution = Resolution(program)
        self.root = _Scope()

    def _new_binding(self, name: str, kind: A.VarKind,
                     node: A.Node | None) -> int:
        binding = next(self.counter)
        self.resolution.bindings[binding] = BindingInfo(
            binding, name, kind, node)
        return binding

    def resolve(self) -> Resolution:
        prog = self.program
        seen: set[str] = set()

        def declare(decl_name: str, kind: A.VarKind, node: A.Node) -> int:
            if decl_name in seen:
                raise ResolveError(f"duplicate declaration of {decl_name!r}",
                                   node.pos)
            seen.add(decl_name)
            binding = self._new_binding(decl_name, kind, node)
            self.root.bind(decl_name, binding)
            return binding

        for const in prog.consts:
            declare(const.name, A.VarKind.CONST, const)
        for decl in prog.globals:
            declare(decl.name, A.VarKind.GLOBAL, decl)
        for decl in prog.threadlocals:
            declare(decl.name, A.VarKind.THREADLOCAL, decl)

        proc_names: set[str] = set()
        for proc in prog.procs:
            if proc.name in proc_names:
                raise ResolveError(f"duplicate procedure {proc.name!r}",
                                   proc.pos)
            proc_names.add(proc.name)

        # Global/threadlocal initializer expressions may reference consts
        # and earlier globals only.
        for decl in prog.globals + prog.threadlocals:
            if decl.init is not None:
                self._expr(decl.init, self.root)

        if prog.init is not None:
            self._stmt(prog.init, self.root, loop_labels=[])
        if prog.threadinit is not None:
            self._stmt(prog.threadinit, self.root, loop_labels=[])

        for proc in prog.procs:
            scope = _Scope(self.root)
            for param in proc.params:
                if param in proc.param_bindings:
                    raise ResolveError(
                        f"duplicate parameter {param!r} in {proc.name}",
                        proc.pos)
                binding = self._new_binding(param, A.VarKind.PARAM, proc)
                proc.param_bindings[param] = binding
                scope.bind(param, binding)
            self._stmt(proc.body, scope, loop_labels=[])

        return self.resolution

    # -- statements -----------------------------------------------------------
    def _stmt(self, s: A.Stmt, scope: _Scope,
              loop_labels: list[str | None]) -> None:
        if isinstance(s, A.Block):
            for sub in s.stmts:
                self._stmt(sub, scope, loop_labels)
        elif isinstance(s, A.Assign):
            self._location(s.target, scope, writing=True)
            self._expr(s.value, scope)
        elif isinstance(s, A.LocalDecl):
            self._expr(s.init, scope)
            inner = _Scope(scope)
            s.binding = self._new_binding(s.name, A.VarKind.LOCAL, s)
            inner.bind(s.name, s.binding)
            self._stmt(s.body, inner, loop_labels)
        elif isinstance(s, A.If):
            self._expr(s.cond, scope)
            self._stmt(s.then, scope, loop_labels)
            if s.els is not None:
                self._stmt(s.els, scope, loop_labels)
        elif isinstance(s, A.Loop):
            if s.label is not None and s.label in loop_labels:
                raise ResolveError(f"duplicate loop label {s.label!r}", s.pos)
            self._stmt(s.body, scope, loop_labels + [s.label])
        elif isinstance(s, (A.Break, A.Continue)):
            if not loop_labels:
                raise ResolveError(
                    f"{type(s).__name__.lower()} outside of a loop", s.pos)
            if s.label is not None and s.label not in loop_labels:
                raise ResolveError(f"unknown loop label {s.label!r}", s.pos)
        elif isinstance(s, A.Return):
            if s.value is not None:
                self._expr(s.value, scope)
        elif isinstance(s, A.Skip):
            pass
        elif isinstance(s, A.Synchronized):
            self._expr(s.lock, scope)
            self._stmt(s.body, scope, loop_labels)
        elif isinstance(s, (A.Assume, A.AssertStmt)):
            self._expr(s.cond, scope)
        elif isinstance(s, A.ExprStmt):
            self._expr(s.expr, scope)
        else:
            raise ResolveError(f"unknown statement {type(s).__name__}", s.pos)

    # -- expressions ------------------------------------------------------------
    def _expr(self, e: A.Expr, scope: _Scope) -> None:
        if isinstance(e, A.Const):
            return
        if isinstance(e, A.Var):
            binding = scope.lookup(e.name)
            if binding is None:
                raise ResolveError(f"undeclared variable {e.name!r}", e.pos)
            info = self.resolution.bindings[binding]
            e.kind = info.kind
            e.binding = binding
            return
        if isinstance(e, (A.Field, A.Index)):
            self._location(e, scope, writing=False)
            return
        if isinstance(e, (A.New,)):
            return
        if isinstance(e, A.NewArray):
            self._expr(e.size, scope)
            return
        if isinstance(e, A.Unary):
            self._expr(e.operand, scope)
            return
        if isinstance(e, A.Binary):
            self._expr(e.left, scope)
            self._expr(e.right, scope)
            return
        if isinstance(e, A.PrimCall):
            for a in e.args:
                self._expr(a, scope)
            return
        if isinstance(e, (A.LLExpr, A.VLExpr)):
            self._location(e.loc, scope, writing=False)
            return
        if isinstance(e, A.SCExpr):
            self._location(e.loc, scope, writing=True)
            self._expr(e.value, scope)
            return
        if isinstance(e, A.CASExpr):
            self._location(e.loc, scope, writing=True)
            self._expr(e.expected, scope)
            self._expr(e.new, scope)
            return
        raise ResolveError(f"unknown expression {type(e).__name__}", e.pos)

    def _location(self, e: A.Expr, scope: _Scope, writing: bool) -> None:
        if isinstance(e, A.Var):
            self._expr(e, scope)
            if writing and e.kind is A.VarKind.CONST:
                raise ResolveError(f"cannot assign to constant {e.name!r}",
                                   e.pos)
            return
        if isinstance(e, A.Field):
            if not isinstance(e.base, A.Var):
                raise ResolveError(
                    "field base must be a variable (Table 1); "
                    "bind intermediate objects with 'local'", e.pos)
            self._expr(e.base, scope)
            return
        if isinstance(e, A.Index):
            self._location(e.base, scope, writing=False)
            self._expr(e.index, scope)
            return
        raise ResolveError("expected a location (x, x.fd, or x[e])", e.pos)


def resolve(program: A.Program) -> Resolution:
    """Resolve names in ``program`` (mutates the AST; see module docs)."""
    return Resolver(program).resolve()


def load_program(text: str) -> A.Program:
    """Parse **and** resolve SYNL source text — the one entry point of
    every command and library caller.  Calls to the program's own
    procedures are inlined first (:mod:`repro.synl.inline`); a program
    that makes none is resolved as parsed, without a copy."""
    from repro.synl.inline import calls_procedures, inline_calls
    from repro.synl.parser import parse_program

    program = parse_program(text)
    if calls_procedures(program):
        program = inline_calls(program)
    resolve(program)
    return program
