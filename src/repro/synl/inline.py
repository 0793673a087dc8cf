"""Procedure-call inlining.

SYNL has no explicit procedure calls: the paper's model is that
"internal procedures are inlined, and we do not handle recursion"
(§1).  This pass automates that convention, so programs can be written
with helper procedures and lowered to core SYNL before analysis or
execution.

A call is written like a primitive application whose name matches a
declared procedure:

* statement position — ``Helper(a, b);``
* binding position  — ``local x = Helper(a, b) in S``

Inlining replaces the call by the callee's body with parameters bound
to the arguments; ``return e`` statements become an assignment to the
result variable plus a ``break`` out of a wrapper loop.  Every binder
copied from the callee (its parameters and its ``local`` names) gets
the fresh suffix ``__inline_N`` of its expansion (``N`` counts the
expansions of one program, from 1), so no callee name can capture the
caller's result variable or a name an argument mentions:

.. code-block:: text

    local x = Helper(a) in S
    =>
    local x = 0 in {
      __inline_N: loop {
        local p__inline_N = a in {    # one binder per parameter
          <body with each binder y renamed y__inline_N, and
           `return e` -> { x = e; break __inline_N; }>
        }
        break __inline_N;             # only for a body that can fall
      }                               # off its end
      S
    }

Mutual or direct recursion is rejected (as in the paper).  Primitive
names that are not procedure names are left alone, so existing
programs are unaffected.
"""

from __future__ import annotations

import itertools

from repro.errors import ResolveError
from repro.synl import ast as A


class Inliner:
    def __init__(self, program: A.Program):
        self.program = program
        self.procs = {p.name: p for p in program.procs}
        self._fresh = itertools.count(1)  # expansions of this run

    def run(self) -> A.Program:
        """Return a new, call-free program (original is untouched)."""
        self._check_recursion()
        self._check_call_positions()
        out = self.program.clone()
        for proc in out.procs:
            proc.body = self._stmt(proc.body)
        if out.init is not None:
            out.init = self._stmt(out.init)
        if out.threadinit is not None:
            out.threadinit = self._stmt(out.threadinit)
        return out

    def _is_call(self, e: A.Expr) -> bool:
        return isinstance(e, A.PrimCall) and e.name in self.procs

    # -- recursion check ------------------------------------------------------------
    def _callees(self, proc: A.Procedure) -> set[str]:
        return {node.name for node in proc.body.walk()
                if self._is_call(node)}

    def _check_recursion(self) -> None:
        graph = {name: self._callees(proc)
                 for name, proc in self.procs.items()}
        seen: dict[str, int] = {}  # 0 = in progress, 1 = done

        def visit(name: str, stack: list[str]) -> None:
            state = seen.get(name)
            if state == 1:
                return
            if state == 0:
                cycle = " -> ".join(stack + [name])
                raise ResolveError(
                    f"recursive procedure calls are not supported "
                    f"(the paper inlines all calls): {cycle}")
            seen[name] = 0
            for callee in graph[name]:
                visit(callee, stack + [name])
            seen[name] = 1

        for name in graph:
            visit(name, [])

    def _check_call_positions(self) -> None:
        """Calls are statements or ``local`` initializers, nothing else
        (a pre-order walk meets the statement before its call)."""
        allowed: set[int] = set()
        for node in self.program.walk():
            if isinstance(node, A.ExprStmt):
                allowed.add(id(node.expr))
            elif isinstance(node, A.LocalDecl):
                allowed.add(id(node.init))
            elif self._is_call(node) and id(node) not in allowed:
                raise ResolveError(
                    f"call to {node.name!r} is only supported as a "
                    f"statement or as a local binding initializer",
                    node.pos)

    # -- statement rewriting -----------------------------------------------------------
    def _stmt(self, s: A.Stmt) -> A.Stmt:
        """Inline the calls in ``s``, a copy this run owns, in place;
        returns the statement that replaces ``s``."""
        if isinstance(s, A.ExprStmt) and self._is_call(s.expr):
            return self._inline_call(s.expr, result_var=None)
        if isinstance(s, A.LocalDecl) and self._is_call(s.init):
            rest = self._stmt(s.body)
            return self._inline_call(s.init, result_var=s.name,
                                     rest=rest).at(s.pos)
        return _map_stmts(s, self._stmt)

    # -- the expansion -------------------------------------------------------------------
    def _inline_call(self, call: A.PrimCall, result_var: str | None,
                     rest: A.Stmt | None = None) -> A.Stmt:
        proc = self.procs[call.name]
        if len(call.args) != len(proc.params):
            raise ResolveError(
                f"{call.name} expects {len(proc.params)} arguments, "
                f"got {len(call.args)}", call.pos)
        label = f"__inline_{next(self._fresh)}"
        # a fresh copy of the callee body, its own calls inlined; then
        # every binder it copies gets a fresh name, so none can capture
        # the caller's result variable or argument names
        params = {p: p + label for p in proc.params}
        body = self._stmt(proc.body.clone())
        _rename_binders(body, params, label)
        # a body that always returns gets no fall-off break: slicing
        # would take that dead break for an exit of the procedure
        completes = _completes(body)
        stmts = [_rewrite_returns(body, result_var, label)]
        if completes:
            stmts.append(A.Break(label))
        inner: A.Stmt = A.Block(stmts)
        # bind parameters innermost-last; the arguments are evaluated
        # in the caller's scope
        for param, arg in zip(reversed(proc.params), reversed(call.args)):
            inner = A.LocalDecl(params[param], arg, inner)
        wrapper = A.Loop(A.Block([inner]), label)
        if result_var is None:
            assert rest is None
            return A.Block([wrapper])
        zero = A.Const(0)
        seq = A.Block([wrapper] + (
            rest.stmts if isinstance(rest, A.Block) else [rest]))
        return A.LocalDecl(result_var, zero, seq)


def _map_stmts(s: A.Stmt, rewrite) -> A.Stmt:
    """Replace each child statement ``c`` of ``s`` by ``rewrite(c)``, in
    place, in field order; returns ``s``."""
    for name in s._fields:
        value = getattr(s, name)
        if isinstance(value, A.Stmt):
            setattr(s, name, rewrite(value))
        elif isinstance(value, list):
            value[:] = [rewrite(x) for x in value]
    return s


def _rename_binders(s: A.Stmt, names: dict[str, str],
                    suffix: str) -> None:
    """Rename, in place, the variables of a freshly copied callee body
    that ``names`` maps (its parameters) and every ``local`` it binds
    (``x`` becomes ``x`` + ``suffix``), respecting scopes."""
    if isinstance(s, A.LocalDecl):
        _rename_vars(s.init, names)
        names = {**names, s.name: s.name + suffix}
        s.name = names[s.name]
        _rename_binders(s.body, names, suffix)
        return
    for child in s.children():
        if isinstance(child, A.Stmt):
            _rename_binders(child, names, suffix)
        else:
            _rename_vars(child, names)


def _rename_vars(e: A.Expr, names: dict[str, str]) -> None:
    for node in e.walk():
        if isinstance(node, A.Var) and node.name in names:
            node.name = names[node.name]


def _completes(s: A.Stmt) -> bool:
    """Can ``s`` complete normally, falling through to what follows it?
    ``return``, ``break`` and ``continue`` cannot; a loop can only
    when a ``break`` in it exits it.  Conservative: every other
    statement can, so a ``true`` answer may be wrong but a ``false``
    one is not."""
    if isinstance(s, (A.Return, A.Break, A.Continue)):
        return False
    if isinstance(s, A.Block):
        return all(_completes(x) for x in s.stmts)
    if isinstance(s, (A.LocalDecl, A.Synchronized)):
        return _completes(s.body)
    if isinstance(s, A.If):
        return s.els is None or _completes(s.then) or _completes(s.els)
    if isinstance(s, A.Loop):
        return _breaks_out(s.body, s.label)
    return True


def _breaks_out(s: A.Stmt, label: str | None, nested: bool = False) -> bool:
    """Does ``s``, in the body of the loop labelled ``label``, hold a
    ``break`` that exits that loop: one naming ``label``, or an
    unlabelled one outside the ``nested`` loops?"""
    if isinstance(s, A.Break):
        return s.label == label if s.label is not None else not nested
    nested = nested or isinstance(s, A.Loop)
    return any(_breaks_out(child, label, nested) for child in s.children()
               if isinstance(child, A.Stmt))


def _rewrite_returns(s: A.Stmt, result_var: str | None,
                     label: str) -> A.Stmt:
    """Replace, in place, ``return [e]`` by ``[result = e;] break label;``.
    Unlabelled breaks/continues belong to the callee's own loops and are
    left untouched (the wrapper loop is only exited via the label)."""
    if not isinstance(s, A.Return):
        return _map_stmts(
            s, lambda sub: _rewrite_returns(sub, result_var, label))
    stmts: list[A.Stmt] = []
    if result_var is not None and s.value is not None:
        target = A.Var(result_var).at(s.pos)
        stmts.append(A.Assign(target, s.value).at(s.pos))
    stmts.append(A.Break(label).at(s.pos))
    return A.Block(stmts).at(s.pos)


def calls_procedures(program: A.Program) -> bool:
    """Does the program call one of its own procedures anywhere?"""
    names = {p.name for p in program.procs}
    return any(isinstance(node, A.PrimCall) and node.name in names
               for node in program.walk())


def inline_calls(program: A.Program) -> A.Program:
    """Inline all procedure calls; returns a fresh *unresolved* program
    (:func:`repro.synl.resolve.load_program` resolves it)."""
    return Inliner(program).run()
