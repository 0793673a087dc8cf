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
the fresh suffix ``__inline_N`` of its expansion, so no callee name can
capture the caller's result variable or a name an argument mentions:

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

_FRESH = itertools.count(1)


class Inliner:
    def __init__(self, program: A.Program):
        self.program = program
        self.procs = {p.name: p for p in program.procs}

    def run(self) -> A.Program:
        """Return a new, call-free program (original is untouched)."""
        from repro.analysis.slices import clone_stmt

        self._check_recursion()
        out_procs = []
        for proc in self.program.procs:
            body = self._stmt(proc.body)
            out_procs.append(self._mk_proc(proc, body))
        out = A.Program(
            globals=list(self.program.globals),
            threadlocals=list(self.program.threadlocals),
            consts=list(self.program.consts),
            classes=list(self.program.classes),
            procs=out_procs,
            init=self._stmt(self.program.init)
            if self.program.init is not None else None,
            threadinit=self._stmt(self.program.threadinit)
            if self.program.threadinit is not None else None,
        )
        return out

    @staticmethod
    def _mk_proc(proc: A.Procedure, body: A.Stmt) -> A.Procedure:
        block = body if isinstance(body, A.Block) else A.Block([body])
        new = A.Procedure(proc.name, list(proc.params), block)
        new.at(proc.pos)
        return new

    # -- recursion check ------------------------------------------------------------
    def _callees(self, proc: A.Procedure) -> set[str]:
        out = set()
        for node in proc.body.walk():
            if isinstance(node, A.PrimCall) and node.name in self.procs:
                out.add(node.name)
        return out

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

    # -- statement rewriting -----------------------------------------------------------
    def _stmt(self, s: A.Stmt) -> A.Stmt:
        from repro.analysis.slices import clone_expr, clone_stmt

        if isinstance(s, A.Block):
            out = A.Block([self._stmt(x) for x in s.stmts])
        elif isinstance(s, A.ExprStmt) and isinstance(s.expr, A.PrimCall) \
                and s.expr.name in self.procs:
            return self._inline_call(s.expr, result_var=None)
        elif isinstance(s, A.LocalDecl):
            if isinstance(s.init, A.PrimCall) and s.init.name in self.procs:
                inlined = self._inline_call(s.init, result_var=s.name,
                                            rest=self._stmt(s.body))
                inlined.at(s.pos)
                return inlined
            out = A.LocalDecl(s.name, clone_expr(s.init),
                              self._stmt(s.body))
        elif isinstance(s, A.If):
            self._forbid_call_in_expr(s.cond)
            out = A.If(clone_expr(s.cond), self._stmt(s.then),
                       self._stmt(s.els) if s.els is not None else None)
        elif isinstance(s, A.Loop):
            out = A.Loop(self._stmt(s.body), s.label)
        elif isinstance(s, A.Synchronized):
            out = A.Synchronized(clone_expr(s.lock), self._stmt(s.body))
        elif isinstance(s, A.Assign):
            self._forbid_call_in_expr(s.value)
            out = clone_stmt(s)
        else:
            for node in s.walk():
                if isinstance(node, A.PrimCall) \
                        and node.name in self.procs:
                    raise ResolveError(
                        f"call to {node.name!r} is only supported as a "
                        f"statement or as a local binding initializer",
                        node.pos)
            out = clone_stmt(s)
        out.at(s.pos)
        return out

    def _forbid_call_in_expr(self, e: A.Expr) -> None:
        for node in e.walk():
            if isinstance(node, A.PrimCall) and node.name in self.procs:
                raise ResolveError(
                    f"call to {node.name!r} is only supported as a "
                    f"statement or as a local binding initializer",
                    node.pos)

    # -- the expansion -------------------------------------------------------------------
    def _inline_call(self, call: A.PrimCall, result_var: str | None,
                     rest: A.Stmt | None = None) -> A.Stmt:
        from repro.analysis.slices import clone_expr

        proc = self.procs[call.name]
        if len(call.args) != len(proc.params):
            raise ResolveError(
                f"{call.name} expects {len(proc.params)} arguments, "
                f"got {len(call.args)}", call.pos)
        label = f"__inline_{next(_FRESH)}"
        # the callee body may itself contain calls: rewrite it first;
        # then give every binder it copies a fresh name, so none can
        # capture the caller's result variable or argument names
        params = {p: p + label for p in proc.params}
        body = self._stmt(proc.body)
        _rename_binders(body, params, label)
        # a body that always returns gets no fall-off break: slicing
        # would take that dead break for an exit of the procedure
        stmts = [_rewrite_returns(body, result_var, label)]
        if _completes(body):
            stmts.append(A.Break(label))
        inner: A.Stmt = A.Block(stmts)
        # bind parameters innermost-last; the arguments are evaluated
        # in the caller's scope
        for param, arg in zip(reversed(proc.params),
                              reversed(list(call.args))):
            self._forbid_call_in_expr(arg)
            inner = A.LocalDecl(params[param], clone_expr(arg), inner)
        wrapper = A.Loop(A.Block([inner]), label)
        if result_var is None:
            assert rest is None
            return A.Block([wrapper])
        zero = A.Const(0)
        seq = A.Block([wrapper] + (
            rest.stmts if isinstance(rest, A.Block) else [rest]))
        return A.LocalDecl(result_var, zero, seq)


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
    """Replace ``return [e]`` by ``[result = e;] break label;``.
    Unlabelled breaks/continues belong to the callee's own loops and are
    left untouched (the wrapper loop is only exited via the label)."""
    from repro.analysis.slices import clone_expr, clone_stmt

    if isinstance(s, A.Return):
        stmts: list[A.Stmt] = []
        if result_var is not None and s.value is not None:
            target = A.Var(result_var)
            target.at(s.pos)
            assign = A.Assign(target, clone_expr(s.value))
            assign.at(s.pos)
            stmts.append(assign)
        brk = A.Break(label)
        brk.at(s.pos)
        stmts.append(brk)
        out: A.Stmt = A.Block(stmts)
        out.at(s.pos)
        return out
    if isinstance(s, A.Block):
        out = A.Block([_rewrite_returns(x, result_var, label)
                       for x in s.stmts])
    elif isinstance(s, A.LocalDecl):
        out = A.LocalDecl(s.name, clone_expr(s.init),
                          _rewrite_returns(s.body, result_var, label))
    elif isinstance(s, A.If):
        out = A.If(clone_expr(s.cond),
                   _rewrite_returns(s.then, result_var, label),
                   _rewrite_returns(s.els, result_var, label)
                   if s.els is not None else None)
    elif isinstance(s, A.Loop):
        out = A.Loop(_rewrite_returns(s.body, result_var, label), s.label)
    elif isinstance(s, A.Synchronized):
        out = A.Synchronized(clone_expr(s.lock),
                             _rewrite_returns(s.body, result_var, label))
    else:
        return clone_stmt(s)
    out.at(s.pos)
    return out


def calls_procedures(program: A.Program) -> bool:
    """Does the program call one of its own procedures anywhere?"""
    names = {p.name for p in program.procs}
    return any(isinstance(node, A.PrimCall) and node.name in names
               for node in program.walk())


def inline_calls(program: A.Program) -> A.Program:
    """Inline all procedure calls; returns a fresh *unresolved* program
    (:func:`repro.synl.resolve.load_program` resolves it)."""
    return Inliner(program).run()
