"""Simple flow-insensitive class inference for SYNL programs.

The paper's alias analysis "checks whether the references have the same
type and whether the same field is being accessed" (§5.4, step 4).  To
know reference types we infer, for every global variable, local binding
and ``(class, field)`` pair, the set of object classes it may hold, by a
small constraint fixpoint over all assignments in the program.

Arrays are given pseudo-classes ``"C[]"``; array element cells are the
region ``("elem", "C[]")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.synl import ast as A

# Region keys for the class environment:
#   ("g", name)           global variable
#   ("b", binding)        local/threadlocal/param binding
#   ("f", class, field)   field cell of a class
#   ("e", array_class)    element cell of an array pseudo-class


@dataclass
class ClassEnv:
    classes: dict[tuple, frozenset[str]] = field(default_factory=dict)

    def get(self, key: tuple) -> frozenset[str]:
        return self.classes.get(key, frozenset())

    def add(self, key: tuple, values: frozenset[str]) -> bool:
        if not values:
            return False
        old = self.classes.get(key, frozenset())
        new = old | values
        if new != old:
            self.classes[key] = new
            return True
        return False

    # -- public queries -----------------------------------------------------
    def of_global(self, name: str) -> frozenset[str]:
        return self.get(("g", name))

    def of_binding(self, binding: int) -> frozenset[str]:
        return self.get(("b", binding))

    def of_field(self, classes: frozenset[str], fd: str) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for c in classes:
            out |= self.get(("f", c, fd))
        return out


def versioned(program: A.Program, env: ClassEnv, target) -> bool:
    """Is the region of ``target`` (an
    :class:`~repro.analysis.actions.Target`) covered by a modification
    counter (§5.2)?  The discipline query of both the inference engine
    (Thm 5.4 windows) and the linter's ``aba.*`` rules."""
    if target.kind == "global" or target.binding is None:
        # plain global, or an element/field of an object named directly
        # by a global: use the global's declaration flag
        return next((d.versioned for d in program.globals
                     if d.name == target.name), False)
    if target.kind in ("field", "elem"):
        classes = env.of_binding(target.binding)
        return bool(classes) and all(
            (cls := program.class_decl(c)) is not None
            and target.field in cls.versioned_fields for c in classes)
    return False


class _Inference:
    def __init__(self, program: A.Program):
        self.program = program
        self.env = ClassEnv()
        self.changed = True

    def run(self) -> ClassEnv:
        while self.changed:
            self.changed = False
            for decl in self.program.globals + self.program.threadlocals:
                if decl.init is not None:
                    key = ("g", decl.name) if decl in self.program.globals \
                        else ("tl", decl.name)
                    self._flow(self.env_expr(decl.init), ("g", decl.name)
                               if decl in self.program.globals else key)
            for block in (self.program.init, self.program.threadinit):
                if block is not None:
                    self._stmt(block)
            for proc in self.program.procs:
                self._stmt(proc.body)
        return self.env

    def _flow(self, values: frozenset[str], key: tuple) -> None:
        if self.env.add(key, values):
            self.changed = True

    # -- expressions ----------------------------------------------------------
    def env_expr(self, e: A.Expr) -> frozenset[str]:
        if isinstance(e, A.New):
            return frozenset([e.class_name])
        if isinstance(e, A.NewArray):
            # allocation-site array classes: two arrays allocated at
            # different sites never alias, even with the same element
            # class (e.g. the allocator's Anchors vs FreeNext)
            return frozenset([f"{e.class_name}[]@{e.nid}"])
        if isinstance(e, A.Var):
            if e.kind is A.VarKind.GLOBAL:
                return self.env.of_global(e.name)
            if e.kind is A.VarKind.THREADLOCAL:
                return self.env.get(("g", e.name))  # threadlocals share key
            if e.binding is not None:
                return self.env.of_binding(e.binding)
            return frozenset()
        if isinstance(e, A.Field):
            return self.env.of_field(self.env_expr(e.base), e.name)
        if isinstance(e, A.Index):
            out: frozenset[str] = frozenset()
            for c in self.env_expr(e.base):
                out |= self.env.get(("e", c))
            return out
        if isinstance(e, A.LLExpr):
            return self.env_expr(e.loc)
        if isinstance(e, (A.SCExpr, A.VLExpr, A.CASExpr, A.Unary, A.Binary,
                          A.PrimCall, A.Const)):
            return frozenset()
        raise TypeError(f"unknown expression {type(e).__name__}")

    def _loc_key(self, loc: A.Expr) -> list[tuple]:
        """Region keys an assignment to ``loc`` feeds."""
        if isinstance(loc, A.Var):
            if loc.kind in (A.VarKind.GLOBAL, A.VarKind.THREADLOCAL):
                return [("g", loc.name)]
            return [("b", loc.binding)]
        if isinstance(loc, A.Field):
            return [("f", c, loc.name) for c in self.env_expr(loc.base)]
        if isinstance(loc, A.Index):
            return [("e", c) for c in self.env_expr(loc.base)]
        raise TypeError(f"not a location: {type(loc).__name__}")

    def _assign(self, loc: A.Expr, value_classes: frozenset[str]) -> None:
        for key in self._loc_key(loc):
            self._flow(value_classes, key)

    # -- statements -----------------------------------------------------------
    def _stmt(self, s: A.Stmt) -> None:
        if isinstance(s, A.Block):
            for sub in s.stmts:
                self._stmt(sub)
        elif isinstance(s, A.Assign):
            self._assign(s.target, self.env_expr(s.value))
            self._expr(s.value)
        elif isinstance(s, A.LocalDecl):
            self._flow(self.env_expr(s.init), ("b", s.binding))
            self._expr(s.init)
            self._stmt(s.body)
        elif isinstance(s, A.If):
            self._expr(s.cond)
            self._stmt(s.then)
            if s.els is not None:
                self._stmt(s.els)
        elif isinstance(s, A.Loop):
            self._stmt(s.body)
        elif isinstance(s, (A.Break, A.Continue, A.Skip)):
            pass
        elif isinstance(s, A.Return):
            if s.value is not None:
                self._expr(s.value)
        elif isinstance(s, A.Synchronized):
            self._expr(s.lock)
            self._stmt(s.body)
        elif isinstance(s, (A.Assume, A.AssertStmt)):
            self._expr(s.cond)
        elif isinstance(s, A.ExprStmt):
            self._expr(s.expr)
        else:  # pragma: no cover
            raise TypeError(f"unknown statement {type(s).__name__}")

    def _expr(self, e: A.Expr) -> None:
        """Record flows from SC/CAS embedded in an expression."""
        if isinstance(e, A.SCExpr):
            self._assign(e.loc, self.env_expr(e.value))
            self._expr(e.value)
        elif isinstance(e, A.CASExpr):
            self._assign(e.loc, self.env_expr(e.new))
            self._expr(e.expected)
            self._expr(e.new)
        elif isinstance(e, (A.Unary,)):
            self._expr(e.operand)
        elif isinstance(e, A.Binary):
            self._expr(e.left)
            self._expr(e.right)
        elif isinstance(e, A.PrimCall):
            for a in e.args:
                self._expr(a)
        elif isinstance(e, A.NewArray):
            self._expr(e.size)
        elif isinstance(e, (A.LLExpr, A.VLExpr)):
            pass
        # other expression forms carry no flows


def infer_classes(program: A.Program) -> ClassEnv:
    """Infer the class environment of a resolved program."""
    return _Inference(program).run()
