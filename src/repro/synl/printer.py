"""Pretty-printer for SYNL ASTs.

``parse_program(pretty(p))`` is structurally equal to ``p`` (this is
property-tested).  The printer is also used to render exceptional variants
in the style of Figure 3 of the paper.
"""

from __future__ import annotations

from repro.synl import ast as A

_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
_UNARY_PRECEDENCE = 7


def pretty_expr(e: A.Expr, parent_prec: int = 0) -> str:
    """Render an expression, inserting parentheses as needed."""
    if isinstance(e, A.Const):
        if e.value is None:
            return "null"
        if e.value is True:
            return "true"
        if e.value is False:
            return "false"
        return str(e.value)
    if isinstance(e, A.Var):
        return e.name
    if isinstance(e, A.Field):
        return f"{pretty_expr(e.base, _UNARY_PRECEDENCE + 1)}.{e.name}"
    if isinstance(e, A.Index):
        return f"{pretty_expr(e.base, _UNARY_PRECEDENCE + 1)}[{pretty_expr(e.index)}]"
    if isinstance(e, A.New):
        return f"new {e.class_name}"
    if isinstance(e, A.NewArray):
        return f"new {e.class_name}[{pretty_expr(e.size)}]"
    if isinstance(e, A.Unary):
        inner = pretty_expr(e.operand, _UNARY_PRECEDENCE)
        if e.op == "-" and inner.startswith("-"):
            inner = f"({inner})"  # avoid lexing "--" as decrement
        text = f"{e.op}{inner}"
        return text if parent_prec <= _UNARY_PRECEDENCE else f"({text})"
    if isinstance(e, A.Binary):
        prec = _PRECEDENCE[e.op]
        left = pretty_expr(e.left, prec)
        right = pretty_expr(e.right, prec + 1)  # left-associative
        text = f"{left} {e.op} {right}"
        return text if prec >= parent_prec else f"({text})"
    if isinstance(e, A.PrimCall):
        args = ", ".join(pretty_expr(a) for a in e.args)
        return f"{e.name}({args})"
    if isinstance(e, A.LLExpr):
        return f"LL({pretty_expr(e.loc)})"
    if isinstance(e, A.VLExpr):
        return f"VL({pretty_expr(e.loc)})"
    if isinstance(e, A.SCExpr):
        return f"SC({pretty_expr(e.loc)}, {pretty_expr(e.value)})"
    if isinstance(e, A.CASExpr):
        return (f"CAS({pretty_expr(e.loc)}, {pretty_expr(e.expected)}, "
                f"{pretty_expr(e.new)})")
    raise TypeError(f"unknown expression {type(e).__name__}")


def stmt_head(s: A.Stmt) -> str:
    """The first line the printer emits for ``s``: all of a simple
    statement, the header of a composite one (``if (e)``, ``loop``,
    ``local x = e in``, ...)."""
    if isinstance(s, A.Block):
        return "{"
    if isinstance(s, A.Assign):
        return f"{pretty_expr(s.target)} = {pretty_expr(s.value)};"
    if isinstance(s, A.LocalDecl):
        return f"local {s.name} = {pretty_expr(s.init)} in"
    if isinstance(s, A.If):
        return f"if ({pretty_expr(s.cond)})"
    if isinstance(s, A.Loop):
        return f"{s.label}: loop" if s.label else "loop"
    if isinstance(s, A.Break):
        return f"break {s.label};" if s.label else "break;"
    if isinstance(s, A.Continue):
        return f"continue {s.label};" if s.label else "continue;"
    if isinstance(s, A.Return):
        return "return;" if s.value is None \
            else f"return {pretty_expr(s.value)};"
    if isinstance(s, A.Skip):
        return "skip;"
    if isinstance(s, A.Synchronized):
        return f"synchronized ({pretty_expr(s.lock)})"
    if isinstance(s, A.Assume):
        return f"TRUE({pretty_expr(s.cond)});"
    if isinstance(s, A.AssertStmt):
        return f"assert({pretty_expr(s.cond)});"
    if isinstance(s, A.ExprStmt):
        return f"{pretty_expr(s.expr)};"
    raise TypeError(f"unknown statement {type(s).__name__}")


class _Printer:
    def __init__(self, indent: str = "  "):
        self.indent = indent
        self.lines: list[str] = []

    def emit(self, depth: int, text: str) -> None:
        self.lines.append(self.indent * depth + text)

    def stmt(self, s: A.Stmt, depth: int) -> None:
        self.emit(depth, stmt_head(s))
        if isinstance(s, A.Block):
            for sub in s.stmts:
                self.stmt(sub, depth + 1)
            self.emit(depth, "}")
        elif isinstance(s, A.LocalDecl):
            self.stmt(s.body, depth + 1 if not isinstance(s.body, A.Block)
                      else depth)
        elif isinstance(s, A.If):
            self.stmt(_blockify(s.then), depth)
            if s.els is not None:
                self.emit(depth, "else")
                self.stmt(_blockify(s.els), depth)
        elif isinstance(s, (A.Loop, A.Synchronized)):
            self.stmt(_blockify(s.body), depth)

    def program(self, p: A.Program) -> None:
        for c in p.consts:
            self.emit(0, f"const {c.name} = {pretty_expr(c.value)};")
        for c in p.classes:
            fields = " ".join(
                ("versioned " if f in c.versioned_fields else "") + f"{f};"
                for f in c.fields)
            self.emit(0, f"class {c.name} {{ {fields} }}")
        for d in p.globals:
            mod = "versioned " if d.versioned else ""
            init = f" = {pretty_expr(d.init)}" if d.init is not None else ""
            self.emit(0, f"global {mod}{d.name}{init};")
        for d in p.threadlocals:
            init = f" = {pretty_expr(d.init)}" if d.init is not None else ""
            self.emit(0, f"threadlocal {d.name}{init};")
        if p.init is not None:
            self.emit(0, "init")
            self.stmt(p.init, 0)
        if p.threadinit is not None:
            self.emit(0, "threadinit")
            self.stmt(p.threadinit, 0)
        for proc in p.procs:
            self.emit(0, f"proc {proc.name}({', '.join(proc.params)})")
            self.stmt(proc.body, 0)


def _blockify(s: A.Stmt) -> A.Block:
    """Wrap a non-block statement in a block for unambiguous printing."""
    if isinstance(s, A.Block):
        return s
    block = A.Block([s])
    block.at(s.pos)
    return block


def pretty_stmt(s: A.Stmt) -> str:
    printer = _Printer()
    printer.stmt(s, 0)
    return "\n".join(printer.lines)


def pretty(node: A.Node) -> str:
    """Render a program, procedure, statement, or expression as source."""
    if isinstance(node, A.Program):
        printer = _Printer()
        printer.program(node)
        return "\n".join(printer.lines) + "\n"
    if isinstance(node, A.Procedure):
        printer = _Printer()
        printer.emit(0, f"proc {node.name}({', '.join(node.params)})")
        printer.stmt(node.body, 0)
        return "\n".join(printer.lines)
    if isinstance(node, A.Stmt):
        return pretty_stmt(node)
    if isinstance(node, A.Expr):
        return pretty_expr(node)
    raise TypeError(f"cannot pretty-print {type(node).__name__}")
