"""Recursive-descent parser for SYNL.

Grammar (concrete syntax; the paper only defines abstract syntax):

.. code-block:: text

    program     := topdecl*
    topdecl     := 'global' ['versioned'] varinit (',' varinit)* ';'
                 | 'threadlocal' varinit (',' varinit)* ';'
                 | 'const' IDENT '=' literal ';'
                 | 'class' IDENT '{' IDENT (';' IDENT)* [';'] '}'
                 | 'proc' IDENT '(' [IDENT (',' IDENT)*] ')' block
                 | 'init' block
                 | 'threadinit' block
    varinit     := IDENT ['=' expr]
    stmt        := block | local | if | loop | while | jump | 'skip' ';'
                 | synchronized | assume | assert | assign | exprstmt
    local       := 'local' IDENT '=' expr 'in' stmt
    loop        := [IDENT ':'] 'loop' stmt
    while       := [IDENT ':'] 'while' '(' expr ')' stmt    (sugar)
    assign      := location ('=' expr | '++' | '--') ';'
    assume      := 'TRUE' '(' expr ')' ';'

``x++;`` desugars to ``x = x + 1;`` and ``while (e) s`` to
``loop { if (e) s else break; }``.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.synl import ast as A
from repro.synl.lexer import tokenize
from repro.synl.tokens import Token, TokenKind as T


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    # -- token helpers ------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        j = min(self.i + offset, len(self.toks) - 1)
        return self.toks[j]

    def _at(self, kind: T, offset: int = 0) -> bool:
        return self._peek(offset).kind is kind

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not T.EOF:
            self.i += 1
        return tok

    def _expect(self, kind: T) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r}, found {tok.text or tok.kind.value!r}",
                tok.pos)
        return self._advance()

    def _accept(self, kind: T) -> Token | None:
        if self._at(kind):
            return self._advance()
        return None

    # -- program ------------------------------------------------------------
    def parse_program(self) -> A.Program:
        globals_: list[A.VarDecl] = []
        threadlocals: list[A.VarDecl] = []
        consts: list[A.ConstDecl] = []
        classes: list[A.ClassDecl] = []
        procs: list[A.Procedure] = []
        init: A.Block | None = None
        threadinit: A.Block | None = None

        while not self._at(T.EOF):
            tok = self._peek()
            if tok.kind is T.GLOBAL:
                self._advance()
                versioned = self._accept(T.VERSIONED) is not None
                globals_.extend(self._var_decls(versioned))
            elif tok.kind is T.THREADLOCAL:
                self._advance()
                threadlocals.extend(self._var_decls(False))
            elif tok.kind is T.CONST:
                self._advance()
                name = self._expect(T.IDENT).text
                self._expect(T.ASSIGN)
                value = self._literal()
                self._expect(T.SEMI)
                decl = A.ConstDecl(name, value)
                decl.at(tok.pos)
                consts.append(decl)
            elif tok.kind is T.CLASS:
                classes.append(self._class_decl())
            elif tok.kind is T.PROC:
                procs.append(self._procedure())
            elif tok.kind is T.INIT:
                self._advance()
                if init is not None:
                    raise ParseError("duplicate init block", tok.pos)
                init = self._block()
            elif tok.kind is T.THREADINIT:
                self._advance()
                if threadinit is not None:
                    raise ParseError("duplicate threadinit block", tok.pos)
                threadinit = self._block()
            else:
                raise ParseError(
                    f"expected top-level declaration, found {tok.text!r}",
                    tok.pos)

        prog = A.Program(globals_, threadlocals, consts, classes, procs,
                         init, threadinit)
        return prog

    def _var_decls(self, versioned: bool) -> list[A.VarDecl]:
        decls = []
        while True:
            tok = self._expect(T.IDENT)
            init = None
            if self._accept(T.ASSIGN):
                init = self._expr()
            decl = A.VarDecl(tok.text, init, versioned)
            decl.at(tok.pos)
            decls.append(decl)
            if not self._accept(T.COMMA):
                break
        self._expect(T.SEMI)
        return decls

    def _class_decl(self) -> A.ClassDecl:
        tok = self._expect(T.CLASS)
        name = self._expect(T.IDENT).text
        self._expect(T.LBRACE)
        fields: list[str] = []
        versioned: set[str] = set()
        while not self._at(T.RBRACE):
            is_versioned = self._accept(T.VERSIONED) is not None
            fd = self._expect(T.IDENT).text
            fields.append(fd)
            if is_versioned:
                versioned.add(fd)
            self._expect(T.SEMI)
        self._expect(T.RBRACE)
        decl = A.ClassDecl(name, fields, frozenset(versioned))
        decl.at(tok.pos)
        return decl

    def _procedure(self) -> A.Procedure:
        tok = self._expect(T.PROC)
        name = self._expect(T.IDENT).text
        self._expect(T.LPAREN)
        params: list[str] = []
        if not self._at(T.RPAREN):
            while True:
                params.append(self._expect(T.IDENT).text)
                if not self._accept(T.COMMA):
                    break
        self._expect(T.RPAREN)
        body = self._block()
        proc = A.Procedure(name, params, body)
        proc.at(tok.pos)
        return proc

    def _literal(self) -> A.Const:
        tok = self._peek()
        if self._accept(T.INT):
            node = A.Const(int(tok.text))
        elif self._accept(T.MINUS):
            itok = self._expect(T.INT)
            node = A.Const(-int(itok.text))
        elif self._accept(T.TRUE_LIT):
            node = A.Const(True)
        elif self._accept(T.FALSE_LIT):
            node = A.Const(False)
        elif self._accept(T.NULL):
            node = A.Const(None)
        else:
            raise ParseError("expected literal", tok.pos)
        node.at(tok.pos)
        return node

    # -- statements ----------------------------------------------------------
    def _block(self) -> A.Block:
        tok = self._expect(T.LBRACE)
        stmts: list[A.Stmt] = []
        while not self._at(T.RBRACE):
            stmts.append(self._stmt())
        self._expect(T.RBRACE)
        blk = A.Block(stmts)
        blk.at(tok.pos)
        return blk

    def _stmt(self) -> A.Stmt:
        tok = self._peek()
        kind = tok.kind

        # optional loop label:  IDENT ':' (loop|while)
        if (kind is T.IDENT and self._at(T.COLON, 1)
                and self._peek(2).kind in (T.LOOP, T.WHILE)):
            label = self._advance().text
            self._advance()  # ':'
            return self._loop_stmt(label)

        if kind is T.LBRACE:
            return self._block()
        if kind is T.LOCAL:
            return self._local()
        if kind is T.IF:
            return self._if()
        if kind in (T.LOOP, T.WHILE):
            return self._loop_stmt(None)
        if kind is T.BREAK:
            self._advance()
            label = self._accept(T.IDENT)
            self._expect(T.SEMI)
            node = A.Break(label.text if label else None)
            node.at(tok.pos)
            return node
        if kind is T.CONTINUE:
            self._advance()
            label = self._accept(T.IDENT)
            self._expect(T.SEMI)
            node = A.Continue(label.text if label else None)
            node.at(tok.pos)
            return node
        if kind is T.RETURN:
            self._advance()
            value = None if self._at(T.SEMI) else self._expr()
            self._expect(T.SEMI)
            node = A.Return(value)
            node.at(tok.pos)
            return node
        if kind is T.SKIP:
            self._advance()
            self._expect(T.SEMI)
            node = A.Skip()
            node.at(tok.pos)
            return node
        if kind is T.SYNCHRONIZED:
            self._advance()
            self._expect(T.LPAREN)
            lock = self._expr()
            self._expect(T.RPAREN)
            body = self._stmt()
            node = A.Synchronized(lock, body)
            node.at(tok.pos)
            return node
        if kind is T.TRUE_KW:
            self._advance()
            self._expect(T.LPAREN)
            cond = self._expr()
            self._expect(T.RPAREN)
            self._expect(T.SEMI)
            node = A.Assume(cond)
            node.at(tok.pos)
            return node
        if kind is T.ASSERT:
            self._advance()
            self._expect(T.LPAREN)
            cond = self._expr()
            self._expect(T.RPAREN)
            self._expect(T.SEMI)
            node = A.AssertStmt(cond)
            node.at(tok.pos)
            return node

        # assignment, increment, or expression statement
        e = self._expr()
        if self._accept(T.ASSIGN):
            if not A.is_location(e):
                raise ParseError("assignment target is not a location",
                                 tok.pos)
            value = self._expr()
            self._expect(T.SEMI)
            node = A.Assign(e, value)
            node.at(tok.pos)
            return node
        if self._at(T.PLUSPLUS) or self._at(T.MINUSMINUS):
            op = "+" if self._advance().kind is T.PLUSPLUS else "-"
            self._expect(T.SEMI)
            if not A.is_location(e):
                raise ParseError("increment target is not a location",
                                 tok.pos)
            bump = A.Binary(op, e.clone(), A.Const(1))
            bump.at(tok.pos)
            node = A.Assign(e, bump)
            node.at(tok.pos)
            return node
        self._expect(T.SEMI)
        node = A.ExprStmt(e)
        node.at(tok.pos)
        return node

    def _local(self) -> A.LocalDecl:
        tok = self._expect(T.LOCAL)
        name = self._expect(T.IDENT).text
        self._expect(T.ASSIGN)
        init = self._expr()
        self._expect(T.IN)
        body = self._stmt()
        node = A.LocalDecl(name, init, body)
        node.at(tok.pos)
        return node

    def _if(self) -> A.If:
        tok = self._expect(T.IF)
        self._expect(T.LPAREN)
        cond = self._expr()
        self._expect(T.RPAREN)
        then = self._stmt()
        els = self._stmt() if self._accept(T.ELSE) else None
        node = A.If(cond, then, els)
        node.at(tok.pos)
        return node

    def _loop_stmt(self, label: str | None) -> A.Stmt:
        tok = self._peek()
        if self._accept(T.LOOP):
            body = self._stmt()
            node = A.Loop(body, label)
            node.at(tok.pos)
            return node
        # while (e) s  ==>  loop { if (e) s else break; }
        self._expect(T.WHILE)
        self._expect(T.LPAREN)
        cond = self._expr()
        self._expect(T.RPAREN)
        body = self._stmt()
        brk = A.Break(label=None)
        brk.at(tok.pos)
        guard = A.If(cond, body, brk)
        guard.at(tok.pos)
        blk = A.Block([guard])
        blk.at(tok.pos)
        node = A.Loop(blk, label)
        node.at(tok.pos)
        return node

    # -- expressions ----------------------------------------------------------
    def _expr(self) -> A.Expr:
        return self._or()

    def _binary_level(self, sub, ops: dict[T, str]) -> A.Expr:
        left = sub()
        while self._peek().kind in ops:
            tok = self._advance()
            right = sub()
            left = A.Binary(ops[tok.kind], left, right)
            left.at(tok.pos)
        return left

    def _or(self) -> A.Expr:
        return self._binary_level(self._and, {T.OR: "||"})

    def _and(self) -> A.Expr:
        return self._binary_level(self._equality, {T.AND: "&&"})

    def _equality(self) -> A.Expr:
        return self._binary_level(self._relational,
                                  {T.EQ: "==", T.NE: "!="})

    def _relational(self) -> A.Expr:
        return self._binary_level(
            self._additive,
            {T.LT: "<", T.LE: "<=", T.GT: ">", T.GE: ">="})

    def _additive(self) -> A.Expr:
        return self._binary_level(self._multiplicative,
                                  {T.PLUS: "+", T.MINUS: "-"})

    def _multiplicative(self) -> A.Expr:
        return self._binary_level(self._unary,
                                  {T.STAR: "*", T.SLASH: "/",
                                   T.PERCENT: "%"})

    def _unary(self) -> A.Expr:
        tok = self._peek()
        if self._accept(T.NOT):
            node = A.Unary("!", self._unary())
            node.at(tok.pos)
            return node
        if self._accept(T.MINUS):
            node = A.Unary("-", self._unary())
            node.at(tok.pos)
            return node
        return self._postfix()

    def _postfix(self) -> A.Expr:
        e = self._primary()
        while True:
            tok = self._peek()
            if self._accept(T.DOT):
                name = self._expect(T.IDENT).text
                e = A.Field(e, name)
                e.at(tok.pos)
            elif self._accept(T.LBRACKET):
                index = self._expr()
                self._expect(T.RBRACKET)
                e = A.Index(e, index)
                e.at(tok.pos)
            else:
                return e

    def _primary(self) -> A.Expr:
        tok = self._peek()
        kind = tok.kind
        if kind is T.INT:
            self._advance()
            node = A.Const(int(tok.text))
        elif kind is T.TRUE_LIT:
            self._advance()
            node = A.Const(True)
        elif kind is T.FALSE_LIT:
            self._advance()
            node = A.Const(False)
        elif kind is T.NULL:
            self._advance()
            node = A.Const(None)
        elif kind is T.LPAREN:
            self._advance()
            node = self._expr()
            self._expect(T.RPAREN)
            return node
        elif kind is T.NEW:
            self._advance()
            cname = self._expect(T.IDENT).text
            if self._accept(T.LBRACKET):
                size = self._expr()
                self._expect(T.RBRACKET)
                node = A.NewArray(cname, size)
            else:
                node = A.New(cname)
        elif kind is T.LL:
            self._advance()
            self._expect(T.LPAREN)
            loc = self._location()
            self._expect(T.RPAREN)
            node = A.LLExpr(loc)
        elif kind is T.VL:
            self._advance()
            self._expect(T.LPAREN)
            loc = self._location()
            self._expect(T.RPAREN)
            node = A.VLExpr(loc)
        elif kind is T.SC:
            self._advance()
            self._expect(T.LPAREN)
            loc = self._location()
            self._expect(T.COMMA)
            value = self._expr()
            self._expect(T.RPAREN)
            node = A.SCExpr(loc, value)
        elif kind is T.CAS:
            self._advance()
            self._expect(T.LPAREN)
            loc = self._location()
            self._expect(T.COMMA)
            expected = self._expr()
            self._expect(T.COMMA)
            new = self._expr()
            self._expect(T.RPAREN)
            node = A.CASExpr(loc, expected, new)
        elif kind is T.IDENT:
            self._advance()
            if self._at(T.LPAREN):
                self._advance()
                args: list[A.Expr] = []
                if not self._at(T.RPAREN):
                    while True:
                        args.append(self._expr())
                        if not self._accept(T.COMMA):
                            break
                self._expect(T.RPAREN)
                node = A.PrimCall(tok.text, args)
            else:
                node = A.Var(tok.text)
        else:
            raise ParseError(
                f"expected expression, found {tok.text or kind.value!r}",
                tok.pos)
        node.at(tok.pos)
        return node

    def _location(self) -> A.Expr:
        e = self._postfix()
        if not A.is_location(e):
            raise ParseError("expected a location (x, x.fd, or x[e])",
                             self._peek().pos)
        return e


def parse_program(text: str) -> A.Program:
    """Parse SYNL source text into an (unresolved) :class:`Program`."""
    return Parser(tokenize(text)).parse_program()


def parse_stmt(text: str) -> A.Stmt:
    """Parse a single statement (testing convenience)."""
    parser = Parser(tokenize(text))
    stmt = parser._stmt()
    parser._expect(T.EOF)
    return stmt


def parse_expr(text: str) -> A.Expr:
    """Parse a single expression (testing convenience)."""
    parser = Parser(tokenize(text))
    expr = parser._expr()
    parser._expect(T.EOF)
    return expr
