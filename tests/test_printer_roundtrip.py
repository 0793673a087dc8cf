"""Printer round-trip: parse(pretty(x)) is structurally equal to x —
checked on the whole corpus and property-tested on generated ASTs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import corpus
from repro.errors import SourcePos
from repro.synl import ast as A
from repro.synl.parser import parse_expr, parse_program, parse_stmt
from repro.synl.printer import pretty, pretty_expr, pretty_stmt
from repro.synl.resolve import load_program

ALL_SOURCES = [
    corpus.NFQ, corpus.NFQ_PRIME, corpus.NFQ_PRIME_BUGGY,
    corpus.HERLIHY_SMALL, corpus.GH_PROGRAM1, corpus.GH_PROGRAM2,
    corpus.GH_FULL, corpus.GH_FULL_FIXED, corpus.ALLOCATOR,
    corpus.CAS_COUNTER, corpus.SEMAPHORE, corpus.SPIN_LOCK,
    corpus.TREIBER_STACK, corpus.LOCKED_REGISTER,
]


@pytest.mark.parametrize("source", ALL_SOURCES,
                         ids=lambda s: s.strip().splitlines()[0][:25])
def test_corpus_roundtrip(source):
    prog = parse_program(source)
    again = parse_program(pretty(prog))
    assert A.structural_eq(prog, again)


@pytest.mark.parametrize("source", ALL_SOURCES,
                         ids=lambda s: s.strip().splitlines()[0][:25])
def test_corpus_pretty_is_stable(source):
    prog = parse_program(source)
    once = pretty(prog)
    twice = pretty(parse_program(once))
    assert once == twice


# -- generated expression round trips ------------------------------------------

_names = st.sampled_from(["x", "y", "Tail", "next", "prv"])


def _exprs():
    leaves = st.one_of(
        st.integers(min_value=0, max_value=99).map(A.Const),
        st.booleans().map(A.Const),
        st.just(None).map(A.Const),
        _names.map(A.Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "==", "!=", "<",
                                       "&&", "||"]),
                      children, children).map(
                lambda t: A.Binary(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(["!", "-"]), children).map(
                lambda t: A.Unary(t[0], t[1])),
            st.tuples(_names.map(A.Var),
                      st.sampled_from(["fd", "Next"])).map(
                lambda t: A.Field(t[0], t[1])),
            _names.map(lambda n: A.LLExpr(A.Var(n))),
            st.tuples(_names.map(A.Var), children).map(
                lambda t: A.SCExpr(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_exprs())
@settings(max_examples=200, deadline=None)
def test_generated_expr_roundtrip(expr):
    text = pretty_expr(expr)
    again = parse_expr(text)
    assert A.structural_eq(expr, again), text


def _stmts():
    exprs = _exprs()
    leaves = st.one_of(
        st.just(A.Skip()),
        st.builds(A.Break),
        st.builds(A.Continue),
        st.tuples(_names.map(A.Var), exprs).map(
            lambda t: A.Assign(t[0], t[1])),
        exprs.map(lambda e: A.Return(e)),
        exprs.map(A.Assume),
    )

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=0, max_size=3).map(A.Block),
            st.tuples(exprs, children).map(
                lambda t: A.If(t[0], t[1], None)),
            st.tuples(exprs, children, children).map(
                lambda t: A.If(t[0], t[1], t[2])),
            children.map(lambda s: A.Loop(A.Block([s]))),
            st.tuples(_names, exprs, children).map(
                lambda t: A.LocalDecl(t[0], t[1], t[2])),
        )

    return st.recursive(leaves, extend, max_leaves=10)


@given(_stmts())
@settings(max_examples=150, deadline=None)
def test_generated_stmt_roundtrip(stmt):
    text = pretty_stmt(stmt)
    again = parse_stmt(text)
    assert A.structural_eq(stmt, again), text


# -- clone --------------------------------------------------------------------------

def _assert_clone_is_a_copy(node: A.Node) -> A.Node:
    copy = node.clone()
    assert copy.key() == node.key()
    assert pretty(copy) == pretty(node)
    before, after = list(node.walk()), list(copy.walk())
    assert [n.pos for n in after] == [n.pos for n in before]
    assert not {id(n) for n in before} & {id(n) for n in after}
    return copy


@given(_stmts())
@settings(max_examples=150, deadline=None)
def test_generated_stmt_clone(stmt):
    for i, node in enumerate(stmt.walk()):
        node.at(SourcePos(i + 1, i % 7 + 1))
    _assert_clone_is_a_copy(stmt)


@pytest.mark.parametrize("source", ALL_SOURCES,
                         ids=lambda s: s.strip().splitlines()[0][:25])
def test_corpus_clone_drops_the_resolver_decorations(source):
    prog = load_program(source)
    copy = _assert_clone_is_a_copy(prog)
    assert any(isinstance(n, A.Var) and n.binding for n in prog.walk())
    for node in copy.walk():
        if isinstance(node, A.Var):
            assert node.kind is None and node.binding is None
        elif isinstance(node, A.LocalDecl):
            assert node.binding is None
        elif isinstance(node, A.Procedure):
            assert node.param_bindings == {}
