"""Exceptional slices and variant generation (§5.2)."""

from unittest import mock

import pytest
from hypothesis import assume, given, settings

from repro import corpus
from repro.analysis import analyze_program, inference
from repro.analysis.escape import escape_analysis
from repro.analysis.purity import binding_kinds, pure_loops
from repro.analysis.slices import negate, split_bare_sc
from repro.analysis.uniqueness import uniqueness_analysis
from repro.analysis.variants import make_variants
from repro.errors import ReproError
from repro.synl import ast as A
from repro.synl.parser import parse_expr, parse_stmt
from repro.synl.printer import pretty, pretty_expr, pretty_stmt
from repro.cfg import build_cfg
from repro.synl.resolve import load_program
from tests.test_printer_roundtrip import _stmts


def variants_of(source):
    prog = load_program(source)
    cfgs = {p.name: build_cfg(p) for p in prog.procs}
    unique = uniqueness_analysis(prog, cfgs)
    kinds = binding_kinds(prog)
    purity = {p.name: pure_loops(cfgs[p.name], kinds,
                                 escape_analysis(cfgs[p.name]),
                                 unique.unique_bindings())
              for p in prog.procs}
    return make_variants(prog, cfgs, purity)


# -- negate -------------------------------------------------------------------------

@pytest.mark.parametrize("before,after", [
    ("a == b", "a != b"),
    ("a != b", "a == b"),
    ("a < b", "a >= b"),
    ("a >= b", "a < b"),
    ("!VL(X)", "VL(X)"),
    ("true", "false"),
    ("VL(X)", "!VL(X)"),
])
def test_negate_simplifies(before, after):
    assert pretty_expr(negate(parse_expr(before))) == after


# -- bare SC success split ------------------------------------------------------------

def test_split_bare_sc_produces_both_outcomes():
    stmt = parse_stmt("{ SC(X, v); return; }")
    alternatives = split_bare_sc(stmt.stmts)
    assert len(alternatives) == 2
    texts = {pretty_expr(alt[0].cond) for alt in alternatives}
    assert texts == {"SC(X, v)", "!SC(X, v)"}


def test_split_bare_sc_leaves_other_statements_alone():
    stmt = parse_stmt("{ x = 1; return; }")
    alternatives = split_bare_sc(stmt.stmts)
    assert len(alternatives) == 1


def test_split_two_bare_scs_gives_four_alternatives():
    stmt = parse_stmt("{ SC(X, a); SC(Y, b); }")
    assert len(split_bare_sc(stmt.stmts)) == 4


# -- variant structure ------------------------------------------------------------------

def test_nfq_prime_variant_counts():
    vs = variants_of(corpus.NFQ_PRIME)
    assert len(vs.of("AddNode")) == 1
    assert len(vs.of("UpdateTail")) == 2  # SC success split
    assert len(vs.of("DeqP")) == 2        # two return exits


def test_addnode_variant_is_straight_line_with_assumes():
    vs = variants_of(corpus.NFQ_PRIME)
    (variant,) = vs.of("AddNode")
    text = pretty(variant.proc)
    assert "loop" not in text
    assert "TRUE(VL(Tail))" in text
    assert "TRUE(next == null)" in text
    assert "TRUE(SC(t.Next, node))" in text


def test_deqp_variants_select_opposite_branches():
    vs = variants_of(corpus.NFQ_PRIME)
    texts = [pretty(v.proc) for v in vs.of("DeqP")]
    assert any("TRUE(next == null)" in t for t in texts)
    assert any("TRUE(next != null)" in t for t in texts)
    assert any("TRUE(h != LL(Tail))" in t for t in texts)


def test_variant_exits_recorded():
    vs = variants_of(corpus.NFQ_PRIME)
    exits = {e for v in vs.of("DeqP") for e in v.exits.values()}
    assert exits == {"return EMPTY", "return value"}


def test_non_pure_loops_kept_verbatim():
    vs = variants_of(corpus.NFQ)
    (enq,) = vs.of("Enq")
    assert "loop" in pretty(enq.proc)


def test_gh_variant_keeps_residual_copy_loop():
    vs = variants_of(corpus.GH_PROGRAM1)
    (variant,) = vs.of("Apply")
    text = pretty(variant.proc)
    assert "loop" in text                   # the inner copy loop stays
    assert "TRUE(VL(SharedObj))" in text    # continue-a2 paths sliced out
    assert "continue" not in text
    assert "TRUE(SC(SharedObj, prvObj))" in text


def test_variant_program_is_resolved():
    vs = variants_of(corpus.NFQ_PRIME)
    for variant in vs.variants:
        for node in variant.proc.body.walk():
            if isinstance(node, A.Var):
                assert node.kind is not None, node.name


def test_code_after_pure_loop_survives_break_exits():
    vs = variants_of("""
        global G;
        proc P(v) {
          loop {
            local t = LL(G) in {
              if (t == v) { break; }
              if (SC(G, v)) { break; }
            }
          }
          G = 9;
        }
    """)
    texts = [pretty(v.proc) for v in vs.of("P")]
    assert all("G = 9" in t for t in texts)
    # the SC-guarded break yields a TRUE(SC(...)) variant
    assert any("TRUE(SC(G, v))" in t for t in texts)


def test_code_after_return_exit_is_dropped():
    vs = variants_of("""
        global G;
        proc P(v) {
          loop {
            local t = LL(G) in {
              if (SC(G, v)) { return; }
            }
          }
          G = 9;
        }
    """)
    (variant,) = vs.of("P")
    assert "G = 9" not in pretty(variant.proc)


def test_nested_pure_loops_expand_recursively_via_checker():
    """The allocator's anchor-pop loop sits inside the credit loop; the
    full checker expands both (fixpoint iteration)."""
    from repro.analysis import analyze_program

    result = analyze_program(corpus.ALLOCATOR)
    names = [v.variant.name
             for v in result.verdicts["MallocFromActive"].variants]
    assert len(names) == 2
    for report in result.verdicts["MallocFromActive"].variants:
        assert "loop" not in pretty(report.variant.proc)


def _counting_expansions(monkeypatch):
    """Record every statement ``expand_stmt`` is called on (the list
    keeps them alive, so ``id`` is a stable key)."""
    from repro.analysis import variants

    calls: list[A.Stmt] = []
    real = variants._ProcExpander.expand_stmt

    def counting(self, s):
        calls.append(s)
        return real(self, s)

    monkeypatch.setattr(variants._ProcExpander, "expand_stmt", counting)
    return calls


def _no_shared_nodes(vs) -> bool:
    seen: set[int] = set()
    for proc in vs.program.procs:
        for node in proc.body.walk():
            if id(node) in seen:
                return False
            seen.add(id(node))
    return True


def test_a_block_expands_each_statement_once(monkeypatch):
    """After a two-way split (two ``break`` exits of a pure loop) the
    block's later statements are expanded once and cloned for the
    second alternative, not expanded again per alternative."""
    calls = _counting_expansions(monkeypatch)
    vs = variants_of("""
        global G; global H;
        proc P() {
          loop {
            local t = LL(G) in {
              if (t == 0) { break; }
              if (SC(G, t - 1)) { break; }
            }
          }
          H = 1;
          H = 2;
        }
    """)
    assert [v.name for v in vs.variants] == ["P1", "P2"]
    tail = [s for s in calls if isinstance(s, A.Assign)
            and isinstance(s.target, A.Var) and s.target.name == "H"]
    assert len(tail) == 2
    assert _no_shared_nodes(vs)
    for v in vs.variants:
        assert pretty(v.proc).endswith("H = 1;\n  H = 2;\n}")


def test_allocator_expansion_counts(monkeypatch):
    """``expand_stmt`` calls over the full analysis of ALLOCATOR (all
    expansion rounds): a statement is expanded at most once per parent
    statement that was expanded, and the variants share no AST
    object."""
    from collections import Counter

    from repro.analysis import analyze_program

    calls = _counting_expansions(monkeypatch)
    result = analyze_program(corpus.ALLOCATOR)
    assert calls
    parents = Counter(id(c) for s in calls for c in s.children()
                      if isinstance(c, A.Stmt))
    for key, n in Counter(id(s) for s in calls).items():
        assert n <= max(parents[key], 1)  # a procedure body has none
    assert _no_shared_nodes(result.variant_set)


_WRAPPED = """
    global G, H;
    proc P() {
      L: loop {
        local t = LL(G) in {
          loop {
            H = 1;
            if (SC(G, t + 1)) { break L; }
          }
        }
      }
    }
"""


def test_slice_wrapper_labels_are_numbered_per_expansion():
    """``break L`` sits in a residual inner loop, so the slice labels
    that loop ``__slice_N`` and breaks out of it; a second expansion
    in the same process numbers its labels from 1 again."""
    first, second = (pretty(variants_of(_WRAPPED).program)
                     for _ in range(2))
    assert "__slice_1: loop" in first
    assert first == second


def test_residual_exit_expands_once_with_no_empty_variant():
    """The sliced loop's exit in a residual inner loop becomes a break
    out of that loop: no once-through wrapper is left for a later
    round to slice again, so expansion stops with one variant."""
    result = analyze_program(_WRAPPED)
    assert not any("did not converge" in d for d in result.diagnostics)
    (variant,) = result.variant_set.variants
    assert pretty(variant.proc) == (
        "proc P()\n{\n  local t = LL(G) in\n  {\n"
        "    __slice_1: loop\n    {\n      H = 1;\n"
        "      if (SC(G, t + 1))\n      {\n        break __slice_1;\n"
        "      }\n    }\n  }\n}")


def test_pure_loop_kept_in_a_non_pure_loop_ends_expansion():
    """A pure loop inside a non-pure one is kept, not sliced, so it
    does not hold expansion open until the round cap."""
    result = analyze_program("""
        global G, H;
        proc P() {
          loop {
            H = 1;
            loop { local t = LL(G) in { if (SC(G, t + 1)) { break; } } }
          }
        }
    """)
    assert not any("did not converge" in d for d in result.diagnostics)
    assert [v.name for v in result.variant_set.variants] == ["P"]


@given(_stmts())
@settings(max_examples=400, deadline=None)
def test_generated_expansion_converges_before_the_cap(stmt):
    """Each round that slices leaves fewer loops, so a procedure with
    ``n`` loops needs at most ``n + 1`` expansion rounds."""
    try:
        program = load_program("global x, y, Tail, next, prv;\n"
                               f"proc P() {{\n{pretty_stmt(stmt)}\n}}\n")
    except ReproError:
        assume(False)
    loops = sum(isinstance(n, A.Loop) for n in program.walk())
    rounds = []

    def counting(*args):
        rounds.append(args)
        return make_variants(*args)

    with mock.patch.object(inference, "make_variants", counting):
        result = analyze_program(program)
    assert not any("did not converge" in d for d in result.diagnostics)
    assert len(rounds) <= loops + 1



def test_pure_loop_over_a_kept_non_pure_loop_is_sliced():
    """The pure loop inside the non-pure inner loop is kept verbatim,
    so it does not make the outer retry loop wait for a later round:
    the outer loop is sliced in the first one."""
    result = analyze_program("""
        global G, H;
        proc P() {
          loop {
            local t = LL(G) in {
              if (t > 5) {
                loop {
                  H = 1;
                  loop {
                    local u = LL(H) in { if (SC(H, u + 1)) { break; } }
                  }
                }
              }
              if (SC(G, t + 1)) { return; }
            }
          }
        }
    """)
    assert not any("did not converge" in d for d in result.diagnostics)
    (variant,) = result.variant_set.variants
    assert pretty(variant.proc) == (
        "proc P()\n{\n  local t = LL(G) in\n  {\n    TRUE(t <= 5);\n"
        "    TRUE(SC(G, t + 1));\n    return;\n  }\n}")
