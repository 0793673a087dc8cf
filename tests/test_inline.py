"""Procedure-call inlining tests (the paper's 'internal procedures are
inlined' convention, automated)."""

import pytest

from repro.analysis import analyze_program
from repro.analysis.report import render_figure
from repro.errors import ResolveError
from repro.interp import Interp, ThreadSpec, run_round_robin
from repro.synl.inline import inline_calls
from repro.synl.parser import parse_program
from repro.synl import ast as A
from repro.synl.resolve import load_program


def _returns(world, proc=None):
    return [e.result for e in world.history
            if e.kind == "return" and (proc is None or e.proc == proc)]


def test_void_call_inlined_and_executes():
    prog = load_program("""
        global G;
        init { G = 0; }
        proc Bump() { G = G + 1; }
        proc Twice() { Bump(); Bump(); }
    """)
    interp = Interp(prog)
    world = interp.make_world([ThreadSpec.of(("Twice",))])
    run_round_robin(interp, world)
    assert world.globals["G"] == 2


def test_value_call_binds_result():
    prog = load_program("""
        global G;
        init { G = 40; }
        proc ReadPlus(k) { return G + k; }
        proc Use() {
          local x = ReadPlus(2) in { return x; }
        }
    """)
    interp = Interp(prog)
    world = interp.make_world([ThreadSpec.of(("Use",))])
    run_round_robin(interp, world)
    assert _returns(world, "Use") == [42]


def test_early_return_from_branch():
    prog = load_program("""
        proc Sign(v) {
          if (v > 0) { return 1; }
          if (v < 0) { return -1; }
          return 0;
        }
        proc Use(v) {
          local s = Sign(v) in { return s; }
        }
    """)
    interp = Interp(prog)
    world = interp.make_world([ThreadSpec.of(
        ("Use", 9), ("Use", -3), ("Use", 0))])
    run_round_robin(interp, world)
    assert _returns(world, "Use") == [1, -1, 0]


def test_call_with_loop_in_callee():
    prog = load_program("""
        global G;
        init { G = 0; }
        proc Inc() {
          loop {
            local t = LL(G) in {
              if (SC(G, t + 1)) { return t + 1; }
            }
          }
        }
        proc Twice() {
          local a = Inc() in
          local b = Inc() in {
            return a + b;
          }
        }
    """)
    interp = Interp(prog)
    world = interp.make_world([ThreadSpec.of(("Twice",))])
    run_round_robin(interp, world)
    assert _returns(world, "Twice") == [3]  # 1 + 2


def test_nested_calls_inline_transitively():
    prog = load_program("""
        proc A() { return 1; }
        proc B() { local a = A() in { return a + 1; } }
        proc C() { local b = B() in { return b + 1; } }
    """)
    interp = Interp(prog)
    world = interp.make_world([ThreadSpec.of(("C",))])
    run_round_robin(interp, world)
    assert _returns(world, "C") == [3]
    # the inlined program contains no residual calls
    for node in prog.proc("C").walk():
        assert not (isinstance(node, A.PrimCall)
                    and node.name in ("A", "B"))


def test_recursion_rejected():
    with pytest.raises(ResolveError, match="recursive"):
        load_program("proc P() { P(); }")


def test_mutual_recursion_rejected():
    with pytest.raises(ResolveError, match="recursive"):
        load_program("""
            proc P() { Q(); }
            proc Q() { P(); }
        """)


def test_call_in_expression_position_rejected():
    with pytest.raises(ResolveError, match="statement or as a local"):
        load_program("""
            global G;
            proc P() { return 1; }
            proc Q() { G = P() + 1; }
        """)


@pytest.mark.parametrize("body", [
    "local x = P() + 1 in { return x; }",
    "synchronized (P()) { skip; }",
    "local x = Q(P()) in { return x; }",
])
def test_a_call_nested_in_an_expression_is_rejected(body):
    with pytest.raises(ResolveError, match="statement or as a local"):
        load_program(f"""
            proc P() {{ return 1; }}
            proc Q(a) {{ return a; }}
            proc R() {{ {body} }}
        """)


def test_arity_mismatch_rejected():
    with pytest.raises(ResolveError, match="arguments"):
        load_program("""
            proc P(a, b) { return a; }
            proc Q() { P(1); }
        """)


def test_primitive_names_left_alone():
    prog = load_program("""
        proc P(v) { return compute(v, 1); }
    """)
    calls = [n for n in prog.walk() if isinstance(n, A.PrimCall)]
    assert len(calls) == 1 and calls[0].name == "compute"


def test_inlined_program_is_analyzable():
    """The paper's intended workflow: write helpers, inline, analyze."""
    prog = load_program("""
        global Sem;
        init { Sem = 1; }
        proc Down() {
          loop {
            local tmp = LL(Sem) in {
              if (tmp > 0) {
                if (SC(Sem, tmp - 1)) { return; }
              }
            }
          }
        }
        proc CriticalPair() {
          Down();
        }
    """)
    result = analyze_program(prog)
    assert result.is_atomic("Down")
    assert result.is_atomic("CriticalPair")  # just an inlined Down


def test_inlining_preserves_original_program():
    original = parse_program("""
        global G = 0;
        proc A() { return G; }
        proc B() { A(); }
    """)
    before = original.key()
    inlined = inline_calls(original)
    assert original.key() == before
    # the copy shares no node, so resolving it decorates none of these
    assert not {id(n) for n in original.walk()} \
        & {id(n) for n in inlined.walk()}


_CAPTURE = """
    global G;
    init { G = 5; }
    proc Get() {
      local t = LL(G) in { return t; }
    }
    proc Inc() {
      loop {
        local t = Get() in {
          if (SC(G, t + 1)) { return; }
        }
      }
    }
    proc Check() { assert(G == 6); }
"""


def test_the_same_source_gives_the_same_report_twice_in_one_process():
    """Expansions are numbered per inlining run: a second load used to
    render ``local t__inline_2 = LL(G)`` where the first had
    ``t__inline_1``."""
    first, second = (render_figure(analyze_program(load_program(_CAPTURE)))
                     for _ in range(2))
    assert "local t__inline_1 = LL(G) in" in first
    assert first == second


def test_callee_local_does_not_capture_the_result_variable():
    """``Get``'s ``local t`` used to shadow ``Inc``'s result variable
    ``t``: the caller's ``t`` stayed 0 and ``Inc`` stored 1."""
    interp = Interp(load_program(_CAPTURE))
    world = interp.make_world([ThreadSpec.of(("Inc",), ("Check",))])
    run_round_robin(interp, world)  # raises on a failed assert
    assert world.globals["G"] == 6


def test_callee_parameters_do_not_capture_argument_names():
    prog = load_program("""
        proc Sub(a, b) { return a - b; }
        proc Use() {
          local a = 10 in local x = 3 in
          local r = Sub(x, a) in { return r; }
        }
    """)
    interp = Interp(prog)
    world = interp.make_world([ThreadSpec.of(("Use",))])
    run_round_robin(interp, world)
    assert _returns(world, "Use") == [-7]


def test_every_entry_point_inlines():
    """Lint, the analysis (and its embedded lint pass) and the
    interpreter all read the inlined program."""
    from repro.analysis.lint import lint_program

    direct = lint_program(_CAPTURE)
    embedded = analyze_program(_CAPTURE).lint
    assert [d.rule for d in direct.findings] \
        == [d.rule for d in embedded.findings]
    assert "llsc.no-ll" not in [d.rule for d in direct.findings]
    interp = Interp(_CAPTURE)
    assert "Get" not in {n.name for n in interp.program.walk()
                         if isinstance(n, A.PrimCall)}


def _wrapper_breaks(source: str, caller: str) -> int:
    """How many ``break`` statements of ``caller``, inlined, exit an
    expansion's wrapper loop."""
    proc = next(p for p in inline_calls(parse_program(source)).procs
                if p.name == caller)
    return sum(1 for n in proc.walk() if isinstance(n, A.Break)
               and (n.label or "").startswith("__inline_"))


def test_only_a_callee_that_can_fall_off_its_end_gets_a_fall_off_break():
    # one break per return, plus the fall-off break when the callee's
    # body can complete normally
    cases = {
        "proc F() { return 1; }": 1,
        "proc F() { if (1 > 0) { return 1; } else { return 2; } }": 2,
        "proc F() { loop { return 1; } }": 1,
        "proc F() { if (1 > 0) { return 1; } }": 2,
        "proc F() { loop { break; } return 1; }": 1,
        "proc F() { loop { loop { break; } } }": 0,
        "proc F() { L: loop { loop { break L; } } }": 1,
        "proc F() { skip; }": 1,
    }
    for callee, breaks in cases.items():
        source = callee + " proc Use() { local x = F() in { return x; } }"
        assert _wrapper_breaks(source, "Use") == breaks, callee


def test_a_callee_that_always_returns_adds_no_variant():
    """A dead fall-off ``break`` after ``Get``'s body used to count as
    an exit of ``Inc``'s loop, giving a spurious variant ``Inc2`` with
    an ``SC`` and no ``LL``."""
    result = analyze_program(_CAPTURE)
    assert [v.name for v in result.variant_set.variants] \
        == ["Get", "Inc", "Check"]
    assert not [d for d in result.diagnostics if "matching LLs" in d]


def test_a_program_without_calls_is_not_copied(monkeypatch):
    from repro.synl import inline

    def refuse(program):
        raise AssertionError("inlined a program that makes no calls")

    monkeypatch.setattr(inline, "inline_calls", refuse)
    assert load_program("proc P() { return compute(1); }").procs
