"""Pure-loop detection tests (§4): the semaphore example, NFQ vs NFQ',
the SC-as-read special case, conditions (ii)/(iii), covering loops."""

import pytest

from repro import corpus
from repro.analysis.escape import escape_analysis
from repro.analysis.purity import (PurityAnalysis, binding_kinds,
                                   find_covering_loops, pure_loops)
from repro.analysis.uniqueness import uniqueness_analysis
from repro.cfg import build_cfg
from repro.synl.resolve import load_program


def purity_of(source, proc_name):
    prog = load_program(source)
    cfgs = {p.name: build_cfg(p) for p in prog.procs}
    unique = uniqueness_analysis(prog, cfgs)
    cfg = cfgs[proc_name]
    return pure_loops(cfg, binding_kinds(prog), escape_analysis(cfg),
                      unique.unique_bindings())


def all_pure(source, proc_name):
    infos = purity_of(source, proc_name)
    return all(i.pure for i in infos.values()), infos


def test_semaphore_down_is_pure():
    """The paper's §4 example: iterations that fail the tmp > 0 test or
    the SC terminate normally with no side effects."""
    ok, infos = all_pure(corpus.SEMAPHORE, "Down")
    assert ok and len(infos) == 1


def test_semaphore_up_is_pure():
    ok, _ = all_pure(corpus.SEMAPHORE, "Up")
    assert ok


def test_nfq_enq_loop_impure_because_of_helping_sc():
    """NFQ's Enq updates Tail on behalf of other threads inside normally
    terminating iterations — exactly why the paper modifies it (§6.1)."""
    ok, infos = all_pure(corpus.NFQ, "Enq")
    assert not ok
    reasons = " ".join(r for i in infos.values() for r in i.reasons)
    assert "SC(Tail)" in reasons


def test_nfq_deq_loop_impure():
    ok, _ = all_pure(corpus.NFQ, "Deq")
    assert not ok


@pytest.mark.parametrize("proc", ["AddNode", "UpdateTail", "DeqP"])
def test_nfq_prime_loops_all_pure(proc):
    ok, _ = all_pure(corpus.NFQ_PRIME, proc)
    assert ok


def test_sc_as_branch_condition_treated_as_read():
    """An SC testing an if whose success branch exits the loop acts as a
    failing read under normal termination (§4 special case)."""
    ok, _ = all_pure("""
        global G;
        proc P(v) {
          loop {
            local t = LL(G) in {
              if (SC(G, v)) { return; }
            }
          }
        }
    """, "P")
    assert ok


def test_sc_statement_in_normal_iteration_impure():
    ok, _ = all_pure("""
        global G;
        proc P(v) {
          loop {
            local t = LL(G) in {
              SC(G, v);
              if (t == 0) { return; }
            }
          }
        }
    """, "P")
    assert not ok


def test_sc_branch_whose_success_stays_in_loop_impure():
    ok, _ = all_pure("""
        global G;
        proc P(v) {
          loop {
            local t = LL(G) in {
              if (SC(G, v)) { continue; }
              if (t == 0) { return; }
            }
          }
        }
    """, "P")
    assert not ok


def test_local_update_dead_at_loop_end_is_pure():
    ok, _ = all_pure("""
        global G;
        proc P() {
          local x = 0 in
          loop {
            x = G;
            if (x == 3) { return; }
          }
        }
    """, "P")
    # x is rewritten before every read on paths from the loop end
    assert ok


def test_local_update_live_across_iterations_impure():
    ok, infos = all_pure("""
        global G;
        proc P() {
          local i = 0 in
          loop {
            i = i + 1;
            if (i > G) { return; }
          }
        }
    """, "P")
    assert not ok
    reasons = " ".join(r for i in infos.values() for r in i.reasons)
    assert "ii.a" in reasons


def test_condition_iib_threadlocal_escape_impure():
    """A thread-local updated in a normal iteration is visible after the
    procedure exits — condition (ii.b)."""
    ok, infos = all_pure("""
        global G;
        threadlocal cache;
        proc P() {
          loop {
            if (G == 0) { return; }
            cache = G;
          }
        }
    """, "P")
    # the exit path leaves without touching cache again, so the normal
    # iteration's write persists in the thread-local store
    assert not ok
    reasons = " ".join(r for i in infos.values() for r in i.reasons)
    assert "ii.b" in reasons


def test_condition_iib_vacuous_when_always_rewritten():
    """The symmetric positive case: a thread-local rewritten before
    every exit is dead at the end of the body — pure (§4, ii)."""
    ok, _ = all_pure("""
        global G;
        threadlocal cache;
        proc P() {
          loop {
            cache = G;
            if (G == 0) { return; }
          }
        }
    """, "P")
    assert ok


def test_condition_iii_ll_matching_sc_outside_loop_impure():
    ok, infos = all_pure("""
        global G;
        proc P(v) {
          local t = 0 in {
            loop {
              t = LL(G);
              if (t == v) { break; }
            }
            SC(G, v);
            return;
          }
        }
    """, "P")
    assert not ok
    reasons = " ".join(r for i in infos.values() for r in i.reasons)
    assert "iii" in reasons


def test_gh_outer_loop_pure_inner_impure(gh1_analysis):
    infos = purity_of(corpus.GH_PROGRAM1, "Apply")
    labelled = {info.info.loop.label: info for info in infos.values()}
    assert labelled["a2"].pure          # outer loop (Fig. 5)
    inner = next(i for label, i in labelled.items() if label is None)
    assert not inner.pure               # i is live across iterations


def test_gh_program2_outer_loop_impure():
    infos = purity_of(corpus.GH_PROGRAM2, "Apply")
    outer = next(i for i in infos.values() if i.info.loop.label == "a2")
    assert not outer.pure  # the guard reads prvObj.data before rewriting


def test_covering_loop_recognized_in_gh():
    prog = load_program(corpus.GH_PROGRAM1)
    cfg = build_cfg(prog.proc("Apply"))
    coverings = find_covering_loops(cfg)
    assert len(coverings) == 1
    assert coverings[0].region[0] == "elem"
    assert coverings[0].region[2] == "data"


def test_covering_loop_requires_write_on_every_path():
    prog = load_program("""
        const W = 3;
        class Obj { data; }
        threadlocal p;
        threadinit { p = new Obj; p.data = new int[W + 1]; }
        proc P(g) {
          local i = 1 in
          loop {
            if (i > W) { break; }
            if (g == i) { p.data[i] = 0; }
            i = i + 1;
          }
        }
    """)
    cfg = build_cfg(prog.proc("P"))
    assert find_covering_loops(cfg) == []


def test_covering_loop_requires_unit_increment():
    prog = load_program("""
        const W = 3;
        class Obj { data; }
        threadlocal p;
        threadinit { p = new Obj; p.data = new int[W + 1]; }
        proc P() {
          local i = 1 in
          loop {
            if (i > W) { break; }
            p.data[i] = 0;
            i = i + 2;
          }
        }
    """)
    cfg = build_cfg(prog.proc("P"))
    assert find_covering_loops(cfg) == []


def test_herlihy_loop_pure():
    ok, _ = all_pure(corpus.HERLIHY_SMALL, "Apply")
    assert ok


def test_allocator_loops_all_pure():
    for proc in ("MallocFromActive", "MallocFromPartial",
                 "MallocFromNewSB", "UpdateActive", "DescAlloc",
                 "HeapPutPartial"):
        ok, infos = all_pure(corpus.ALLOCATOR, proc)
        assert ok, (proc, [i.reasons for i in infos.values()])
