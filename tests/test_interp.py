"""Interpreter unit tests: evaluation, LL/SC/VL semantics, CAS with and
without the modification-counter discipline, monitors."""

import pytest

from repro.errors import AssertionViolation, InterpError
from repro.interp import Interp, ThreadSpec, run_round_robin
from repro.interp.values import Ref


def _run_single(source, calls, primitives=None, seed_world=None):
    interp = Interp(source, primitives=primitives)
    world = interp.make_world([ThreadSpec.of(*calls)])
    run_round_robin(interp, world)
    returns = [e for e in world.history if e.kind == "return"]
    return world, [e.result for e in returns]


def test_arithmetic_and_comparison():
    _, results = _run_single("""
        proc P() { return (2 + 3) * 4 - 6 / 2; }
        proc Q() { return 7 % 3; }
        proc R() { return 3 < 4 && 4 <= 4; }
    """, [("P",), ("Q",), ("R",)])
    assert results == [17, 1, True]


def test_short_circuit_evaluation():
    # `x != null && x.fd == 1` must not dereference null
    _, results = _run_single("""
        class C { fd; }
        proc P() {
          local x = null in {
            if (x != null && x.fd == 1) { return 1; }
            return 0;
          }
        }
    """, [("P",)])
    assert results == [0]


def test_object_fields_default_to_null():
    _, results = _run_single("""
        class C { fd; }
        proc P() {
          local c = new C in { return c.fd == null; }
        }
    """, [("P",)])
    assert results == [True]


def test_array_cells_default_to_zero_and_bounds_checked():
    _, results = _run_single("""
        proc P() {
          local a = new int[3] in {
            a[1] = 7;
            return a[0] + a[1];
          }
        }
    """, [("P",)])
    assert results == [7]
    with pytest.raises(InterpError, match="bounds"):
        _run_single("proc P() { local a = new int[2] in { a[5] = 1; } }",
                    [("P",)])


def test_while_loop_executes():
    _, results = _run_single("""
        proc P() {
          local i = 0 in
          local acc = 0 in {
            while (i < 5) { acc = acc + i; i = i + 1; }
            return acc;
          }
        }
    """, [("P",)])
    assert results == [10]


def test_assert_violation_raised():
    with pytest.raises(AssertionViolation):
        _run_single("proc P() { assert(1 == 2); }", [("P",)])


def test_custom_primitive():
    _, results = _run_single(
        "proc P() { return triple(4); }", [("P",)],
        primitives={"triple": lambda v: v * 3})
    assert results == [12]


# -- LL/SC/VL axioms ---------------------------------------------------------------

SHARED = "global G; init { G = 0; }"


def _two_threads(source, spec_a, spec_b):
    interp = Interp(source)
    world = interp.make_world([spec_a, spec_b])
    return interp, world


def _drive(interp, world, schedule):
    """Run threads in an explicit interleaving: a list of tids."""
    for tid in schedule:
        interp.step(world, tid)


def test_sc_succeeds_with_intact_reservation():
    interp, world = _two_threads(
        SHARED + "proc P() { local t = LL(G) in { return SC(G, t+1); } }",
        ThreadSpec.of(("P",)), ThreadSpec.of())
    run_round_robin(interp, world)
    assert world.globals["G"] == 1
    assert world.history[-1].result is True


def test_sc_without_matching_ll_fails():
    interp, world = _two_threads(
        SHARED + "proc P() { return SC(G, 9); }",
        ThreadSpec.of(("P",)), ThreadSpec.of())
    run_round_robin(interp, world)
    assert world.history[-1].result is False
    assert world.globals["G"] == 0


def test_other_threads_store_invalidates_reservation():
    source = SHARED + """
        proc Reader() {
          local t = LL(G) in
          local unused = 0 in {
            return SC(G, t + 1);
          }
        }
        proc Writer() { G = 5; }
    """
    interp, world = _two_threads(source, ThreadSpec.of(("Reader",)),
                                 ThreadSpec.of(("Writer",)))
    # t0: invoke+LL; t1: invoke+store; t0: bind + SC
    _drive(interp, world, [0, 0, 1, 1, 0, 0])
    assert world.history[-1].result is False
    assert world.globals["G"] == 5


def test_own_store_does_not_invalidate_own_reservation():
    source = SHARED + """
        proc P() {
          local t = LL(G) in {
            G = 3;
            return SC(G, t + 1);
          }
        }
    """
    interp, world = _two_threads(source, ThreadSpec.of(("P",)),
                                 ThreadSpec.of())
    run_round_robin(interp, world)
    # per §3.1 only *other* threads' writes invalidate
    assert world.history[-1].result is True
    assert world.globals["G"] == 1


def test_vl_true_until_interference():
    source = SHARED + """
        proc P() {
          local t = LL(G) in
          local first = VL(G) in
          local pause = 0 in {
            return first == VL(G);
          }
        }
        proc W() { G = 7; }
    """
    interp, world = _two_threads(source, ThreadSpec.of(("P",)),
                                 ThreadSpec.of(("W",)))
    # interleave the write between the two VLs
    _drive(interp, world, [0, 0, 0, 1, 1, 0, 0])
    assert world.history[-1].result is False  # first True, second False


def test_ll_refreshes_reservation():
    source = SHARED + """
        proc P() {
          local a = LL(G) in
          local b = LL(G) in {
            return SC(G, b + 1);
          }
        }
        proc W() { G = 9; }
    """
    interp, world = _two_threads(source, ThreadSpec.of(("P",)),
                                 ThreadSpec.of(("W",)))
    # write lands between the two LLs: the second LL re-validates
    _drive(interp, world, [0, 0, 1, 1, 0, 0])
    assert world.history[-1].result is True
    assert world.globals["G"] == 10


# -- CAS and the ABA problem --------------------------------------------------------------

def test_plain_cas_value_semantics():
    _, results = _run_single(
        SHARED + "proc P() { return CAS(G, 0, 5); }", [("P",)])
    assert results == [True]
    _, results = _run_single(
        SHARED + "proc P() { return CAS(G, 3, 5); }", [("P",)])
    assert results == [False]


ABA_BODY = """
    proc Victim() {
      local c = G in
      local pause = 0 in {
        return CAS(G, c, 100);
      }
    }
    proc Meddler() {
      G = 1;
      G = 0;
    }
"""


def test_unversioned_cas_suffers_aba():
    interp, world = _two_threads("global G; init { G = 0; }" + ABA_BODY,
                                 ThreadSpec.of(("Victim",)),
                                 ThreadSpec.of(("Meddler",)))
    # victim reads 0; meddler flips 0 -> 1 -> 0; victim's CAS succeeds
    _drive(interp, world, [0, 0, 1, 1, 1, 0, 0])
    assert world.history[-1].result is True  # the ABA hazard


def test_versioned_cas_defeats_aba():
    interp, world = _two_threads(
        "global versioned G; init { G = 0; }" + ABA_BODY,
        ThreadSpec.of(("Victim",)), ThreadSpec.of(("Meddler",)))
    _drive(interp, world, [0, 0, 1, 1, 1, 0, 0])
    assert world.history[-1].result is False  # counter moved: §5.2 defence


# -- monitors -------------------------------------------------------------------------------

LOCKED = """
    class LockObj { unused; }
    global Lk; global V;
    init { Lk = new LockObj; V = 0; }
    proc P() {
      synchronized (Lk) {
        synchronized (Lk) { V = V + 1; }
      }
    }
"""


def test_reentrant_lock():
    interp, world = _two_threads(LOCKED, ThreadSpec.of(("P",)),
                                 ThreadSpec.of(("P",)))
    run_round_robin(interp, world)
    assert world.globals["V"] == 2
    assert world.locks == {}


def test_contended_acquire_disabled():
    interp, world = _two_threads(LOCKED, ThreadSpec.of(("P",)),
                                 ThreadSpec.of(("P",)))
    # advance t0 past its first acquire
    _drive(interp, world, [0, 0])
    # t1 up to (but not into) its acquire
    interp.step(world, 1)
    assert interp.enabled(world, 0)
    assert not interp.enabled(world, 1)


#: the block moves ``B`` to a fresh box, whose ``lock`` is null, so its
#: lock expression no longer reads the object it acquired
MOVED = """
    class Box { lock; n; }
    global B;
    init { local b = new Box in { b.lock = new Box; b.n = 0; B = b; } }
    proc Hold() { synchronized (B.lock) { B = new Box; } }
"""


def test_release_frees_the_object_the_block_acquired():
    interp, world = _two_threads(MOVED, ThreadSpec.of(("Hold",)),
                                 ThreadSpec.of())
    lock = world.heap.read_field(world.globals["B"], "lock")
    interp.step(world, 0)  # invoke
    interp.step(world, 0)  # acquire
    assert world.locks == {lock.oid: (0, 1)}
    assert lock in world.threads[0].frame.env.values()
    run_round_robin(interp, world)
    assert world.locks == {} and world.threads[0].done


def test_nested_blocks_release_innermost_first():
    interp, world = _two_threads(
        "class C { } global A; global B;"
        " init { A = new C; B = new C; }"
        " proc P() { synchronized (A) { synchronized (B) { A = B; } } }",
        ThreadSpec.of(("P",)), ThreadSpec.of())
    a, b = world.globals["A"], world.globals["B"]
    for _ in range(4):  # invoke, acquire A, acquire B, A = B
        interp.step(world, 0)
    assert world.locks == {a.oid: (0, 1), b.oid: (0, 1)}
    interp.step(world, 0)  # the inner block releases B
    assert world.locks == {a.oid: (0, 1)}
    run_round_robin(interp, world)
    assert world.locks == {}


def test_world_copy_is_independent():
    interp, world = _two_threads(
        SHARED + "proc P() { G = G + 1; }",
        ThreadSpec.of(("P",)), ThreadSpec.of())
    snapshot = world.copy()
    run_round_robin(interp, world)
    assert world.globals["G"] == 1
    assert snapshot.globals["G"] == 0
    run_round_robin(interp, snapshot)
    assert snapshot.globals["G"] == 1


def test_quiescent_predicate():
    interp, world = _two_threads(
        SHARED + "proc P() { G = 1; }",
        ThreadSpec.of(("P",)), ThreadSpec.of())
    assert world.quiescent()
    interp.step(world, 0)
    assert not world.quiescent()
    run_round_robin(interp, world)
    assert world.quiescent()
