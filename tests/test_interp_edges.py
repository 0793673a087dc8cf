"""Interpreter edge cases, error paths, and determinism properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterpError
from repro.interp import (Interp, RandomScheduler, ThreadSpec, run_random,
                          run_round_robin)

SRC = """
global G;
init { G = 0; }
proc Set(v) { G = v; }
proc Get() { return G; }
proc Div(a, b) { return a / b; }
proc Mod(a, b) { return a % b; }
"""


def test_unknown_procedure_rejected():
    interp = Interp(SRC)
    world = interp.make_world([ThreadSpec.of(("Nope",))])
    with pytest.raises(InterpError, match="unknown procedure"):
        interp.step(world, 0)


def test_arity_mismatch_rejected():
    interp = Interp(SRC)
    world = interp.make_world([ThreadSpec.of(("Set",))])
    with pytest.raises(InterpError, match="expects"):
        interp.step(world, 0)


def test_stepping_done_thread_rejected():
    interp = Interp(SRC)
    world = interp.make_world([ThreadSpec.of(("Set", 1))])
    run_round_robin(interp, world)
    with pytest.raises(InterpError, match="done"):
        interp.step(world, 0)


def test_begin_call_rejects_mid_procedure():
    interp = Interp(SRC)
    world = interp.make_world([ThreadSpec.of(("Set", 1))])
    interp.step(world, 0)  # now inside Set
    with pytest.raises(InterpError, match="mid-procedure"):
        interp.begin_call(world, 0, "Get", ())


@pytest.mark.parametrize("a,b,q,r", [
    (7, 2, 3, 1),
    (-7, 2, -3, -1),   # C-style truncation toward zero
    (7, -2, -3, 1),
    (-7, -2, 3, -1),
])
def test_division_truncates_toward_zero(a, b, q, r):
    interp = Interp(SRC)
    world = interp.make_world([ThreadSpec.of(("Div", a, b),
                                             ("Mod", a, b))])
    run_round_robin(interp, world)
    results = [e.result for e in world.history if e.kind == "return"]
    assert results == [q, r]


def test_null_arithmetic_rejected():
    interp = Interp("proc P() { return null + 1; }")
    world = interp.make_world([ThreadSpec.of(("P",))])
    with pytest.raises(InterpError, match="bad operands"):
        run_round_robin(interp, world)


def test_boolean_array_size_rejected():
    # like a boolean index: `new int[true]` must not allocate one cell
    interp = Interp("proc P() { local a = new int[true] in { return a; } }")
    world = interp.make_world([ThreadSpec.of(("P",))])
    with pytest.raises(InterpError, match="non-integer array size True"):
        run_round_robin(interp, world)


def test_bool_and_int_compare_unequal():
    interp = Interp("proc P() { return 1 == true; }")
    world = interp.make_world([ThreadSpec.of(("P",))])
    run_round_robin(interp, world)
    assert world.history[-1].result is False


def test_repeat_spec_cycles_through_ops():
    interp = Interp(SRC)
    world = interp.make_world(
        [ThreadSpec.of(("Set", 1), ("Set", 2), repeat=True)])
    for _ in range(50):
        if not interp.enabled(world, 0):
            break
        interp.step(world, 0)
    sets = [e for e in world.history
            if e.kind == "return" and e.proc == "Set"]
    assert len(sets) > 5
    assert [e.args[0] for e in sets[:4]] == [1, 2, 1, 2]


def test_empty_repeat_spec_is_done():
    interp = Interp(SRC)
    world = interp.make_world([ThreadSpec.of(repeat=True)])
    assert world.threads[0].done


def test_history_sequence_numbers_monotone():
    interp = Interp(SRC)
    world = interp.make_world([
        ThreadSpec.of(("Set", 1), ("Get",)),
        ThreadSpec.of(("Set", 2), ("Get",)),
    ])
    run_random(interp, world, seed=9)
    seqs = [e.seq for e in world.history]
    assert seqs == sorted(seqs) == list(range(len(seqs)))


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_same_seed_same_history(seed):
    def run(s):
        interp = Interp(SRC)
        world = interp.make_world([
            ThreadSpec.of(("Set", 1), ("Get",)),
            ThreadSpec.of(("Set", 2), ("Get",)),
        ])
        run_random(interp, world, seed=s)
        return [repr(e) for e in world.history]

    assert run(seed) == run(seed)


def test_round_robin_is_fair():
    interp = Interp(SRC)
    world = interp.make_world([
        ThreadSpec.of(("Set", 1)),
        ThreadSpec.of(("Set", 2)),
    ])
    run_round_robin(interp, world)
    invokes = [e.tid for e in world.history if e.kind == "invoke"]
    assert invokes == [0, 1]


def test_threadlocal_isolation_between_threads():
    source = """
    threadlocal t;
    threadinit { t = 0; }
    proc Bump() { t = t + 1; return t; }
    """
    interp = Interp(source)
    world = interp.make_world([
        ThreadSpec.of(("Bump",), ("Bump",)),
        ThreadSpec.of(("Bump",)),
    ])
    run_round_robin(interp, world)
    per_thread = {}
    for e in world.history:
        if e.kind == "return":
            per_thread.setdefault(e.tid, []).append(e.result)
    assert per_thread[0] == [1, 2]
    assert per_thread[1] == [1]
