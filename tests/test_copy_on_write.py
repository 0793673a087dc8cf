"""Copy on write: a world copy shares threads and heap objects with its
original until one side writes, and each thread's and object's cached
canonical fragment must follow every write.  Copies are checked against
a deep-copied reference world driven through the same schedule, and
keyed both from scratch and incrementally, from the key context of the
world they were copied from.  The ownership contract the incremental
keys rely on: whatever a copy writes, it owns."""

import copy
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import corpus
from repro.analysis import analyze_program
from repro.errors import AssertionViolation
from repro.interp import AssumeFailed, Interp, ThreadSpec
from repro.interp.state import World
from repro.interp.values import HeapArray, HeapObject
from repro.mc import Explorer, run_to_commit, run_variant, state_key
from repro.mc.canonical import (Interner, KeyContext, _object_fragment,
                                _thread_fragment)

PROGRAMS = {
    "gh": (Interp(corpus.GH_PROGRAM1),
           [ThreadSpec.of(("Apply", 1)), ThreadSpec.of(("Apply", 2)),
            ThreadSpec.of(("Apply", 3))]),
    "nfq": (Interp(corpus.NFQ_PRIME),
            [ThreadSpec.of(("AddNode", 1)), ThreadSpec.of(("DeqP",)),
             ThreadSpec.of(("UpdateTail",), repeat=True)]),
    # a field lock: enabled() evaluates its base, which records a read
    # on a throwaway copy of the thread
    "locks": (Interp("""
        class Box { lock; n; }
        global B;
        init { local b = new Box in { b.lock = new Box; b.n = 0; B = b; } }
        proc Hold() { synchronized (B.lock) { B.n = B.n + 1; } }
        """), [ThreadSpec.of(("Hold",)), ThreadSpec.of(("Hold",))]),
}
#: the programs whose operations run to commit (a contended lock would
#: stop an atomic run)
ATOMIC = ("gh", "nfq")


def _deep_copy(world: World) -> World:
    """An eager copy sharing nothing mutable with ``world``: every
    thread and heap object is duplicated and its cache dropped.  CFGs
    are program text, shared as in :meth:`World.copy`."""
    keep = {}
    for thread in world.threads:
        if thread.frame is not None:
            keep[id(thread.frame.cfg)] = thread.frame.cfg
            keep[id(thread.frame.node)] = thread.frame.node
    out = copy.deepcopy(world, keep)
    for part in (*out.threads, *out.heap.objects.values()):
        part.canon = None
    return out


def _drive(interp: Interp, world: World, choices: list[int],
           key_each_step: bool) -> None:
    """Step the enabled thread picked by each choice; stop when no
    thread is enabled or a step fails."""
    for choice in choices:
        tids = interp.enabled_threads(world)
        if not tids:
            return
        try:
            interp.step(world, tids[choice % len(tids)])
        except (AssertionViolation, AssumeFailed):
            return
        if key_each_step:
            state_key(world)  # fills the caches a later write must drop


schedules = st.lists(st.integers(0, 5), max_size=40)


@settings(max_examples=30, deadline=None)
@given(program=st.sampled_from(sorted(PROGRAMS)), prefix=schedules,
       branches=st.lists(schedules, min_size=2, max_size=4), tail=schedules)
def test_copies_never_disturb_the_parent(program, prefix, branches, tail):
    interp, specs = PROGRAMS[program]
    parent = interp.make_world(specs)
    _drive(interp, parent, prefix, key_each_step=True)
    parent_key = state_key(parent)
    base = _context(parent)
    reference_parent = _deep_copy(parent)
    children = []
    for branch in branches:
        child = parent.copy()
        reference = _deep_copy(reference_parent)
        _drive(interp, child, branch, key_each_step=True)
        _drive(interp, reference, branch, key_each_step=False)
        assert state_key(child) == state_key(reference)
        assert state_key(child, base).key == state_key(reference)
        assert state_key(parent) == parent_key
        children.append((child, state_key(child)))
    # stepping the parent after its copies leaves them alone too
    _drive(interp, parent, tail, key_each_step=True)
    _drive(interp, reference_parent, tail, key_each_step=False)
    assert state_key(parent) == state_key(reference_parent)
    for child, key in children:
        assert state_key(child) == key


def _one_object_world():
    world = World()
    obj = world.heap.alloc("C")
    arr = world.heap.alloc_array("int", 2)
    world.globals["O"], world.globals["A"] = obj, arr
    return world, obj, arr


def _body(world: World, kind: str) -> tuple:
    heap_key = state_key(world)[2]
    return next(entry[3] for entry in heap_key if entry[0] == kind)


def test_owned_object_written_twice_between_keys():
    # as in run_to_commit: key, write in place, key again, write again
    world, obj, arr = _one_object_world()
    world.heap.write_field(obj, "f", 1)
    world.heap.write_elem(arr, 0, 1)
    assert _body(world, "obj") == (("f", 1),)
    assert _body(world, "arr") == (1, 0)
    world.heap.write_field(obj, "f", 2)
    world.heap.write_elem(arr, 1, 2)
    assert _body(world, "obj") == (("f", 2),)
    assert _body(world, "arr") == (1, 2)


def test_copy_writes_stay_in_the_copy():
    world, obj, arr = _one_object_world()
    world.heap.write_field(obj, "f", 1)
    before = state_key(world)
    child = world.copy()
    assert child.heap.objects[obj.oid] is world.heap.objects[obj.oid]
    for value in (2, 3):  # first write copies, the second is in place
        child.heap.write_field(obj, "f", value)
        assert _body(child, "obj") == (("f", value),)
    assert child.heap.objects[arr.oid] is world.heap.objects[arr.oid]
    assert state_key(world) == before
    # after a copy the original owns nothing either
    world.heap.write_elem(arr, 0, 7)
    assert _body(world, "arr") == (7, 0)
    assert _body(child, "arr") == (0, 0)


def test_a_copy_owns_what_it_allocates():
    world, _obj, _arr = _one_object_world()
    child = world.copy()
    assert not child.heap.owned
    refs = {child.heap.alloc("C").oid,
            child.heap.alloc_array("int", 1).oid}
    assert child.heap.owned == refs
    assert not world.heap.owned


def test_cache_is_not_part_of_equality_or_repr():
    world, obj, arr = _one_object_world()
    state_key(world)
    cached = world.heap.objects[obj.oid]
    assert cached.canon is not None
    assert cached == HeapObject("C")
    assert repr(cached) == repr(HeapObject("C"))
    assert world.heap.objects[arr.oid] == HeapArray("int", [0, 0])


@lru_cache(maxsize=None)
def _nfq_variants() -> tuple[Interp, dict]:
    """NFQ''s exceptional-variant program and its variant names."""
    variant_set = analyze_program(corpus.NFQ_PRIME).variant_set
    return Interp(variant_set.program), {
        src: [v.name for v in vs] for src, vs in variant_set.by_source.items()}


def _atomic_outcomes(interp: Interp, world: World, tid: int,
                     program: str) -> list:
    """Every atomic transition of ``tid``: run-to-commit, and for an
    idle NFQ' thread each exceptional variant of its next call."""
    outcomes = [run_to_commit(interp, world, tid)]
    if program == "nfq" and world.threads[tid].frame is None:
        variant_interp, variants = _nfq_variants()
        name = world.threads[tid].current_call()[0]
        outcomes += [run_variant(interp, variant_interp, world, tid, v)
                     for v in variants[name]]
    return outcomes


def _key_or_none(world, base=None):
    if world is None:
        return None
    return state_key(world) if base is None else state_key(world, base).key


def _context(world: World) -> KeyContext:
    """``world``'s key context, for keying its copies incrementally."""
    return state_key(world, KeyContext(Interner()))


@settings(max_examples=20, deadline=None)
@given(program=st.sampled_from(ATOMIC), prefix=schedules,
       choices=st.lists(st.integers(0, 5), min_size=1, max_size=3))
def test_atomic_runs_never_disturb_the_parent(program, prefix, choices):
    interp, specs = PROGRAMS[program]
    parent = interp.make_world(specs)
    _drive(interp, parent, prefix, key_each_step=True)
    parent_key = state_key(parent)
    base = _context(parent)
    reference = _deep_copy(parent)
    for choice in choices:
        live = [t.tid for t in parent.threads if not t.done]
        if not live:
            return
        tid = live[choice % len(live)]
        outcomes = _atomic_outcomes(interp, parent, tid, program)
        expected = [_key_or_none(o.world) for o in _atomic_outcomes(
            interp, _deep_copy(reference), tid, program)]
        assert [_key_or_none(o.world, base) for o in outcomes] == expected
        assert [_key_or_none(o.world) for o in outcomes] == expected
        assert state_key(parent) == parent_key


def _fragments(world: World) -> tuple:
    """Every thread's and heap object's fragment, computed afresh."""
    return ([_thread_fragment(t) for t in world.threads],
            {oid: _object_fragment(obj)
             for oid, obj in world.heap.objects.items()})


def _assert_owns_what_changed(before: tuple, world: World) -> None:
    threads, objects = before
    for tid, thread in enumerate(world.threads):
        if _thread_fragment(thread) != threads[tid]:
            assert tid in world._owned
    for oid, obj in world.heap.objects.items():
        if objects.get(oid) != _object_fragment(obj):
            assert oid in world.heap.owned


def _apply(op: str, interp: Interp, world: World, tid: int) -> None:
    """One operation on ``world``: a step, an enabledness test (a lock
    peek, which writes nothing), or a call pushed by hand (as the
    variant mode does)."""
    if op == "enabled":
        interp.enabled(world, tid)
    elif op == "begin_call":
        thread = world.threads[tid]
        if thread.frame is None and not thread.done:
            interp.begin_call(world, tid, *thread.current_call())
    elif interp.enabled(world, tid):
        try:
            interp.step(world, tid)
        except (AssertionViolation, AssumeFailed):
            pass


@settings(max_examples=40, deadline=None)
@given(program=st.sampled_from(sorted(PROGRAMS)), prefix=schedules,
       ops=st.lists(st.tuples(st.sampled_from(("step", "enabled",
                                                "begin_call", "atomic")),
                              st.integers(0, 5)), min_size=1, max_size=4))
def test_a_copy_owns_whatever_it_wrote(program, prefix, ops):
    interp, specs = PROGRAMS[program]
    parent = interp.make_world(specs)
    _drive(interp, parent, prefix, key_each_step=True)
    before = _fragments(parent)
    child = parent.copy()
    for op, choice in ops:
        tid = choice % len(child.threads)
        if op != "atomic":
            _apply(op, interp, child, tid)
            _assert_owns_what_changed(before, child)
        elif program in ATOMIC and not parent.threads[tid].done:
            for outcome in _atomic_outcomes(interp, parent, tid, program):
                if outcome.world is not None:
                    _assert_owns_what_changed(before, outcome.world)
    assert _fragments(parent) == before


def test_owned_thread_written_twice_between_keys():
    # as in run_to_commit: own, key, write in place, key again
    interp, specs = PROGRAMS["gh"]
    world = interp.make_world(specs).copy()
    reference = _deep_copy(world)
    thread = world.own_thread(0)
    for _ in range(4):
        state_key(world)  # fills the thread's cache
        interp.step(world, 0)
        interp.step(reference, 0)
        assert world.threads[0] is thread  # owned: written in place
        assert state_key(world) == state_key(reference)
    state_key(world)
    world.own_thread(0).op_index += 1
    reference.own_thread(0).op_index += 1
    assert state_key(world) == state_key(reference)


SIBLINGS = Interp("""
global G;
init { G = 0; }
proc Take() { local t = LL(G) in { if (SC(G, t + 1)) { return; } } }
proc Put() { G = 5; G = 6; }
""")


def test_invalidated_sibling_stays_intact_in_the_parent():
    parent = SIBLINGS.make_world([ThreadSpec.of(("Take",)),
                                  ThreadSpec.of(("Put",))])
    for _ in range(2):  # invoke Take, then LL(G)
        SIBLINGS.step(parent, 0)
    taker = parent.threads[0]
    assert taker.reservations == {("g", "G"): True}
    before = state_key(parent)
    child = parent.copy()
    for _ in range(2):  # invoke Put, then G = 5
        SIBLINGS.step(child, 1)
    assert child.threads[0].reservations == {("g", "G"): False}
    assert 0 in child._owned
    assert parent.threads[0] is taker
    assert taker.reservations == {("g", "G"): True}
    assert state_key(parent) == before
    assert state_key(child) != before
    # a store that flips no reservation leaves the sibling shared
    grandchild = child.copy()
    SIBLINGS.step(grandchild, 1)  # G = 6
    assert grandchild.threads[0] is child.threads[0]


def test_after_copy_neither_world_owns_a_thread():
    interp, specs = PROGRAMS["gh"]
    world = interp.make_world(specs)
    originals = list(world.threads)
    for tid, thread in enumerate(originals):  # make_world's own threads
        assert world.own_thread(tid) is thread
    child = world.copy()
    assert child.threads == originals
    assert all(a is b for a, b in zip(child.threads, originals))
    for tid, thread in enumerate(originals):
        mine, theirs = world.own_thread(tid), child.own_thread(tid)
        assert mine is not thread and theirs is not thread
        assert mine is not theirs
        assert mine == thread == theirs
        assert world.own_thread(tid) is mine  # owned from now on


def test_thread_cache_is_not_part_of_equality_or_repr():
    interp, specs = PROGRAMS["gh"]
    world = interp.make_world(specs)
    fresh = repr(world.threads[0])
    state_key(world)
    cached = world.threads[0]
    assert cached.canon is not None
    assert repr(cached) == fresh
    assert cached == cached.copy() and cached.copy().canon is None


def test_begin_call_writes_only_the_copy():
    interp, specs = PROGRAMS["gh"]
    parent = interp.make_world(specs)
    before = state_key(parent)
    child = parent.copy()
    interp.begin_call(child, 0, "Apply", (1,))
    assert 0 in child._owned
    assert parent.threads[0].frame is None
    assert child.threads[0].frame is not None
    assert state_key(parent) == before


def test_lock_peek_writes_only_the_copy():
    # enabled() evaluates a field lock's base, which records a read: on
    # a throwaway copy of the thread, so the world is not written
    interp = Interp("""
    class Box { lock; }
    global B;
    init { local b = new Box in { b.lock = new Box; B = b; } }
    proc Hold() { synchronized (B.lock) { skip; } }
    """)
    world = interp.make_world([ThreadSpec.of(("Hold",))])
    interp.step(world, 0)  # invoke: the next node acquires B.lock
    # a world that owns the thread, then a copy that shares it
    for tested in (world, world.copy()):
        before = state_key(tested)
        thread, frag = tested.threads[0], tested.threads[0].canon
        owned = set(tested._owned)
        assert interp.enabled(tested, 0)
        assert tested.threads[0] is thread and thread.canon is frag
        assert thread.observed == {}
        assert tested._owned == owned
        assert state_key(tested) == before


def test_lock_peek_leaves_the_state_space_as_it_is():
    # a peek that recorded its read gave 137 states and 234 transitions
    interp, _specs = PROGRAMS["locks"]
    result = Explorer(interp, [ThreadSpec.of(("Hold",))] * 3, mode="full",
                      collect_quiescent=True).run()
    assert (result.states, result.transitions) == (81, 144)
    assert (len(result.quiescent), len(result.final)) == (8, 1)
