"""Copy-on-write heaps: a world copy shares heap objects with its
original until one side writes, and each object's cached canonical
fragment must follow every write.  Copies are checked against a
deep-copied reference world driven through the same schedule."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import corpus
from repro.errors import AssertionViolation
from repro.interp import AssumeFailed, Interp, ThreadSpec
from repro.interp.state import World
from repro.interp.values import HeapArray, HeapObject
from repro.mc import state_key

PROGRAMS = {
    "gh": (Interp(corpus.GH_PROGRAM1),
           [ThreadSpec.of(("Apply", 1)), ThreadSpec.of(("Apply", 2)),
            ThreadSpec.of(("Apply", 3))]),
    "nfq": (Interp(corpus.NFQ_PRIME),
            [ThreadSpec.of(("AddNode", 1)), ThreadSpec.of(("DeqP",)),
             ThreadSpec.of(("UpdateTail",), repeat=True)]),
}


def _deep_copy(world: World) -> World:
    """An eager copy sharing nothing mutable with ``world``: every heap
    object is duplicated and its cache dropped.  CFGs are program text,
    shared as in :meth:`World.copy`."""
    keep = {}
    for thread in world.threads:
        if thread.frame is not None:
            keep[id(thread.frame.cfg)] = thread.frame.cfg
            keep[id(thread.frame.node)] = thread.frame.node
    out = copy.deepcopy(world, keep)
    for obj in out.heap.objects.values():
        obj.canon = None
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
    reference_parent = _deep_copy(parent)
    children = []
    for branch in branches:
        child = parent.copy()
        reference = _deep_copy(reference_parent)
        _drive(interp, child, branch, key_each_step=True)
        _drive(interp, reference, branch, key_each_step=False)
        assert state_key(child) == state_key(reference)
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


def test_cache_is_not_part_of_equality_or_repr():
    world, obj, arr = _one_object_world()
    state_key(world)
    cached = world.heap.objects[obj.oid]
    assert cached.canon is not None
    assert cached == HeapObject("C")
    assert repr(cached) == repr(HeapObject("C"))
    assert world.heap.objects[arr.oid] == HeapArray("int", [0, 0])
