"""Canonical state hashing: allocation-order invariance, reservation
and counter abstraction, repeat-script wrapping."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import Interp, ThreadSpec, run_random
from repro.mc import quiescent_key, state_key

SOURCE = """
class Node { Value; Next; }
global Head;
init {
  local d = new Node in { d.Next = null; Head = d; }
}
proc Add(v) {
  local n = new Node in {
    n.Value = v;
    local h = LL(Head) in {
      n.Next = h;
      if (SC(Head, n)) { return 1; }
      return 0;
    }
  }
}
proc Noop() { skip; }
"""


def _world(specs):
    interp = Interp(SOURCE)
    return interp, interp.make_world(specs)


def test_key_is_deterministic():
    _, w1 = _world([ThreadSpec.of(("Add", 1))])
    _, w2 = _world([ThreadSpec.of(("Add", 1))])
    assert state_key(w1) == state_key(w2)


def test_key_distinguishes_global_values():
    interp, w1 = _world([ThreadSpec.of(("Add", 1))])
    w2 = w1.copy()
    run_random(interp, w2, seed=0)
    assert state_key(w1) != state_key(w2)


def test_allocation_order_is_canonicalized():
    """Allocating garbage first must not change the key: object ids are
    renamed by reachability order and garbage is dropped."""
    interp = Interp(SOURCE)
    w1 = interp.make_world([ThreadSpec.of(("Add", 1))])
    w2 = interp.make_world([ThreadSpec.of(("Add", 1))])
    # create unreachable garbage in w2's heap with different raw oids
    for _ in range(5):
        w2.heap.alloc("Node")
    assert state_key(w1) == state_key(w2)


def test_invalid_reservation_equals_no_reservation():
    interp = Interp(SOURCE)
    w1 = interp.make_world([ThreadSpec.of(("Add", 1))])
    w2 = w1.copy()
    w2.own_thread(0).reservations[("g", "Head")] = False
    assert state_key(w1) == state_key(w2)


def test_valid_reservation_changes_key():
    interp = Interp(SOURCE)
    w1 = interp.make_world([ThreadSpec.of(("Add", 1))])
    w2 = w1.copy()
    w2.own_thread(0).reservations[("g", "Head")] = True
    assert state_key(w1) != state_key(w2)


def test_stale_observation_equals_no_observation():
    interp = Interp(SOURCE)
    w1 = interp.make_world([ThreadSpec.of(("Add", 1))])
    w2 = w1.copy()
    w2.versions[("g", "Head")] = 7
    w1.versions[("g", "Head")] = 7
    w2.own_thread(0).observed[("g", "Head")] = 3  # != current 7: stale
    assert state_key(w1) == state_key(w2)


def test_absolute_version_numbers_do_not_leak_into_key():
    interp = Interp(SOURCE)
    w1 = interp.make_world([ThreadSpec.of(("Add", 1))])
    w2 = w1.copy()
    w1.versions[("g", "Head")] = 3
    w2.versions[("g", "Head")] = 3000
    w1.own_thread(0).observed[("g", "Head")] = 3     # current in w1
    w2.own_thread(0).observed[("g", "Head")] = 3000  # current in w2
    assert state_key(w1) == state_key(w2)


def test_repeat_script_op_index_wraps():
    interp = Interp(SOURCE)
    w1 = interp.make_world([ThreadSpec.of(("Noop",), repeat=True)])
    w2 = w1.copy()
    w2.own_thread(0).op_index = 4  # 4 % 1 == 0
    assert state_key(w1) == state_key(w2)


def test_quiescent_key_ignores_stale_reservations():
    interp = Interp(SOURCE)
    w1 = interp.make_world([ThreadSpec.of(("Add", 1))])
    w2 = w1.copy()
    w2.own_thread(0).reservations[("g", "Head")] = True
    assert quiescent_key(w1) == quiescent_key(w2)
    assert state_key(w1) != state_key(w2)


@given(st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=20, deadline=None)
def test_same_schedule_same_key_property(seed_a, seed_b):
    """Keys agree iff the runs end in observably-equal states; for the
    single-threaded Add program, every schedule gives the same result."""
    interp = Interp(SOURCE)
    w1 = interp.make_world([ThreadSpec.of(("Add", 1), ("Add", 2))])
    w2 = interp.make_world([ThreadSpec.of(("Add", 1), ("Add", 2))])
    run_random(interp, w1, seed=seed_a)
    run_random(interp, w2, seed=seed_b)
    assert state_key(w1) == state_key(w2)


def _record_with_two_refs(first: str, second: str):
    from repro.interp.state import World

    world = World()
    rec = world.heap.alloc("R")
    world.globals["G"] = rec
    world.heap.write_field(rec, first, world.heap.alloc("X"))
    world.heap.write_field(rec, second, world.heap.alloc("Y"))
    return world


def test_refs_numbered_in_field_insertion_order():
    """A record's fields are keyed in name order, but the objects they
    point to are numbered in the order the fields were written, with
    the key cached or not."""
    in_order = _record_with_two_refs("a", "b")
    reversed_ = _record_with_two_refs("b", "a")
    for _ in range(2):  # the second key comes from the cached fragment
        assert state_key(in_order)[2] == (
            ("obj", 1, "R", (("a", ("ref", 2)), ("b", ("ref", 3)))),
            ("obj", 2, "X", ()), ("obj", 3, "Y", ()))
        assert state_key(reversed_)[2] == (
            ("obj", 1, "R", (("a", ("ref", 3)), ("b", ("ref", 2)))),
            ("obj", 2, "X", ()), ("obj", 3, "Y", ()))
