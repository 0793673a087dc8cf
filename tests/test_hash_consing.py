"""Hash-consed state keys: an exploration stores each distinct globals
key, thread key, heap entry, locks key and ghosts tuple once, through
an interner that lives as long as ``Explorer.run``, and each seen state
as one int of their ids.  Key values are those of a from-scratch
``state_key`` walk, so dedup stays exact."""

import gc
import tracemalloc

import pytest

from repro import corpus
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer, QueueContents, QueueShape, observers
from repro.mc import canonical
from tests.key_oracle import fresh_key

GH = Interp(corpus.GH_PROGRAM1)
GH_SPECS = [ThreadSpec.of(("Apply", i)) for i in (1, 2, 3)]
NFQ = Interp(corpus.NFQ_PRIME)
NFQ_SPECS = [ThreadSpec.of(("AddNode", 1)), ThreadSpec.of(("DeqP",)),
             ThreadSpec.of(("UpdateTail",), repeat=True)]


class _Keys(observers.Observer):
    """Each new state's dedup key, decoded into the nested key, next to
    its world's from-scratch key (no key context, no cached
    fragment)."""

    def __init__(self):
        self.pairs = []

    def start(self, explorer, result):
        self.explorer = explorer

    def state(self, key, world, depth):
        nested = canonical.unpack(self.explorer._intern, key,
                                  len(world.threads))
        self.pairs.append((nested, fresh_key(world)))


def test_memory_per_explored_state():
    gc.collect()
    tracemalloc.start()
    try:
        result = Explorer(GH, GH_SPECS, mode="full", max_states=5000).run()
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.capped and result.states == 5000
    # ~460 B measured with a packed int per seen state, ~555 B with
    # nested key tuples (CPython 3.11)
    assert peak / result.states <= 600


class _TracedAtState(observers.Observer):
    """The traced memory when the search counts its ``n``-th state."""

    def __init__(self, n):
        self.n = n
        self.states = 0
        self.traced = None

    def state(self, key, world, depth):
        self.states += 1
        if self.states == self.n:
            self.traced = tracemalloc.get_traced_memory()[0]


def test_memory_per_explored_state_with_ghosts():
    # what the search holds at its last state, per state: the seen set,
    # the interner, the stack; ~315 B measured with a packed int per
    # seen state, ~475 B with nested key tuples and a ghosts tuple per
    # state (CPython 3.11)
    gc.collect()
    tracemalloc.start()
    try:
        probe = _TracedAtState(1500)
        result = Explorer(NFQ, NFQ_SPECS, mode="full",
                          properties=[QueueShape(), QueueContents()],
                          max_states=1500, observer=probe).run()
    finally:
        tracemalloc.stop()
    assert result.capped and result.violation is None
    assert probe.traced / result.states <= 400


def test_interner_refuses_an_id_wider_than_its_slot(monkeypatch):
    monkeypatch.setattr(canonical, "SLOT_BITS", 3)
    interner = canonical.Interner()
    assert [interner[(n,)] for n in range(7)] == [1, 2, 3, 4, 5, 6, 7]
    assert interner[(3,)] == 4 and interner.objects[4] == (3,)
    with pytest.raises(OverflowError, match="3-bit slot"):
        interner[(7,)]


def test_narrow_slots_keep_dedup_or_raise(monkeypatch):
    expected = Explorer(GH, GH_SPECS[:2], mode="full", max_states=40).run()
    monkeypatch.setattr(canonical, "SLOT_BITS", 8)
    narrow = Explorer(GH, GH_SPECS[:2], mode="full", max_states=40).run()
    assert (narrow.states, narrow.transitions) == \
        (expected.states, expected.transitions)
    monkeypatch.setattr(canonical, "SLOT_BITS", 4)
    explorer = Explorer(GH, GH_SPECS[:2], mode="full", max_states=40)
    with pytest.raises(OverflowError, match="4-bit slot"):
        explorer.run()
    assert explorer._intern is None


@pytest.mark.parametrize("mode", ["full", "por", "atomic"])
def test_dedup_keys_equal_plain_keys(mode):
    probe = _Keys()
    Explorer(GH, GH_SPECS[:2], mode=mode, observer=probe).run()
    assert len(probe.pairs) > 1
    for key, plain in probe.pairs:
        assert key == (plain, ())


def test_dedup_keys_carry_the_ghosts():
    probe = _Keys()
    properties = [QueueShape(), QueueContents()]
    Explorer(NFQ, NFQ_SPECS, mode="full", properties=properties,
             max_states=500, observer=probe).run()
    ghosts0 = tuple(p.initial_ghost() for p in properties)
    assert probe.pairs[0][0] == (probe.pairs[0][1], ghosts0)
    for key, plain in probe.pairs:
        assert key[0] == plain and len(key[1]) == len(properties)


def test_equal_components_are_one_object():
    probe = _Keys()
    Explorer(GH, GH_SPECS, mode="full", max_states=3000,
             observer=probe).run()
    first = {}
    parts = 0
    for (world_key, _ghosts), _plain in probe.pairs:
        globals_key, thread_keys, heap_key, _locks = world_key
        for part in (globals_key, *thread_keys, *heap_key):
            assert first.setdefault(part, part) is part
            parts += 1
    assert len(first) < parts / 10  # the components really are shared


def _dict_referrers(obj) -> int:
    return sum(isinstance(r, dict) for r in gc.get_referrers(obj))


def test_intern_table_does_not_outlive_the_run():
    # with the collector off no container is untracked, so
    # get_referrers sees the table while it exists
    gc.collect()
    gc.disable()
    try:
        during = []

        class Probe(_Keys):
            def state(self, key, world, depth):
                super().state(key, world, depth)
                if len(self.pairs) == 100:
                    during.append(
                        _dict_referrers(self.pairs[-1][0][0][1][0]))

        probe = Probe()
        explorer = Explorer(GH, GH_SPECS[:2], mode="full", observer=probe)
        explorer.run()
        assert during == [1]  # the intern table
        thread_key = probe.pairs[99][0][0][1][0]
        assert _dict_referrers(thread_key) == 0
        assert explorer._intern is None
    finally:
        gc.enable()
