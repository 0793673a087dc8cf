"""Incremental state keys: the explorer keys each successor from its
parent's key context and re-renders only what the step wrote.  Every
dedup key must equal a from-scratch key of the same world
(:mod:`tests.key_oracle`), on whole explorations and on one direct case
per reason to fall back to a full walk or to re-render an unwritten
part."""

from functools import lru_cache

import pytest

from repro import corpus
from repro.analysis import analyze_program
from repro.interp import Interp, ThreadSpec
from repro.experiments.section63 import commutes
from repro.mc import Explorer, Property, QueueContents, QueueShape
from repro.mc.canonical import Interner, KeyContext, state_key
from tests.key_oracle import (LOCKS, LOCKS_SPECS, FromScratch, canary_runs,
                              explore, fresh_key)

GH = Interp(corpus.GH_PROGRAM1)
GH_SPECS = [ThreadSpec.of(("Apply", i)) for i in (1, 2, 3)]
NFQ = Interp(corpus.NFQ_PRIME)
NFQ_SPECS = [ThreadSpec.of(("AddNode", 1)), ThreadSpec.of(("DeqP",)),
             ThreadSpec.of(("UpdateTail",), repeat=True)]
#: the state cap of the tier-1 explorations
CAP = 1500


def _assert_exact(oracle) -> None:
    assert oracle.checked > 1
    assert oracle.mismatches == []
    assert oracle.dedup.digest() == oracle.scratch.digest()
    # the dedup on packed ints agrees with the nested keys
    assert oracle.dup_mismatches == 0
    assert len(oracle.keys) == oracle.states


def test_key_exactness_canary_small():
    # the CI canary's explorations, capped but for the alias program's
    # 20 states and the lock program's 81
    for label, (result, oracle) in canary_runs(CAP):
        assert result.capped != (label in ("alias/full", "locks/full"))
        _assert_exact(oracle)


@pytest.mark.parametrize("mode", ["por", "atomic", "both"])
def test_gh_reduced_modes_are_exact(mode):
    _assert_exact(explore(GH, GH_SPECS, mode, CAP,
                          commutes=commutes if mode == "both" else None)[1])


@pytest.mark.parametrize("mode", ["full", "atomic"])
def test_nfq_with_properties_is_exact(mode):
    result, oracle = explore(NFQ, NFQ_SPECS, mode, CAP,
                             [QueueShape(), QueueContents()])
    assert result.violation is None
    _assert_exact(oracle)


@lru_cache(maxsize=None)
def _nfq_variants() -> tuple[Interp, dict]:
    variant_set = analyze_program(corpus.NFQ_PRIME).variant_set
    return Interp(variant_set.program), {
        src: [v.name for v in vs] for src, vs in variant_set.by_source.items()}


class _ReturnOrder(Property):
    """Ghost: the tids in the order their operations returned.  Worlds
    reached in another order can be equal, their ghosts are not."""

    def initial_ghost(self):
        return ()

    def on_event(self, ghost, event):
        return ghost + (event.tid,) if event.kind == "return" else ghost


def test_ghosts_the_world_does_not_determine_are_exact():
    result, oracle = explore(GH, GH_SPECS[:2], "full", None,
                             [_ReturnOrder()])
    _assert_exact(oracle)
    # equal worlds with other ghosts are other states
    assert result.states > Explorer(GH, GH_SPECS[:2], mode="full").run().states


class _FlipsOneDup(FromScratch):
    """Reports one transition with the wrong ``dup`` flag."""

    def transition(self, succ, key, dup):
        super().transition(succ, key, dup != (self.checked == 9))


def test_oracle_catches_a_wrong_dup_flag():
    oracle = _FlipsOneDup()
    Explorer(GH, GH_SPECS[:2], mode="full", max_states=200,
             observer=oracle).run()
    assert oracle.mismatches == [] and oracle.dup_mismatches == 1
    assert not oracle.exact


def test_variant_successors_are_exact():
    variant_interp, variant_map = _nfq_variants()
    _assert_exact(explore(NFQ, NFQ_SPECS, "atomic",
                          variant_interp=variant_interp,
                          variant_map=variant_map)[1])


# -- one direct case per fallback or re-render reason -------------------------


def _root(interp: Interp, *calls: str):
    world = interp.make_world([ThreadSpec.of((c,)) for c in calls])
    return world, state_key(world, KeyContext(Interner()))


def _step(interp: Interp, world, ctx, tid: int):
    """Copy ``world``, step thread ``tid`` and key the copy from
    ``ctx``; the key must be the from-scratch one."""
    child = world.copy()
    interp.step(child, tid)
    child_ctx = state_key(child, ctx)
    assert child_ctx.key == fresh_key(child)
    return child, child_ctx


def test_global_that_moves_a_ref_falls_back():
    interp = Interp("""
    class C { v; }
    global X; global Y; global N;
    init { X = new C; Y = new C; N = 0; }
    proc Move() { X = Y; }
    proc Count() { N = 1; }
    """)
    world, ctx = _root(interp, "Move", "Count")
    world, ctx = _step(interp, world, ctx, 1)  # invoke Count
    counted, counted_ctx = _step(interp, world, ctx, 1)  # N = 1
    assert counted_ctx.ids is ctx.ids  # an int global keeps the numbering
    assert counted_ctx.key[0] != ctx.key[0]
    world, ctx = _step(interp, world, ctx, 0)  # invoke Move
    moved, moved_ctx = _step(interp, world, ctx, 0)  # X = Y
    assert moved_ctx.ids is not ctx.ids


def test_frame_that_gains_a_later_numbered_ref_falls_back():
    interp = Interp("""
    class C { next; data; }
    global H;
    init { local a = new C in { a.next = new C; a.data = new C; H = a; } }
    proc Peek() { local m = H.data in { skip; } }
    """)
    world, ctx = _root(interp, "Peek")
    world, ctx = _step(interp, world, ctx, 0)  # invoke
    peeked, peeked_ctx = _step(interp, world, ctx, 0)  # m = H.data
    # the data object is now numbered by the thread, before next's
    assert peeked_ctx.ids != ctx.ids


def test_heap_write_that_links_a_fresh_allocation_falls_back():
    interp = Interp("""
    class C { next; v; }
    global H;
    init { H = new C; }
    proc Link() { H.v = 1; H.next = new C; }
    """)
    world, ctx = _root(interp, "Link")
    world, ctx = _step(interp, world, ctx, 0)  # invoke
    world, ctx = _step(interp, world, ctx, 0)  # H.v = 1
    assert world.heap.owned and ctx.key[2][0][3] == (("v", 1),)
    linked, linked_ctx = _step(interp, world, ctx, 0)  # H.next = new C
    assert linked_ctx.ids is not ctx.ids
    assert len(linked_ctx.key[2]) == len(ctx.key[2]) + 1


def test_lock_acquire_and_release_rekey_the_locks():
    interp = Interp("""
    class C { v; }
    global L;
    init { L = new C; }
    proc Hold() { synchronized (L) { skip; } }
    """)
    world, ctx = _root(interp, "Hold")
    world, ctx = _step(interp, world, ctx, 0)  # invoke
    held, held_ctx = _step(interp, world, ctx, 0)  # acquire
    assert held_ctx.ids is ctx.ids
    assert held_ctx.key[3] == ((1, (0, 1)),) and ctx.key[3] == ()
    while held.locks:
        held, held_ctx = _step(interp, held, held_ctx, 0)
    assert held_ctx.ids is ctx.ids and held_ctx.key[3] == ()


def test_store_that_stales_an_unwritten_observer_rerenders_it():
    interp = Interp("""
    global G;
    init { G = 0; }
    proc Read() { local t = G in { skip; } }
    proc Write() { G = 1; }
    """)
    world, ctx = _root(interp, "Read", "Write")
    world, ctx = _step(interp, world, ctx, 0)  # invoke Read
    world, ctx = _step(interp, world, ctx, 0)  # t = G
    assert ("g", "G") in ctx.key[1][0][4]  # the counter is current
    world, ctx = _step(interp, world, ctx, 1)  # invoke Write
    stored, stored_ctx = _step(interp, world, ctx, 1)  # G = 1
    assert stored.threads[0] is world.threads[0]  # reader not written
    assert stored_ctx.ids is ctx.ids
    assert ("g", "G") not in stored_ctx.key[1][0][4]


def test_reservation_invalidated_on_another_thread_rerenders_it():
    interp = Interp("""
    class C { v; }
    global G; global O;
    init { G = 0; O = new C; }
    proc Take() { local t = LL(G) in { local o = O in {
                    if (SC(G, t + 1)) { return; } } } }
    proc Put() { G = 5; }
    """)
    world, ctx = _root(interp, "Take", "Put")
    world, ctx = _step(interp, world, ctx, 0)  # invoke Take
    world, ctx = _step(interp, world, ctx, 0)  # LL(G)
    world, ctx = _step(interp, world, ctx, 0)  # o = O (a frame ref)
    assert ctx.key[1][0][3] == (("g", "G"),)
    world, ctx = _step(interp, world, ctx, 1)  # invoke Put
    put, put_ctx = _step(interp, world, ctx, 1)  # G = 5
    assert put.threads[0] is not world.threads[0]  # copied to invalidate
    assert put_ctx.ids is ctx.ids
    assert put_ctx.key[1][0][3] == ()


def test_lock_peek_after_keying_reaches_the_successors():
    # the explorer tests enabledness on the world it expands, after
    # keying it: finding a field lock evaluates its base, whose read
    # must reach neither that world nor the successors that share its
    # threads, so their keys and step memos stay those of the threads
    # they hold
    result, oracle = explore(Interp(LOCKS), LOCKS_SPECS, "full")
    assert result.states == 81
    _assert_exact(oracle)
