"""The from-scratch oracle for incremental state keys.

The explorer keys each successor from its parent's key context
(:func:`repro.mc.canonical.state_key` with ``base``).  The oracle keys
the same world without a context and without a cached fragment: a
full walk of a copy whose threads and heap objects are fresh
(:func:`fresh_key`).  :class:`FromScratch` compares the two on every
transition of a search, duplicates included, and digests both
sequences.  It also checks the dedup itself, which the explorer does
on packed ints: a transition is a duplicate exactly when its nested
key (the packed int decoded by :func:`repro.mc.canonical.unpack`) was
seen before, and the search counts as many states as it saw distinct
nested keys.  The oracle attaches to the explorer as an observer, and
the explorer takes the same path with and without one.

Run as a module, it is the key-exactness canary: GH with threads
``Apply(1..3)`` at 20,000 states, the two correct Table 2 rows in
``full`` mode, :data:`ALIAS` and :data:`LOCKS` must give equal
digests::

    PYTHONPATH=src python -m tests.key_oracle
"""

from __future__ import annotations

import hashlib
import sys
from typing import Optional

from repro.corpus import GH_PROGRAM1, NFQ_PRIME
from repro.experiments import table2
from repro.interp import Interp, ThreadSpec
from repro.interp.state import World
from repro.mc import (Explorer, QueueContents, QueueShape, observers,
                      state_key)
from repro.mc.canonical import unpack


def fresh_world(world: World) -> World:
    """A copy of ``world`` sharing no thread or heap object with it, so
    no cached fragment either."""
    out = World()
    out.globals = dict(world.globals)
    out.locks = dict(world.locks)
    out.versions = dict(world.versions)
    out.threads = [thread.copy() for thread in world.threads]
    out.heap.objects = {oid: obj.copy()
                        for oid, obj in world.heap.objects.items()}
    return out


def fresh_key(world: World) -> tuple:
    """``world``'s key from a full walk of :func:`fresh_world`."""
    return state_key(fresh_world(world))


class FromScratch(observers.Observer):
    """Checks each dedup key (the initial state's and every
    transition's), decoded, against :func:`fresh_key` of its world,
    with the same ghosts, and digests both sequences with SHA-1.
    Checks each transition's ``dup`` flag against the nested keys seen
    so far, and their number against the states the search counted.
    A step memo hit comes without its world: the oracle builds it from
    the parent world and the memo's thread, as the explorer does for a
    new state."""

    def __init__(self) -> None:
        self.dedup = hashlib.sha1()
        self.scratch = hashlib.sha1()
        self.checked = 0
        #: the first few ``(dedup key, from-scratch key)`` that differ
        self.mismatches: list[tuple] = []
        #: the distinct from-scratch keys with their ghosts
        self.keys: set = set()
        #: transitions whose ``dup`` flag disagrees with ``keys``
        self.dup_mismatches = 0
        #: ``result.states`` once the search is over
        self.states: Optional[int] = None

    def start(self, explorer, result):
        self.explorer = explorer

    def _check(self, packed: int, world: World) -> tuple:
        """The from-scratch key with the ghosts of ``packed``, a dedup
        key: its decoded nested key, whose components are shared, when
        the two are equal."""
        key = unpack(self.explorer._intern, packed, len(world.threads))
        expected = (fresh_key(world), key[1])
        self.dedup.update(repr(key).encode())
        self.scratch.update(repr(expected).encode())
        self.checked += 1
        if key == expected:
            return key
        if len(self.mismatches) < 5:
            self.mismatches.append((key, expected))
        return expected

    def state(self, key, world, depth):
        if depth == 1:
            self.keys.add(self._check(key, world))

    def transition(self, succ, key, dup):
        world = succ.world
        if world is None:
            world = succ.parent.copy()
            world.threads[succ.tid] = succ.memo.thread
        expected = self._check(key, world)
        if dup != (expected in self.keys):
            self.dup_mismatches += 1
        self.keys.add(expected)

    def finish(self, result):
        self.states = result.states

    @property
    def exact(self) -> bool:
        """Every key, dedup flag and the state count agreed."""
        return (not self.mismatches and not self.dup_mismatches
                and self.dedup.digest() == self.scratch.digest()
                and len(self.keys) == self.states)


def explore(interp, specs, mode: str, max_states: Optional[int] = None,
            properties=None, **options) -> tuple:
    """``(result, oracle)`` of one exploration under :class:`FromScratch`;
    ``options`` go to :class:`~repro.mc.explorer.Explorer`."""
    oracle = FromScratch()
    result = Explorer(interp, specs, mode=mode, properties=properties,
                      max_states=max_states, observer=oracle,
                      **options).run()
    return result, oracle


#: a field lock: each thread's enabledness test reads ``B`` to find the
#: lock, which must write nothing to the world it tests
LOCKS = """
class Box { lock; n; }
global B;
init { local b = new Box in { b.lock = new Box; b.n = 0; B = b; } }
proc Hold() { synchronized (B.lock) { B.n = B.n + 1; } }
"""
LOCKS_SPECS = [ThreadSpec.of(("Hold",)) for _ in range(3)]

#: a load that observes a heap object its thread holds no ref to: Read
#: observes B's cell, whose number Move changes from 2 to 1 without
#: changing Read's key, so a step memo keyed without that number gives
#: Read's successor the wrong one
ALIAS = """
class Cell { f; }
global A; global B; global C;
init { A = new Cell; B = new Cell; C = null; }
proc Read() { local x = B.f in { return x; } }
proc Move() { C = A; A = null; return 0; }
"""
ALIAS_SPECS = [ThreadSpec.of(("Read",)), ThreadSpec.of(("Move",))]


def canary_runs(cap: Optional[int] = None) -> list[tuple[str, tuple]]:
    """The canary's explorations, as ``(label, (result, oracle))``:
    GH with threads ``Apply(1..3)`` (20,000 states) and the correct
    Table 2 rows in ``full`` mode (to the end), or each capped at
    ``cap`` states, :data:`ALIAS` in ``full`` mode (20 states) and
    :data:`LOCKS` in ``full`` mode (81 states)."""
    gh_specs = [ThreadSpec.of(("Apply", i)) for i in (1, 2, 3)]
    runs = [("gh-full", explore(Interp(GH_PROGRAM1), gh_specs, "full",
                                cap or 20_000))]
    nfq = Interp(NFQ_PRIME)
    for label, specs in (("unbounded AddNode", table2._specs_add_heavy(2)),
                         ("unbounded DeqP", table2._specs_deq_heavy(2))):
        runs.append((f"{label}/full", explore(
            nfq, specs, "full", cap or 400_000,
            [QueueShape(), QueueContents()])))
    runs.append(("alias/full", explore(Interp(ALIAS), ALIAS_SPECS, "full")))
    runs.append(("locks/full", explore(Interp(LOCKS), LOCKS_SPECS, "full")))
    return runs


def main() -> int:
    failed = False
    for label, (result, oracle) in canary_runs():
        same = oracle.dedup.digest() == oracle.scratch.digest()
        failed |= not oracle.exact
        print(f"{label}: {result.states} states, {oracle.checked} keys, "
              f"sha1 {oracle.dedup.hexdigest()} "
              f"{'==' if same else '!='} {oracle.scratch.hexdigest()}, "
              f"{len(oracle.keys)} distinct, "
              f"{oracle.dup_mismatches} dedup mismatches")
    print("key exactness canary:", "FAILED" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
