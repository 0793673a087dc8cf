"""The replay oracle for the step memo.

The explorer takes a step that writes only its own thread from the
parent thread's memo (:class:`repro.mc.explorer.StepMemo`) whenever
the world holds the values the memo keyed it by.  :class:`Replayed`
takes every such memo hit again with a real interpreter step, on a
copy of the parent world that shares no thread or heap object with
it, and keeps what differs: the successor thread, the event, or any
shared component or other thread the real step wrote.

It is also the oracle for the ``check_state`` calls the explorer skips.
A new state reached by a step that writes only its thread, with every
ghost unchanged, has its parent's shared state and ghosts, and the
parent passed every ``check_state`` (a state is expanded only after its
checks pass), so the explorer runs only ``check_quiescent`` there.
:class:`Replayed` runs every property's ``check_state`` on each such
state's world and counts any result that is not the parent's, None, as
a check mismatch.

Run as a module, it is the step memo replay canary: GH with threads
``Apply(1..3)`` at 20,000 states and the two correct Table 2 rows in
``full`` mode, to the end, must replay every hit without a mismatch,
the Table 2 rows must re-check every skipped ``check_state`` of
``QueueShape`` and ``QueueContents`` without a check mismatch, and GH
must take at least :data:`GH_MIN_HITS` steps from the memo: a
thread reached again along another interleaving is the run's one
thread with its contents, and holds the memo the first one filled::

    PYTHONPATH=src python -m tests.memo_replay
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.corpus import GH_PROGRAM1, NFQ_PRIME
from repro.experiments import table2
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer, QueueContents, QueueShape
from repro.mc.explorer import StepRead
from tests.key_oracle import fresh_world


#: the floor of gh-full's memo hits, between 31,907 (one memo per copy
#: of a thread) and 42,925 (one per distinct thread content): a change
#: that stops equal threads sharing their memo falls below it
GH_MIN_HITS = 40_000


def detached(world):
    """A copy of ``world`` sharing no thread or heap object with it,
    made without touching ``world``'s ownership."""
    out = fresh_world(world)
    out.heap._next = world.heap._next
    return out


class Replayed(Explorer):
    """Replays every memo hit with a real step of a detached copy of
    the parent world and keeps what differs from the memo's leaf."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hits = 0
        #: hits whose memo keyed the step by at least one load
        self.read_hits = 0
        #: the hits that differ, and the first few as
        #: ``"t<tid>: <what>"``
        self.mismatched = 0
        self.mismatches: list[str] = []
        #: states whose skipped check_state calls were run again, and
        #: those where one gave a message
        self.checked = 0
        self.check_mismatched = 0

    def _step_thread(self, world, tid):
        memo = world.threads[tid].memo
        leaf = self._recall(world, memo) if memo is not None else None
        if leaf is not None:
            self.hits += 1
            self.read_hits += memo.__class__ is StepRead
            self._replay(world, tid, leaf)
        return super()._step_thread(world, tid)

    def _check(self, world, ghosts, shared_passed=False):
        if shared_passed and self.properties:
            self.checked += 1
            if any(prop.check_state(world, self.interp, ghost) is not None
                   for prop, ghost in zip(self.properties, ghosts)):
                self.check_mismatched += 1
        return super()._check(world, ghosts, shared_passed)

    def _replay(self, world, tid, leaf):
        stepped = detached(world)
        event = self.interp.step(stepped, tid)
        found = []
        if stepped.threads[tid] != leaf.thread:
            found.append("thread")
        if ([event] if event is not None else []) != leaf.events:
            found.append("event")
        if stepped.globals != world.globals:
            found.append("globals")
        if stepped.heap.objects != world.heap.objects \
                or stepped.heap._next != world.heap._next:
            found.append("heap")
        if stepped.versions != world.versions:
            found.append("versions")
        if stepped.locks != world.locks:
            found.append("locks")
        if any(t != world.threads[j] for j, t in enumerate(stepped.threads)
               if j != tid):
            found.append("other threads")
        if found:
            self.mismatched += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"t{tid}: {', '.join(found)}")


def replayed(interp, specs, mode: str, max_states: Optional[int] = None,
             props: bool = False, cls=Replayed) -> tuple:
    """``(result, explorer)`` of one exploration under ``cls``, with
    Table 2's queue properties when ``props``."""
    explorer = cls(interp, specs, mode=mode, max_states=max_states,
                   properties=[QueueShape(), QueueContents()]
                   if props else None)
    return explorer.run(), explorer


def main() -> int:
    gh_specs = [ThreadSpec.of(("Apply", i)) for i in (1, 2, 3)]
    runs = [("gh-full", replayed(Interp(GH_PROGRAM1), gh_specs, "full",
                                 20_000))]
    nfq = Interp(NFQ_PRIME)
    for label, specs in (("unbounded AddNode", table2._specs_add_heavy(2)),
                         ("unbounded DeqP", table2._specs_deq_heavy(2))):
        runs.append((f"{label}/full",
                     replayed(nfq, specs, "full", props=True)))
    failed = False
    for label, (result, explorer) in runs:
        failed |= bool(explorer.mismatched) or not explorer.read_hits
        if label == "gh-full":
            failed |= explorer.hits < GH_MIN_HITS
        else:
            failed |= bool(explorer.check_mismatched) \
                or not explorer.checked
        print(f"{label}: {result.states} states, {explorer.hits} memo "
              f"hits ({explorer.read_hits} keyed by loads), "
              f"{explorer.mismatched} mismatches "
              f"{explorer.mismatches}; skipped check_state re-run on "
              f"{explorer.checked} states, {explorer.check_mismatched} "
              f"check mismatches")
    print("step memo replay canary:", "FAILED" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
