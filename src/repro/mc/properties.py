"""Safety properties for the model checker.

A property carries *ghost state* (updated from history events by the
explorer — e.g. the multiset of enqueued and dequeued values) and two
checks: ``check_state`` holds in every explored state,
``check_quiescent`` is run in every state where all threads are idle
(the states at which the atomicity definition of §3.2 compares
executions).  Ghost state is part of the canonical state key,
mirroring TVLA's instrumentation predicates.

``check_state`` may read only the shared state (globals, heap, locks
and versions) and its ghost.  The explorer relies on it: a state
reached by a step that wrote only its own thread and changed no ghost
has its parent's shared state and ghosts, and the parent passed, so
the explorer does not run ``check_state`` there (see
:class:`Property`).  ``check_quiescent`` may read threads too, and runs
in every quiescent state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.interp.interp import Interp
from repro.interp.state import Event, World
from repro.interp.values import HeapObject, Ref


class Property:
    """Base class: stateless checks with trivial ghost.

    ``on_event(ghost, event)`` returns the ghost after a history event;
    ``ghost`` itself when the event does not change it, which lets the
    explorer keep the state's ghosts tuple.

    ``check_state(world, interp, ghost)`` must be a function of
    ``world``'s shared state (globals, heap, locks, versions) and
    ``ghost``: it runs at the initial state and at every state reached
    by a step that wrote shared state or changed a ghost, and is taken
    to pass, without a call, at a state reached by a step that wrote
    only its own thread and changed no ghost, whose parent passed it.
    ``check_quiescent(world, interp, ghost)`` runs at every quiescent
    state and may read anything."""

    def initial_ghost(self):
        return None

    def on_event(self, ghost, event: Event):
        return ghost

    def check_state(self, world: World, interp: Interp,
                    ghost) -> Optional[str]:
        return None

    def check_quiescent(self, world: World, interp: Interp,
                        ghost) -> Optional[str]:
        return None


@dataclass
class QueueShape(Property):
    """Structural invariant of the Michael–Scott queue: the Head chain is
    acyclic, Tail is on it, and Tail lags the last node by at most one
    link."""

    head: str = "Head"
    tail: str = "Tail"
    next_field: str = "Next"
    max_len: int = 64

    def _chain(self, world: World) -> Optional[list[int]]:
        ref = world.globals.get(self.head)
        chain: list[int] = []
        seen: set[int] = set()
        while isinstance(ref, Ref):
            if ref.oid in seen or len(chain) > self.max_len:
                return None  # cycle
            seen.add(ref.oid)
            chain.append(ref.oid)
            obj = world.heap.get(ref)
            if not isinstance(obj, HeapObject):
                return None
            ref = obj.fields.get(self.next_field)
        return chain

    def check_state(self, world: World, interp: Interp,
                    ghost) -> Optional[str]:
        chain = self._chain(world)
        if chain is None:
            return "queue chain is cyclic or malformed"
        tail = world.globals.get(self.tail)
        if not isinstance(tail, Ref):
            return "Tail is not an object reference"
        if tail.oid not in chain:
            return "Tail not reachable from Head"
        if chain.index(tail.oid) < len(chain) - 2:
            return "Tail lags the last node by more than one link"
        return None


class _QueueGhost(NamedTuple):
    enqueued: tuple = ()   # values whose AddNode/Enq returned
    dequeued: tuple = ()   # values returned by Deq (except EMPTY)


@dataclass
class QueueContents(Property):
    """Functional invariant checked at quiescent states: the multiset of
    values in the queue equals completed enqueues minus completed
    dequeues, and each thread's values come out in FIFO order.  This
    catches the lost-node bug of the incorrect AddNode in Table 2."""

    enq_procs: tuple = ("AddNode", "Enq")
    deq_procs: tuple = ("Deq", "DeqP")
    head: str = "Head"
    next_field: str = "Next"
    value_field: str = "Value"
    empty: int = -1

    def initial_ghost(self):
        return _QueueGhost()

    def on_event(self, ghost: _QueueGhost, event: Event):
        if event.kind != "return":
            return ghost
        if event.proc in self.enq_procs:
            return _QueueGhost(ghost.enqueued + (event.args[0],),
                               ghost.dequeued)
        if event.proc in self.deq_procs and event.result != self.empty:
            return _QueueGhost(ghost.enqueued,
                               ghost.dequeued + (event.result,))
        return ghost

    def _values(self, world: World) -> Optional[list]:
        ref = world.globals.get(self.head)
        if not isinstance(ref, Ref):
            return None
        values = []
        seen: set[int] = set()
        obj = world.heap.get(ref)
        ref = obj.fields.get(self.next_field)  # skip the dummy node
        while isinstance(ref, Ref):
            if ref.oid in seen:
                return None
            seen.add(ref.oid)
            node = world.heap.get(ref)
            values.append(node.fields.get(self.value_field))
            ref = node.fields.get(self.next_field)
        return values

    def check_quiescent(self, world: World, interp: Interp,
                        ghost: _QueueGhost) -> Optional[str]:
        values = self._values(world)
        if values is None:
            return "queue chain is malformed"
        expect = list(ghost.enqueued)
        for v in ghost.dequeued:
            if v in expect:
                expect.remove(v)
            else:
                return f"dequeued value {v!r} was never enqueued"
        if sorted(map(repr, values)) != sorted(map(repr, expect)):
            return (f"queue contents {values!r} != outstanding "
                    f"enqueues {expect!r} (lost or duplicated node)")
        return None
