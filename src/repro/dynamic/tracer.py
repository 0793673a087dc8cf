"""Interpreter instrumentation feeding the runtime atomicity checker."""

from __future__ import annotations

from typing import Optional

from repro.dynamic.checker import RuntimeAtomicityChecker
from repro.interp.interp import Interp
from repro.interp.state import Addr, Event, Thread, World


class TracingInterp(Interp):
    """An :class:`Interp` that records every shared access (with the
    lockset held at that moment) into a
    :class:`RuntimeAtomicityChecker`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checker = RuntimeAtomicityChecker()
        self._current: dict[int, int] = {}  # tid -> invocation index

    # -- helpers ------------------------------------------------------------
    def _locks_of(self, world: World, tid: int) -> frozenset:
        return frozenset(oid for oid, (owner, _depth) in
                         world.locks.items() if owner == tid)

    def _observe(self, world: World, thread: Thread, op: str,
                 addr: Addr) -> None:
        if addr[0] not in ("g", "f", "e"):
            return  # thread-private
        invocation = self._current.get(thread.tid)
        if invocation is None:
            return  # init/threadinit or outside any procedure
        self.checker.record(invocation, thread.tid, op, addr,
                            self._locks_of(world, thread.tid))

    # -- instrumented hooks ----------------------------------------------------
    def _record_read(self, world: World, thread: Thread,
                     addr: Addr) -> None:
        super()._record_read(world, thread, addr)
        self._observe(world, thread, "read", addr)

    def _store(self, world: World, thread: Thread, addr: Addr,
               value) -> None:
        super()._store(world, thread, addr, value)
        self._observe(world, thread, "write", addr)

    def step(self, world: World, tid: Optional[int],
             thread: Optional[Thread] = None) -> Optional[Event]:
        real_tid = thread.tid if thread is not None else tid
        before = dict(world.locks)
        event = super().step(world, tid, thread=thread)
        after = world.locks
        if real_tid is not None and real_tid >= 0:
            invocation = self._current.get(real_tid)
            if invocation is not None and before != after:
                grew = len(after) > len(before) or any(
                    after.get(oid, (None, 0))[1] > depth
                    for oid, (_o, depth) in before.items())
                for oid in set(before) | set(after):
                    if before.get(oid) != after.get(oid):
                        op = "acquire" if grew else "release"
                        self.checker.record(
                            invocation, real_tid, op, ("lock", oid),
                            self._locks_of(world, real_tid))
        if event is not None and event.tid >= 0:
            if event.kind == "invoke":
                self._current[event.tid] = self.checker.begin(
                    event.tid, event.proc)
            elif event.kind == "return":
                self._current.pop(event.tid, None)
        return event
