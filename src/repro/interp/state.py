"""Program state for the SYNL interpreter: threads, frames, worlds.

A :class:`World` is a complete program state — global store, heap, lock
table, and per-thread local state — that can be copied (for the model
checker's branching exploration) and canonicalized
(:mod:`repro.mc.canonical`).  A copy is independent of its original:
stores and lock table are copied eagerly, threads and the heap on write
(:meth:`World.own_thread`, :class:`repro.interp.values.Heap`).

Threads carry two caches for the model checker, both derived from the
thread's own contents and both dropped by :meth:`World.own_thread`
before every write: ``canon``, its key fragment
(:mod:`repro.mc.canonical`), and ``memo``, its next step when that
step writes nothing but the thread (:mod:`repro.mc.explorer`'s step
memo).  Such a step's successor is a function of the thread and of
the shared values it loads, which a world collects in ``reads`` while
one is set (:meth:`repro.interp.interp.Interp.load`); the memo keys
the successor by them.  It holds the successor thread, which no world
owns (:meth:`World.disown`): a world that steps it again copies it
first, so a cached thread never changes.  The explorer keeps one such
unowned thread per distinct thread content for a whole run, so equal
threads reached along different interleavings are one object with
one memo.  Once keyed, a world is never written: the explorer steps
its copies, and ``Interp.enabled`` peeks at a lock without writing.

Each thread executes a :class:`ThreadSpec`: a list of procedure
invocations (optionally repeated forever), which models the paper's
environment that "invokes procedures with arbitrary arguments and an
arbitrary amount of concurrency" (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cfg.graph import CFGNode, ProcCFG
from repro.interp.values import Heap, Value, cache_slot

#: ('g', name) | ('t', tid, name) | ('l', tid, binder) | ('f', oid, fd) |
#: ('e', oid, i), and ('c', oid), object oid's class, as a shared load
Addr = tuple


@dataclass(frozen=True)
class ThreadSpec:
    """What one environment thread does: a sequence of invocations."""

    ops: tuple  # tuple[tuple[str, tuple[Value, ...]], ...]
    repeat: bool = False

    @staticmethod
    def of(*calls, repeat: bool = False) -> "ThreadSpec":
        """``ThreadSpec.of(("Enq", 1), ("Deq",))``"""
        norm = tuple((name, tuple(rest)) for name, *rest in
                     (c if isinstance(c, tuple) else (c,) for c in calls))
        return ThreadSpec(norm, repeat)


@dataclass
class Event:
    kind: str       # 'invoke' | 'return'
    tid: int
    proc: str
    args: tuple
    result: Value = None
    seq: int = 0

    def __repr__(self) -> str:
        if self.kind == "invoke":
            return f"[{self.seq}] t{self.tid} call {self.proc}{self.args}"
        return (f"[{self.seq}] t{self.tid} ret  {self.proc}{self.args}"
                f" = {self.result!r}")


@dataclass
class Frame:
    proc_name: str
    cfg: ProcCFG
    node: Optional[CFGNode]      # the node about to execute
    env: dict[int, Value] = field(default_factory=dict)
    args: tuple = ()

    def copy(self) -> "Frame":
        return Frame(self.proc_name, self.cfg, self.node, dict(self.env),
                     self.args)


@dataclass
class Thread:
    tid: int
    spec: ThreadSpec
    op_index: int = 0
    frame: Optional[Frame] = None
    threadlocals: dict[str, Value] = field(default_factory=dict)
    #: addr -> reservation still valid?
    reservations: dict[Addr, bool] = field(default_factory=dict)
    #: addr -> modification counter observed at the last read
    observed: dict[Addr, int] = field(default_factory=dict)
    #: :mod:`repro.mc.canonical`'s cached key fragment of this thread;
    #: :meth:`World.own_thread` clears it before every write
    canon: Optional[tuple] = cache_slot()
    #: :mod:`repro.mc.explorer`'s memo of this thread's next step, when
    #: that step writes nothing but the thread; :meth:`World.own_thread`
    #: clears it before every write
    memo: Optional[object] = cache_slot()

    @property
    def done(self) -> bool:
        if self.frame is not None:
            return False
        if self.spec.repeat:
            return not self.spec.ops
        return self.op_index >= len(self.spec.ops)

    def current_call(self) -> tuple[str, tuple]:
        ops = self.spec.ops
        return ops[self.op_index % len(ops)]

    def copy(self) -> "Thread":
        return Thread(
            self.tid, self.spec, self.op_index,
            self.frame.copy() if self.frame is not None else None,
            dict(self.threadlocals), dict(self.reservations),
            dict(self.observed))


class World:
    """A complete, copyable program state.

    Copies share their threads, as heaps share their objects.  A world
    *owns* the threads it added (:meth:`add_thread`) and those it has
    already copied; code that writes a thread of a world takes it from
    :meth:`own_thread`.  A thread's tid is its index in ``threads``."""

    def __init__(self) -> None:
        self.globals: dict[str, Value] = {}
        self.heap = Heap()
        self.locks: dict[int, tuple[int, int]] = {}  # oid -> (tid, depth)
        self.versions: dict[Addr, int] = {}          # store counters
        self.threads: list[Thread] = []
        self.history: list[Event] = []
        self._seq = 0
        #: tids of the threads no other world can see
        self._owned: set[int] = set()
        #: when a list, each step appends to it the shared addresses it
        #: loads from this world (:meth:`repro.interp.interp.Interp.load`)
        self.reads: Optional[list] = None

    def add_thread(self, thread: Thread) -> None:
        self._owned.add(len(self.threads))
        self.threads.append(thread)

    def own_thread(self, tid: int) -> Thread:
        """Thread ``tid`` made safe to write: a shared thread is
        replaced by a private copy, an owned one drops its caches."""
        thread = self.threads[tid]
        if tid in self._owned:
            thread.canon = thread.memo = None
            return thread
        thread = self.threads[tid] = thread.copy()
        self._owned.add(tid)
        return thread

    def disown(self, tid: int) -> None:
        """Give up thread ``tid``: from now on it is shared, and a
        write copies it first."""
        self._owned.discard(tid)

    def wrote_only(self, tid: int, parent: "World") -> bool:
        """Has nothing but thread ``tid`` been written since this world
        was copied from ``parent``?  No heap object was allocated or
        written, no other thread was made owned, and the versions and
        locks equal ``parent``'s (every store to a global, field or
        element bumps its version)."""
        return (not self.heap.owned and self._owned <= {tid}
                and self.locks == parent.locks
                and self.versions == parent.versions)

    def emit(self, event: Event) -> Event:
        event.seq = self._seq
        self._seq += 1
        self.history.append(event)
        return event

    def copy(self) -> "World":
        """An independent world that shares every thread and heap
        object with this one until either side writes it; afterwards
        neither world owns any thread.  The history is not copied.
        Every attribute :meth:`__init__` sets is set here, without the
        fresh heap and stores it would make and drop."""
        out = World.__new__(World)
        out.globals = dict(self.globals)
        out.heap = self.heap.copy()
        out.locks = dict(self.locks)
        out.versions = dict(self.versions)
        out.threads = list(self.threads)
        out.history = []
        out._seq = 0
        out._owned = set()
        out.reads = None
        self._owned.clear()
        return out

    def quiescent(self) -> bool:
        """All threads between invocations (outside all code blocks)."""
        return all(t.frame is None for t in self.threads)
