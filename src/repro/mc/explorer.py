"""Explicit-state model checker over SYNL worlds.

Modes (the four configurations of §6.3):

* ``"full"``   — every enabled thread's next statement, full interleaving;
* ``"por"``    — ample-set partial-order reduction (SPIN-style stand-in);
* ``"atomic"`` — each procedure invocation is one transition (the
  reduction licensed by the paper's atomicity analysis); sub-modes
  ``run_to_commit`` (default) and exceptional-variant execution;
* ``"both"``   — atomic transitions plus an ample-set reduction at
  operation granularity, driven by an operation-commutativity oracle.

The explorer is a DFS with canonical state hashing, property checking
(per state and at quiescent states), optional collection of the
quiescent-state set (used by the soundness tests, which verify that the
reduced explorations reach exactly the quiescent states of the full
one), a state cap, and violation traces.

Each state is keyed incrementally, from the key context of the state
it was stepped from (``state_key(world, base)``, kept on the stack
entry and on the successor): only what the step wrote is keyed again.
The seen set is collapsed, as in SPIN's COLLAPSE mode, and still
exact: each run interns every distinct globals key, thread key, heap
entry, locks key and ghosts tuple as a small id
(:class:`~repro.mc.canonical.Interner`), and a state is one int, its
world key's packed component ids (``KeyContext.packed``) with the
ghosts' id in the low slot.  A transition without events keeps its
parent's ghosts and their id.  The DFS stack set and the cycle proviso
test the packed world key alone.  Observers get the int the seen set
holds; :func:`~repro.mc.canonical.unpack` turns it back into the
nested key, ``(world key, ghosts)``, whose value is that of a
from-scratch :func:`~repro.mc.canonical.state_key` walk.  The interner
is dropped when :meth:`Explorer.run` returns.

**The step memo.**  A step that writes nothing but its own thread (a
control node, a statement over locals, invoking or returning, but also
a plain load, an ``LL``, a failed ``SC`` or ``CAS``) has an outcome
fixed by its thread and the shared values it loads.  On a miss,
:meth:`Explorer._step_thread` steps a copy as usual, with the copy
collecting the addresses the step loads (``World.reads``).  When the
step allocated nothing and wrote no heap object, version, lock or other
thread (``World.wrote_only``), it is cached on the parent thread as a
small trie: a :class:`StepRead` node holds the step's next loaded
address, each branch is keyed by what was read there, ``(class, value,
modification counter)``, and the leaf is a :class:`StepMemo`, the
successor thread, which no world owns from then on, so it never
changes, and the step's events.  The class keeps ``True`` and ``1``
apart; the counter is needed because a read records it in the
thread's ``observed`` map, which the thread's key holds.  A step that
loads nothing is a leaf at the root.  A step that raises is not
cached.  The memo lives in the thread's ``memo`` slot, which
``World.own_thread`` drops on every write, as it drops ``canon``.
Later, any world holding the same thread object walks the trie,
reading each address from the world without recording it; at a leaf
it takes the step with no copy and no interpreter step, and its key is
the parent's with one slot changed (one lookup in the leaf's map,
which :func:`~repro.mc.canonical.note_step_key` fills) whenever the map
knows the thread's key id, its start and the parent world's numbers of
the leaf's extra oids (those of what the successor adds to the parent
thread: refs, heap reservations, observed pairs); otherwise the
successor world is built and keyed as any other, and the map learns
its thread key id.

There is one memo per distinct thread content, not per copy.  A step
that writes shared state hands its successor a fresh copy of the
thread, and the same thread is reached again along other
interleavings.  So after every real step :meth:`Explorer._share` looks
the successor thread up in a per-run, per-tid table keyed by its key
fragment (its ``canon``, which keying the successor needs anyway), and
a world whose thread has the contents of the table's takes the
table's thread, and with it the memo the first one filled.  A
fragment merges ``1`` with ``True``, wraps a repeating script's op
index and leaves out thread-private reservations and observed
addresses, so a hit is taken only when the contents are also exactly
equal, value classes and dict order included (:func:`_same_thread`);
every world is then equal, field by field, to the one a fresh copy
would give.  The stepped world gives up its thread after every real
step: a thread in the table is owned by no world, so a world that
steps it copies it first.

**Lazy successors.**  Such a successor carries its parent world and
the memo instead of a world (``_Succ.parent``); :meth:`Explorer._run`
builds the world, a copy of the parent holding the cached thread, and
its key context only when the packed key is new.  Observed and bare
runs take this one path: a keyed world is never written again, and
never rebuilt for telemetry.

**What a transition pays for.**  In ``full`` and ``por`` a transition
pays only for what it changed.  Enabledness is decided inline except
for a thread about to take a lock.  A memo hit costs the trie walk and
one lookup in the leaf's map, inside :meth:`Explorer._key`, the one
keying call per transition (``repro mc --profile`` times it as
``mc.canonicalize``).  A successor's ``desc``/``uid``/``kind``/``proc``
are derived from the stepped thread when first read, and the
``MCResult.path`` dicts are built only for a violation.  A step without
events keeps the ghosts tuple and its id, and one whose events change
no ghost (``on_event`` returns the ghost itself) does too.  A new state
reached by a step that writes only its thread, with the ghosts kept,
runs no ``check_state``: it has its parent's shared state and ghosts,
and the parent passed (the contract of
:class:`~repro.mc.properties.Property`); ``check_quiescent`` still runs
when it is quiescent.  ``tests/memo_replay.py`` re-runs the skipped
checks.

It collects only the core counters (:meth:`Explorer._metrics`).  All
other telemetry — profiler regions, heartbeat and deadline,
tracemalloc, coverage — is an observer passed as
``observer=`` (the hook protocol, and which ``repro mc`` flag attaches
which observer: :mod:`repro.mc.observers`); ``None``, the default,
costs one ``is None`` test per hook site.  Library runs get coverage
(``mc.depth``, ``mc.stmt_heat``, …) only by passing ``Coverage()``.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import AssertionViolation, InterpError
from repro.interp.interp import AssumeFailed, Interp
from repro.interp.state import Event, Thread, ThreadSpec, World
from repro.mc.atomic import run_to_commit, run_variant
from repro.mc.canonical import (Interner, KeyContext, _thread_fragment,
                                note_step_key, quiescent_key, shared_key,
                                state_key, step_context)
from repro.mc.por import SafetyCache
from repro.mc.properties import Property
from repro.obs.profile import MIN_RATE_WINDOW_S, peak_rss_mb

#: the DFS calls the observer's clock tick every 256 loop iterations
_TICK_MASK = 0xFF

#: the step record of the initial state (``MCResult.path[0]``)
_INIT_STEP = {"tid": -1, "uid": None, "desc": "init", "kind": "init",
              "via": None}


@dataclass
class MCResult:
    mode: str
    states: int = 0
    transitions: int = 0
    elapsed: float = 0.0
    violation: Optional[str] = None
    trace: list[str] = field(default_factory=list)
    #: structured counterpart of ``trace`` (only on violation): one
    #: ``{tid, uid, desc, kind, via}`` dict per transition, enough to
    #: rebuild an annotated interleaving (:mod:`repro.mc.cex`).
    #: ``kind`` is ``init`` | ``invoke`` | ``stmt`` | ``atomic``; ``uid``
    #: is the CFG-node uid for ``stmt`` steps, else ``None``.
    path: list[dict] = field(default_factory=list)
    capped: bool = False
    #: the --deadline soft timeout fired: the search stopped
    #: gracefully with the verdict UNKNOWN — no violation was found,
    #: but the state space was not exhausted either.  Partial state/
    #: transition counts and the observers' telemetry are preserved,
    #: exactly as for a capped run.
    deadline_hit: bool = False
    #: explorer metrics snapshot: the core counters
    #: (``Explorer._metrics``) plus whatever the attached observers add
    #: (e.g. ``Coverage``'s ``mc.depth`` / ``mc.stmt_heat``)
    metrics: dict = field(default_factory=dict)
    quiescent: Optional[set] = None
    #: quiescent states where every thread's script has completed.
    #: ``full``/``por``/``atomic`` preserve the whole quiescent set;
    #: the op-level ample sets of ``both`` preserve the final *shared*
    #: projection (``final_shared``) — commuting operations may leave
    #: different thread-private scratch objects.
    final: Optional[set] = None
    final_shared: Optional[set] = None

    @property
    def states_per_s(self) -> float:
        """Throughput, 0.0 for runs shorter than
        :data:`~repro.obs.profile.MIN_RATE_WINDOW_S` — a rate computed
        over a sub-millisecond window is timer noise and must not be
        compared against real baselines."""
        if self.elapsed <= MIN_RATE_WINDOW_S:
            return 0.0
        return self.states / self.elapsed

    def to_dict(self) -> dict:
        from repro.obs.export import mc_to_dict

        return mc_to_dict(self)

    def __str__(self) -> str:
        if self.violation:
            status = self.violation
        elif self.deadline_hit:
            status = "UNKNOWN (deadline)"
        elif self.capped:
            status = "CAPPED"
        else:
            status = "ok"
        return (f"[{self.mode}] states={self.states} "
                f"transitions={self.transitions} "
                f"time={self.elapsed:.2f}s {status}")


@dataclass(slots=True)
class StepMemo:
    """A step that writes only its thread, as the leaf of the memo on
    the thread it steps from: the successor thread, owned by no world,
    the step's events, ``keys``, the successor's thread key ids, and
    ``extra``, the oids of the refs, heap reservations and observed
    pairs the successor adds to the parent thread, None until ``keys``
    has an entry
    (:func:`~repro.mc.canonical.note_step_key`)."""

    thread: Thread
    events: list[Event]
    keys: dict = field(default_factory=dict)
    extra: Optional[tuple] = None


def _same_values(a: tuple, b: tuple) -> bool:
    """Are the tuples ``a`` and ``b`` equal, value by value, with
    values of the same classes?  ``1 == True``, but a step may tell them
    apart."""
    return a == b and list(map(type, a)) == list(map(type, b))


def _same_dicts(a: dict, b: dict) -> bool:
    """Are ``a`` and ``b`` equal, in insertion order too (the order of
    a thread's refs fixes their numbering), with values of the same
    classes?"""
    return list(a.items()) == list(b.items()) \
        and list(map(type, a.values())) == list(map(type, b.values()))


def _same_thread(a: Thread, b: Thread) -> bool:
    """Do threads ``a`` and ``b`` of one tid hold the same contents?
    Equal key fragments are not enough: a fragment merges ``1`` with
    ``True``, wraps a repeating script's op index and leaves out
    thread-private reservations and observed addresses."""
    fa, fb = a.frame, b.frame
    if fa is None or fb is None:
        if fa is not fb:
            return False
    elif not (fa.node is fb.node and fa.proc_name == fb.proc_name
              and _same_dicts(fa.env, fb.env)
              and _same_values(fa.args, fb.args)):
        return False
    return (a.op_index == b.op_index
            and _same_dicts(a.threadlocals, b.threadlocals)
            and _same_dicts(a.reservations, b.reservations)
            and _same_dicts(a.observed, b.observed))


class StepRead:
    """A node of a thread's step memo: the step's next load is from
    shared address ``addr``, and ``branches`` maps what it reads there,
    ``(class, value, modification counter)``, to the memo of the rest
    of the step, a :class:`StepRead` or a :class:`StepMemo`."""

    __slots__ = ("addr", "branches")

    def __init__(self, addr: tuple) -> None:
        self.addr = addr
        self.branches: dict = {}


@dataclass(slots=True)
class _Succ:
    #: the successor world; None for a disabled or violating step, and
    #: for a memo hit not built yet (one whose ``parent`` is set)
    world: Optional[World]
    events: list[Event]
    tid: int
    #: the thread a one-statement step started from, which a keyed
    #: world never writes; ``desc``/``uid``/``kind``/``proc`` are
    #: derived from it when first read
    thread: Optional[Thread] = None
    violation: Optional[str] = None
    via: Optional[str] = None        # exceptional-variant name, if any
    #: ``(desc, uid, kind, proc)``: given for an atomic step, else
    #: derived from ``thread`` on first read
    info: Optional[tuple] = None
    #: ``world``'s :class:`~repro.mc.canonical.KeyContext`, computed at
    #: most once: by the cycle proviso or by the dedup in ``_run``
    ctx: Optional[KeyContext] = None
    #: ``world``'s packed key, 0 until computed; a memo hit may have it
    #: before ``world`` and ``ctx`` are built
    packed: int = 0
    #: the step's leaf of the parent thread's memo, when the step
    #: writes only its thread
    memo: Optional[StepMemo] = None
    #: the world stepped from, when ``memo`` is set
    parent: Optional[World] = None

    def _provenance(self) -> tuple:
        """``(desc, uid, kind, proc)``, for counterexample
        reconstruction: ``uid`` is the CFG-node uid of a ``stmt``
        step, ``kind`` is ``invoke`` | ``stmt`` | ``return`` |
        ``atomic``, ``proc`` the procedure executed or invoked."""
        info = self.info
        if info is None:
            thread, tid = self.thread, self.tid
            frame = thread.frame
            if frame is None:
                info = (f"t{tid}@call", None, "invoke",
                        thread.current_call()[0])
            elif frame.node is None:
                info = (f"t{tid}@call", None, "return", frame.proc_name)
            else:
                uid = frame.node.uid
                info = (f"t{tid}@{uid}", uid, "stmt", frame.proc_name)
            self.info = info
        return info

    @property
    def desc(self) -> str:
        return self._provenance()[0]

    @property
    def uid(self) -> Optional[int]:
        return self._provenance()[1]

    @property
    def kind(self) -> str:
        return self._provenance()[2]

    @property
    def proc(self) -> Optional[str]:
        return self._provenance()[3]

    def step_info(self) -> dict:
        desc, uid, kind, proc = self._provenance()
        return {"tid": self.tid, "uid": uid, "desc": desc, "kind": kind,
                "via": self.via, "proc": proc}


class Explorer:
    def __init__(self, interp: Interp, specs: list[ThreadSpec],
                 mode: str = "full",
                 properties: Optional[list[Property]] = None,
                 max_states: Optional[int] = None,
                 variant_interp: Optional[Interp] = None,
                 variant_map: Optional[dict[str, list[str]]] = None,
                 commutes: Optional[Callable] = None,
                 collect_quiescent: bool = False,
                 observer=None):
        if mode not in ("full", "por", "atomic", "both"):
            raise ValueError(f"unknown mode {mode!r}")
        if max_states is not None and max_states < 1:
            raise ValueError(f"max_states must be >= 1, got {max_states}")
        self.interp = interp
        self.specs = specs
        self.mode = mode
        self.properties = properties or []
        self.max_states = max_states
        self.variant_interp = variant_interp
        self.variant_map = variant_map
        self.commutes = commutes
        self.collect_quiescent = collect_quiescent
        self.safety = SafetyCache()
        #: telemetry hooks (:class:`repro.mc.observers.Observer`);
        #: None = core counters only
        self.observer = observer
        # ample-set bookkeeping (plain ints: DFS is single-threaded)
        self.ample_reduced = 0
        self.ample_full = 0
        #: the key components' interner while :meth:`run` runs
        self._intern: Optional[Interner] = None
        #: tid -> key fragment -> the thread of the run with those
        #: contents, owned by no world (:meth:`_share`)
        self._twins: defaultdict[int, dict] = defaultdict(dict)

    # -- successor generation --------------------------------------------------
    def _step_thread(self, world: World, tid: int) -> _Succ:
        """Thread ``tid``'s one-statement successor.  A step that
        writes only its thread is taken from the thread's memo when
        the memo has it for what ``world`` holds, and cached in the
        memo when it has not.  A memo hit comes without its world."""
        thread = world.threads[tid]
        memo = thread.memo
        if memo is not None:
            leaf = self._recall(world, memo)
            if leaf is not None:
                return _Succ(None, leaf.events, tid, thread, memo=leaf,
                             parent=world)
        w = world.copy()
        w.reads = reads = []
        try:
            event = self.interp.step(w, tid)
        except AssumeFailed:
            return _Succ(None, [], tid, thread)
        except AssertionViolation as exc:
            return _Succ(None, [], tid, thread, violation=str(exc))
        w.reads = None
        events = [event] if event is not None else []
        succ = _Succ(w, events, tid, thread)
        local = w.wrote_only(tid, world)
        self._share(w, tid, thread)
        if local:
            succ.memo = StepMemo(w.threads[tid], events)
            succ.parent = world
            self._remember(world, thread, reads, succ.memo)
        return succ

    def _share(self, w: World, tid: int, before: Thread) -> None:
        """Freeze thread ``tid`` of ``w``, stepped from ``before``: a
        world that writes it copies it.  When the run already holds a
        thread with the same contents, ``w`` takes that one instead, so
        equal threads reached along different interleavings share one
        step memo.  The table is keyed by the thread's key fragment,
        which ``w``'s key needs anyway, and a hit is taken only when
        the contents are exactly the same (:func:`_same_thread`)."""
        w.disown(tid)
        after = w.threads[tid]
        frag = before.canon
        frag = after.canon = _thread_fragment(
            after, (before, frag) if frag is not None else None)
        twin = self._twins[tid].setdefault(frag, after)
        if twin is not after and _same_thread(twin, after):
            w.threads[tid] = twin

    def _read_key(self, world: World, addr: tuple) -> tuple:
        """What a step memo keys a load from ``addr`` in ``world`` by:
        the value's class, the value and the address's modification
        counter."""
        value = self.interp.load(world, addr)
        return value.__class__, value, world.versions.get(addr, 0)

    def _recall(self, world: World, memo) -> Optional[StepMemo]:
        """The leaf of a thread's step memo that ``world`` reaches, or
        None when ``world`` holds a value the memo has no branch for
        (or one the step would fail to load)."""
        read_key = self._read_key
        try:
            while memo.__class__ is StepRead:
                memo = memo.branches.get(read_key(world, memo.addr))
                if memo is None:
                    return None
        except InterpError:
            return None  # the real step raises it
        return memo

    def _remember(self, world: World, thread: Thread, reads: list,
                  leaf: StepMemo) -> None:
        """Cache ``leaf`` in ``thread``'s memo, under what the step
        read from ``world`` at the addresses ``reads``, in load
        order."""
        if not reads:
            thread.memo = leaf
            return
        node = thread.memo
        if node is None:
            node = thread.memo = StepRead(reads[0])
        for addr in reads[1:]:
            branches = node.branches
            key = self._read_key(world, node.addr)
            node = branches.get(key)
            if node is None:
                node = branches[key] = StepRead(addr)
        node.branches[self._read_key(world, node.addr)] = leaf

    @staticmethod
    def _build(succ: _Succ) -> None:
        """Build a memo hit's world: its parent holding the cached
        successor thread."""
        world = succ.world = succ.parent.copy()
        world.threads[succ.tid] = succ.memo.thread

    def _atomic_one(self, world: World, tid: int) -> list[_Succ]:
        """Thread ``tid``'s successors at operation granularity: one
        per exceptional variant of its next call, or its run to the
        commit point."""
        name, _args = world.threads[tid].current_call()
        if self.variant_interp is not None and self.variant_map is not None:
            outcomes = [(vname, run_variant(self.interp,
                                            self.variant_interp, world,
                                            tid, vname))
                        for vname in self.variant_map.get(name, [name])]
        else:
            outcomes = [(None, run_to_commit(self.interp, world, tid))]
        return [_Succ(o.world, o.events, tid, violation=o.violation,
                      via=via, info=(o.desc, None, "atomic", name))
                for via, o in outcomes]

    def _alone(self, world: World, tid: int, tids: list[int]) -> bool:
        """Ample-set candidate test: may ``tid`` be explored alone?
        ``por`` asks the safety cache about its next statement;
        ``both`` asks whether its next operation commutes with every
        other live thread's."""
        if self.mode == "por":
            return self.safety.thread_safe(self.interp, world, tid)
        mine = world.threads[tid].current_call()
        return all(self.commutes(mine, world.threads[o].current_call())
                   for o in tids if o != tid)

    def _successors(self, world: World, ctx: KeyContext,
                    on_stack: set) -> list[_Succ]:
        """The successors of ``world`` at the mode's transition
        granularity, one statement (``full``, ``por``) or one whole
        operation, of an ample set's thread when one qualifies."""
        mode = self.mode
        stepwise = mode in ("full", "por")
        if stepwise:
            tids = self.interp.enabled_threads(world)
        else:
            tids = [t.tid for t in world.threads if not t.done]
        if mode == "por" or (mode == "both" and self.commutes is not None):
            for tid in tids:
                if not self._alone(world, tid, tids):
                    continue
                succs = [self._step_thread(world, tid)] if stepwise \
                    else self._atomic_one(world, tid)
                if any(s.violation is not None for s in succs):
                    return succs
                # a memo hit has no world yet, but is a transition
                real = [s for s in succs
                        if s.world is not None or s.parent is not None]
                if not real:
                    continue  # disabled here; try another thread
                if self._closes_cycle(real, ctx, on_stack):
                    continue  # cycle proviso: fall back to full expansion
                self.ample_reduced += 1
                return succs
        if mode in ("por", "both"):
            self.ample_full += 1
        if stepwise:
            step = self._step_thread
            return [step(world, tid) for tid in tids]
        return [s for tid in tids for s in self._atomic_one(world, tid)]

    def _closes_cycle(self, succs: list[_Succ], base: KeyContext,
                      on_stack: set) -> bool:
        """Does a successor return to the DFS stack?  Keys the
        successors (from ``base``, their parent's key context) up to
        the first that does, and keeps those keys for the dedup in
        :meth:`_run`.  A probe is not a transition: it calls the class's
        ``_key``, not an observer's timer set on the instance."""
        key = Explorer._key
        for succ in succs:
            if key(self, succ, 0, base) in on_stack:
                return True
        return False

    def _key(self, succ: _Succ, ghosts_id: int, base: KeyContext) -> int:
        """The dedup key of a successor state, keyed from ``base``, its
        parent's key context, at most once: its packed world key with
        ``ghosts_id`` in the low slot.  A thread-local step whose key
        the memo leaf's map gives (:func:`~repro.mc.canonical.note_step_key`
        writes the map) keeps no context, and a memo hit no world,
        until ``_run`` builds them; any other successor is keyed by
        :meth:`_keyed`."""
        packed = succ.packed
        if not packed:
            leaf = succ.memo
            if leaf is not None and leaf.extra is not None:
                tid = succ.tid
                delta = leaf.keys.get((base.slots[tid + 1], base.ends[tid],
                                       *map(base.ids.get, leaf.extra)))
                if delta is not None:
                    packed = succ.packed = base.packed + delta
            if not packed:
                packed = self._keyed(succ, base)
        return packed | ghosts_id

    def _keyed(self, succ: _Succ, base: KeyContext) -> int:
        """The packed world key of a successor from a walk
        (:func:`~repro.mc.canonical.state_key` from ``base``): a memo
        hit's world is built first, the successor keeps its context,
        and a thread-local step records its key in the memo leaf."""
        memo = succ.memo
        if succ.world is None:
            self._build(succ)
        ctx = succ.ctx = state_key(succ.world, base)
        if memo is not None:
            note_step_key(memo, base, ctx, succ.tid)
        succ.packed = ctx.packed
        return ctx.packed

    # -- property plumbing -------------------------------------------------------
    def _apply_events(self, ghosts: tuple, events: list[Event]) -> tuple:
        """The ghosts after ``events``; ``ghosts`` itself when no
        property's ``on_event`` returned another ghost."""
        out = None
        for i, prop in enumerate(self.properties):
            g = old = ghosts[i]
            for event in events:
                g = prop.on_event(g, event)
            if g is not old:
                if out is None:
                    out = list(ghosts)
                out[i] = g
        return ghosts if out is None else tuple(out)

    def _check(self, world: World, ghosts: tuple,
               shared_passed: bool = False) -> Optional[str]:
        """The first property violation in ``world`` with ``ghosts``.
        ``shared_passed``: the shared state and the ghosts are those of
        a state that passed, so ``check_state`` would pass again and
        only ``check_quiescent`` runs."""
        quiescent = None  # asked once, when a property needs it
        for prop, ghost in zip(self.properties, ghosts):
            if not shared_passed:
                message = prop.check_state(world, self.interp, ghost)
                if message is not None:
                    return message
            if quiescent is None:
                quiescent = world.quiescent()
            if quiescent:
                message = prop.check_quiescent(world, self.interp, ghost)
                if message is not None:
                    return message
        return None

    def _record_quiescent(self, result: MCResult, world: World) -> None:
        if not world.quiescent():
            return
        key = quiescent_key(world)
        result.quiescent.add(key)
        if all(t.done for t in world.threads):
            result.final.add(key)
            result.final_shared.add(shared_key(world))

    # -- the search ---------------------------------------------------------------
    def run(self) -> MCResult:
        """Explore, then stamp the elapsed time (``time.perf_counter``
        — monotonic) and the core counters on the result."""
        result = MCResult(self.mode)
        if self.collect_quiescent:
            result.quiescent, result.final = set(), set()
            result.final_shared = set()
        if self.observer is not None:
            self.observer.start(self, result)
        # the search allocates no reference cycles, so the cyclic GC
        # would only rescan the ever-growing seen set: keep it off
        gc_was_enabled = gc.isenabled()
        gc.disable()
        # key components are interned in a table that lives as long as
        # the search
        self._intern = Interner()
        self._twins.clear()
        start = time.perf_counter()
        try:
            max_depth = self._run(result)
        finally:
            self._intern = None
            self._twins.clear()
            if gc_was_enabled:
                gc.enable()
        result.elapsed = time.perf_counter() - start
        result.metrics = self._metrics(result, max_depth)
        if self.observer is not None:
            self.observer.finish(result)
        return result

    def _run(self, result: MCResult) -> int:
        """The DFS; fills ``result`` and returns the maximum depth."""
        obs = self.observer
        collect = self.collect_quiescent
        intern = self._intern
        world0 = self.interp.make_world(self.specs)
        ghosts0 = tuple(p.initial_ghost() for p in self.properties)
        gid0 = intern[ghosts0]
        ctx0 = state_key(world0, KeyContext(intern))
        # a state is one int: its world key's packed component ids, the
        # ghosts' id in the low slot
        seen = {ctx0.packed | gid0}
        result.states = 1
        if obs is not None:
            obs.state(ctx0.packed | gid0, world0, 1)
        message = self._check(world0, ghosts0)
        if message is not None:
            result.violation = message
            return 1
        if collect:
            self._record_quiescent(result, world0)
        if self.max_states is not None and result.states >= self.max_states:
            result.capped = True
            return 1
        # the packed world keys on the stack
        on_stack = {ctx0.packed}
        # entries: [world, ghosts, their id, successors (None until
        # expanded), next successor index, the successor that reached
        # it (None for the initial state), key context]
        stack = [[world0, ghosts0, gid0, None, 0, None, ctx0]]
        max_depth = 1
        loop_i = 0
        # bound after ``obs.start``, which may wrap them in timers
        successors, key, check = self._successors, self._key, self._check
        max_states = self.max_states
        while stack:
            loop_i += 1
            if obs is not None and not (loop_i & _TICK_MASK) \
                    and obs.tick():
                # graceful stop: every counter survives, the verdict
                # becomes UNKNOWN
                result.deadline_hit = True
                break
            entry = stack[-1]
            world, ghosts, gid, succs, index, _step, ctx = entry
            if succs is None:
                succs = entry[3] = successors(world, ctx, on_stack)
            if index >= len(succs):
                stack.pop()
                on_stack.discard(ctx.packed)
                if obs is not None:
                    obs.pop(len(stack))
                continue
            entry[4] += 1
            succ = succs[index]
            if succ.violation is not None:
                self._violation(result, stack, succ, succ.violation)
                break
            if succ.world is None and succ.parent is None:
                continue  # disabled transition
            result.transitions += 1
            new_ghosts, new_gid = ghosts, gid
            if succ.events:
                new_ghosts = self._apply_events(ghosts, succ.events)
                if new_ghosts is not ghosts:
                    new_gid = intern[new_ghosts]
            new_key = key(succ, new_gid, ctx)
            dup = new_key in seen
            if obs is not None:
                obs.transition(succ, new_key, dup)
            if dup:
                continue
            seen.add(new_key)
            if succ.ctx is None:
                # keyed from its parent's context alone: a memo hit, or
                # a step whose memo leaf learned its key since
                if succ.world is None:
                    self._build(succ)
                succ.ctx = step_context(ctx, succ.world, succ.tid,
                                        succ.packed)
            result.states += 1
            depth = len(stack) + 1
            if obs is not None:
                obs.state(new_key, succ.world, depth)
            # a thread-local step writes no heap object, global, lock
            # or version: with no ghost changed either, its parent's
            # check_state verdicts hold
            message = check(succ.world, new_ghosts,
                            succ.memo is not None and new_ghosts is ghosts)
            if message is not None:
                self._violation(result, stack, succ, message)
                break
            if collect:
                self._record_quiescent(result, succ.world)
            if max_states is not None and result.states >= max_states:
                result.capped = True
                break
            on_stack.add(succ.ctx.packed)
            stack.append([succ.world, new_ghosts, new_gid, None, 0, succ,
                          succ.ctx])
            if depth > max_depth:
                max_depth = depth
            if obs is not None:
                obs.push(succ, depth)
        return max_depth

    @staticmethod
    def _violation(result: MCResult, stack: list, succ: _Succ,
                   message: str) -> None:
        result.violation = message
        reached = [e[5] for e in stack[1:]] + [succ]
        result.path = [dict(_INIT_STEP)] + [s.step_info() for s in reached]
        result.trace = [s["desc"] for s in result.path]

    def _metrics(self, result: MCResult, max_depth: int) -> dict:
        """The core counters every exploration reports."""
        # every counted transition either hit the seen set or added a
        # state, so the dedup hits need no counter of their own
        cache_hits = result.transitions - (result.states - 1)
        ample_total = self.ample_reduced + self.ample_full
        return {
            "mc.states": result.states,
            "mc.transitions": result.transitions,
            "mc.states_per_s": round(result.states_per_s, 3),
            "mc.cache_hits": cache_hits,
            "mc.cache_hit_ratio":
                round(cache_hits / (cache_hits + result.states), 6),
            "mc.max_depth": max_depth,
            "mc.ample_reduced": self.ample_reduced,
            "mc.ample_full": self.ample_full,
            "mc.ample_reduction_ratio":
                round(self.ample_reduced / ample_total, 6)
                if ample_total else 0.0,
            "mc.safety_cache_hits": self.safety.hits,
            "mc.safety_cache_misses": self.safety.misses,
            "mc.deadline_hit": bool(result.deadline_hit),
            "mc.mem_peak_mb": peak_rss_mb(),
        }
