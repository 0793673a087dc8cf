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
test the packed world key alone.  Observers still get the nested key,
``(world key, ghosts)``, built from the interned components only when
an observer is attached; its value, and so graph-capture node ids, is
that of a from-scratch :func:`~repro.mc.canonical.state_key` walk.
The interner is dropped when :meth:`Explorer.run` returns.

**Memoized thread-local steps.**  A step that reads and writes nothing
but its thread's own frame, thread-locals and reservations
(``Interp.local_step``: invoking, returning, control nodes, and
statements and branches over locals, including ``VL``; never globals,
fields, elements, allocation, LL/SC/CAS or locks) is a both-mover
whose successor is a function of the thread alone.  The first time a
thread takes such a step, :meth:`Explorer._step_thread` steps a copy
as usual and caches a :class:`StepMemo` on the parent thread: the
successor thread, which no world owns from then on, so it never
changes, and the step's events.  A step that raises is not cached.
The memo lives in the thread's ``memo`` slot, which
``World.own_thread`` drops on every write, as it drops ``canon``.
Later, any world holding the same thread object takes the step with
no copy and no interpreter step, and its key is the parent's with one
slot changed (:func:`~repro.mc.canonical.step_key`, with the memo's
map of thread key ids) whenever the map knows the thread's key id and
no thread was written since the parent was keyed; otherwise the
successor world is built and keyed as any other.

**Lazy successors.**  Such a successor carries its parent world and
the memo instead of a world (``_Succ.parent``); :meth:`Explorer._run`
builds the world, a copy of the parent holding the cached thread, and
its key context only when the packed key is new.  With an observer
attached every successor world is built at once, since observers
read worlds (``GraphCapture`` reads ``world is None`` as disabled);
the keys, and so what is explored, are the same either way.

It collects only the core counters (:meth:`Explorer._metrics`).  All
other telemetry — profiler regions, heartbeat and deadline,
tracemalloc, graph capture, coverage — is an observer passed as
``observer=`` (the hook protocol, and which ``repro mc`` flag attaches
which observer: :mod:`repro.mc.observers`); ``None``, the default,
costs one ``is None`` test per hook site.  Library runs get coverage
(``mc.depth``, ``mc.stmt_heat``, …) only by passing ``Coverage()``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import AssertionViolation
from repro.interp.interp import AssumeFailed, Interp
from repro.interp.state import Event, Thread, ThreadSpec, World
from repro.mc.atomic import run_to_commit, run_variant
from repro.mc.canonical import (Interner, KeyContext, note_step_key,
                                quiescent_key, shared_key, state_key,
                                step_context, step_key)
from repro.mc.por import SafetyCache
from repro.mc.properties import Property
from repro.obs.export import MIN_RATE_WINDOW_S
from repro.obs.profile import peak_rss_mb

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
    #: ranked hotspot document (``Profiler.to_dict`` shape) when the
    #: exploration ran with a ``Profile`` observer, else empty
    profile: dict = field(default_factory=dict)
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
        :data:`~repro.obs.export.MIN_RATE_WINDOW_S` — a rate computed
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
    """A thread-local step, cached on the thread it steps from (its
    ``memo`` slot): the successor thread, owned by no world, the
    step's events, and ``keys``, the successor's thread key ids
    (:func:`~repro.mc.canonical.note_step_key`)."""

    thread: Thread
    events: list[Event]
    keys: dict = field(default_factory=dict)


@dataclass(slots=True)
class _Succ:
    desc: str
    #: the successor world; None for a disabled or violating step, and
    #: for a memo hit not built yet (one whose ``parent`` is set)
    world: Optional[World]
    events: list[Event]
    violation: Optional[str] = None
    # provenance for counterexample reconstruction
    tid: int = -1
    uid: Optional[int] = None        # CFG node uid ('stmt' steps only)
    kind: str = "stmt"               # 'invoke'|'stmt'|'return'|'atomic'
    via: Optional[str] = None        # exceptional-variant name, if any
    proc: Optional[str] = None       # procedure being executed/invoked
    #: ``world``'s :class:`~repro.mc.canonical.KeyContext`, computed at
    #: most once: by the cycle proviso or by the dedup in ``_run``
    ctx: Optional[KeyContext] = None
    #: ``world``'s packed key, 0 until computed; a memo hit may have it
    #: before ``world`` and ``ctx`` are built
    packed: int = 0
    #: the parent thread's memo, when the step is thread-local
    memo: Optional[StepMemo] = None
    #: the world stepped from, when the step is thread-local
    parent: Optional[World] = None

    def step_info(self) -> dict:
        return {"tid": self.tid, "uid": self.uid, "desc": self.desc,
                "kind": self.kind, "via": self.via, "proc": self.proc}


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

    # -- successor generation --------------------------------------------------
    def _step_thread(self, world: World, tid: int) -> _Succ:
        """Thread ``tid``'s one-statement successor.  A thread-local
        step is taken from the thread's memo when it has one, without
        its world unless an observer is attached, and cached in a new
        memo when it has not."""
        thread = world.threads[tid]
        frame = thread.frame
        node = frame.node if frame is not None else None
        uid = node.uid if node is not None else None
        if frame is None:
            kind, proc = "invoke", thread.current_call()[0]
        else:
            kind = "stmt" if node is not None else "return"
            proc = frame.proc_name
        desc = f"t{tid}@{node.uid if node else 'call'}"
        memo = thread.memo
        if memo is not None:
            succ = _Succ(desc, None, memo.events, tid=tid, uid=uid,
                         kind=kind, proc=proc, memo=memo, parent=world)
            if self.observer is not None:
                self._build(succ)
            return succ
        w = world.copy()
        try:
            event = self.interp.step(w, tid)
        except AssumeFailed:
            return _Succ(desc, None, [], tid=tid, uid=uid, kind=kind,
                         proc=proc)
        except AssertionViolation as exc:
            return _Succ(desc, None, [], violation=str(exc),
                         tid=tid, uid=uid, kind=kind, proc=proc)
        events = [event] if event is not None else []
        succ = _Succ(desc, w, events, tid=tid, uid=uid, kind=kind,
                     proc=proc)
        if self.interp.local_step(thread):
            # freeze the stepped thread: a world that writes it copies it
            w.disown(tid)
            succ.memo = thread.memo = StepMemo(w.threads[tid], events)
            succ.parent = world
        return succ

    @staticmethod
    def _build(succ: _Succ) -> None:
        """Build a memo hit's world: its parent holding the cached
        successor thread."""
        world = succ.world = succ.parent.copy()
        world.threads[succ.tid] = succ.memo.thread

    def _atomic_one(self, world: World, tid: int) -> list[_Succ]:
        name, _args = world.threads[tid].current_call()
        if self.variant_interp is not None and self.variant_map is not None:
            outcomes = [(vname, run_variant(self.interp,
                                            self.variant_interp, world,
                                            tid, vname))
                        for vname in self.variant_map.get(name, [name])]
        else:
            outcomes = [(None, run_to_commit(self.interp, world, tid))]
        return [_Succ(o.desc, o.world, o.events, o.violation, tid=tid,
                      kind="atomic", via=via, proc=name)
                for via, o in outcomes]

    def expand_thread(self, world: World, tid: int) -> list[_Succ]:
        """One thread's successors at the mode's transition
        granularity: one statement, or one whole operation."""
        if self.mode in ("full", "por"):
            return [self._step_thread(world, tid)]
        return self._atomic_one(world, tid)

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
        if self.mode in ("full", "por"):
            tids = self.interp.enabled_threads(world)
        else:
            tids = [t.tid for t in world.threads if not t.done]
        if self.mode == "por" or (self.mode == "both"
                                  and self.commutes is not None):
            for tid in tids:
                if not self._alone(world, tid, tids):
                    continue
                succs = self.expand_thread(world, tid)
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
                if self.observer is not None:
                    self.observer.ample(world, tid, real[0].desc, tids)
                return succs
        if self.mode in ("por", "both"):
            self.ample_full += 1
        return [s for tid in tids for s in self.expand_thread(world, tid)]

    def _closes_cycle(self, succs: list[_Succ], base: KeyContext,
                      on_stack: set) -> bool:
        """Does a successor return to the DFS stack?  Keys the
        successors (from ``base``, their parent's key context) up to
        the first that does, and keeps those keys for the dedup in
        :meth:`_run`."""
        for succ in succs:
            if self._packed(succ, base) in on_stack:
                return True
        return False

    def _packed(self, succ: _Succ, base: KeyContext) -> int:
        """The packed world key of a successor, keyed from ``base``, its
        parent's key context, at most once.  A memo hit whose key the
        memo's map gives keeps no context until ``_run`` builds its
        world; any other successor keeps its context (a memo hit's
        world is built first), and a thread-local step records its key
        id in the memo."""
        packed = succ.packed
        if packed:
            return packed
        memo = succ.memo
        if memo is not None:
            packed = step_key(base, succ.parent.threads, succ.tid,
                              memo.keys)
            if packed is not None:
                succ.packed = packed
                if succ.world is not None:
                    succ.ctx = step_context(base, succ.world, succ.tid,
                                            packed)
                return packed
            if succ.world is None:
                self._build(succ)
        ctx = succ.ctx = state_key(succ.world, base)
        if memo is not None:
            note_step_key(memo.keys, base, ctx, succ.tid,
                          succ.parent.threads[succ.tid])
        succ.packed = ctx.packed
        return ctx.packed

    def _key(self, succ: _Succ, ghosts_id: int, base: KeyContext) -> int:
        """The dedup key of a successor state, keyed from ``base``: its
        packed world key with ``ghosts_id`` in the low slot."""
        return self._packed(succ, base) | ghosts_id

    # -- property plumbing -------------------------------------------------------
    def _apply_events(self, ghosts: tuple, events: list[Event]) -> tuple:
        """The ghosts after ``events``; ``ghosts`` itself when there
        are none."""
        if not events or not ghosts:
            return ghosts
        out = list(ghosts)
        for i, prop in enumerate(self.properties):
            g = out[i]
            for event in events:
                g = prop.on_event(g, event)
            out[i] = g
        return tuple(out)

    def _check(self, world: World, ghosts: tuple) -> Optional[str]:
        quiescent = None  # asked once, when a property needs it
        for prop, ghost in zip(self.properties, ghosts):
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
        start = time.perf_counter()
        try:
            max_depth = self._run(result)
        finally:
            self._intern = None
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
            obs.state((ctx0.key, ghosts0), world0, 1)
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
        # expanded), next successor index, step that reached it, key
        # context]
        stack = [[world0, ghosts0, gid0, None, 0, _INIT_STEP, ctx0]]
        max_depth = 1
        loop_i = 0
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
                succs = entry[3] = self._successors(world, ctx, on_stack)
                if obs is not None:
                    obs.expanded(ghosts, succs)
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
            new_ghosts = self._apply_events(ghosts, succ.events)
            new_gid = gid if new_ghosts is ghosts else intern[new_ghosts]
            new_key = self._key(succ, new_gid, ctx)
            dup = new_key in seen
            if obs is not None:
                nested = (succ.ctx.key, new_ghosts)
                obs.transition(succ, nested, dup)
            if dup:
                continue
            seen.add(new_key)
            if succ.ctx is None:
                # a memo hit keyed from its parent's context alone
                self._build(succ)
                succ.ctx = step_context(ctx, succ.world, succ.tid,
                                        succ.packed)
            result.states += 1
            depth = len(stack) + 1
            if obs is not None:
                obs.state(nested, succ.world, depth)
            message = self._check(succ.world, new_ghosts)
            if message is not None:
                self._violation(result, stack, succ, message)
                break
            if collect:
                self._record_quiescent(result, succ.world)
            if self.max_states is not None \
                    and result.states >= self.max_states:
                result.capped = True
                break
            on_stack.add(succ.ctx.packed)
            stack.append([succ.world, new_ghosts, new_gid, None, 0,
                          succ.step_info(), succ.ctx])
            if depth > max_depth:
                max_depth = depth
            if obs is not None:
                obs.push(succ, depth)
        return max_depth

    @staticmethod
    def _violation(result: MCResult, stack: list, succ: _Succ,
                   message: str) -> None:
        result.violation = message
        result.path = [dict(e[5]) for e in stack] + [succ.step_info()]
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
