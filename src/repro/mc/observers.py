"""Observers: the model checker's telemetry, kept out of its search.

:class:`~repro.mc.explorer.Explorer` takes one ``observer`` and calls
its hooks at fixed points of the DFS; ``None`` (the default) costs one
``is None`` test per hook site.  :class:`Observer` is the protocol and
:func:`compose` combines several observers into one.

``repro mc`` composes what its flags ask for (``--profile`` /
``--trace`` → :class:`Profile`, ``--progress`` /
``--deadline`` → :class:`Heartbeat`, ``--trace-malloc`` →
:class:`TraceMalloc`) and always attaches :class:`Coverage`; the
search itself is the one library runs take.  Library runs collect
only the explorer's core counters unless given observers.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

from repro.obs.profile import malloc_top, peak_rss_mb

#: frontier-size sampling starts at this transition stride and doubles
#: (halving the retained samples) whenever the buffer fills, keeping
#: the per-run series bounded no matter how long the search runs
_FRONTIER_SAMPLE_STRIDE = 64
_FRONTIER_MAX_SAMPLES = 256


class Observer:
    """The hook protocol.  Subclasses override the hooks they need; an
    ``Observer(*children)`` dispatches every hook to its children in
    order (see :func:`compose`), and one without children does nothing.
    The hooks, in the order a search meets them:

    * ``start(explorer, result)`` — before the first state; ``result``
      is the live :class:`~repro.mc.explorer.MCResult`;
    * ``state(key, world, depth)`` — a new state was counted (the
      initial one at depth 1), before its property check;
    * ``transition(succ, key, dup)`` — a transition was counted
      (``dup``: into a seen state; ``succ.world`` is None for a step
      memo hit, whose world is built only for a new state, after the
      hook);
    * ``push(succ, depth)`` / ``pop(depth)`` — the stack grew / shrank;
    * ``tick()`` — every 256 loop iterations; True stops the search
      (``MCResult.deadline_hit``, the verdict UNKNOWN);
    * ``finish(result)`` — the core counters are on ``result.metrics``.

    ``key`` is the int the explorer's seen set holds for the state;
    :func:`repro.mc.canonical.unpack` with the explorer's interner
    (``explorer._intern``, live until ``run`` returns) turns it into
    the nested key, ``(world key, ghosts)``.  An attached observer
    does not change what the explorer does.
    """

    children: tuple = ()

    def __init__(self, *children: "Observer"):
        self.children = children

    def start(self, explorer, result) -> None:
        for o in self.children:
            o.start(explorer, result)

    def state(self, key, world, depth: int) -> None:
        for o in self.children:
            o.state(key, world, depth)

    def transition(self, succ, key, dup: bool) -> None:
        for o in self.children:
            o.transition(succ, key, dup)

    def push(self, succ, depth: int) -> None:
        for o in self.children:
            o.push(succ, depth)

    def pop(self, depth: int) -> None:
        for o in self.children:
            o.pop(depth)

    def tick(self) -> bool:
        return any(o.tick() for o in self.children)

    def finish(self, result) -> None:
        for o in self.children:
            o.finish(result)


def compose(*observers: Optional[Observer]) -> Optional[Observer]:
    """One observer out of several (``None`` entries are skipped);
    ``None`` when nothing is left."""
    live = [o for o in observers if o is not None]
    if len(live) > 1:
        return Observer(*live)
    return live[0] if live else None


class Profile(Observer):
    """Profiler regions for the explorer: ``mc.run`` spans the search,
    with ``mc.init`` up to the first transition and ``mc.dfs`` from
    it; inside ``mc.dfs``, ``mc.successors``, ``mc.canonicalize`` and
    ``mc.por_ample`` time the explorer's ``_successors``, ``_key`` and
    ``_alone``, and ``mc.dedup`` counts canonical-key lookups (calls)
    and hits (work).  The ranked document is the profiler's
    (``Profiler.to_dict``).

    ``timed=False`` leaves the explorer's methods unwrapped: their
    per-call timers feed only the hotspot table, and they slow a large
    search measurably."""

    _REGIONS = (("mc.successors", "_successors", len),
                ("mc.canonicalize", "_key", None),
                ("mc.por_ample", "_alone", None))

    def __init__(self, profiler, timed: bool = True):
        self.profiler = profiler
        self.timed = timed

    def start(self, explorer, result):
        self._run = self.profiler.region("mc.run", mode=explorer.mode)
        self._init = self.profiler.region("mc.init")
        # region -> [calls, work, wall_s], flushed once at finish
        self._acc = {}
        if not self.timed:
            return
        for region, method, work in self._REGIONS:
            acc = self._acc[region] = [0, 0, 0.0]
            setattr(explorer, method,
                    _timed(getattr(explorer, method), acc, work))

    def transition(self, succ, key, dup):
        if self._init is not None:
            self._init.__exit__(None, None, None)
            self._init = None
            self.profiler.region("mc.dfs")

    def finish(self, result):
        prof = self.profiler
        for region, (calls, work, wall) in self._acc.items():
            prof.acc(region, wall, work=work, calls=calls)
        hits = result.metrics["mc.cache_hits"]
        prof.acc("mc.dedup", 0.0, work=hits, calls=hits + result.states)
        # closing the root also closes whichever phase is still open
        self._run.__exit__(None, None, None)


def _timed(fn: Callable, acc: list, work: Optional[Callable]) -> Callable:
    perf = time.perf_counter

    def timed(*args):
        t0 = perf()
        out = fn(*args)
        acc[2] += perf() - t0
        acc[0] += 1
        acc[1] += 1 if work is None else work(out)
        return out

    return timed


class EwmaRate:
    """Exponentially-weighted throughput estimator with an ETA.

    Feeds the ``--progress`` :class:`Heartbeat`: each
    :meth:`update` takes a *cumulative* monotonic count (states seen
    so far) and a timestamp, computes the instantaneous rate since the
    previous update, and folds it into an EWMA so one slow beat does
    not whipsaw the ETA.  Edge cases are deliberate:

    * the first update only baselines (rate stays 0 — no window yet);
    * a non-increasing count re-baselines without poisoning the rate
      (restarted searches, clock-adjacent beats);
    * a zero/negative time delta is ignored entirely;
    * :meth:`eta_s` is ``None`` until the rate is positive, and 0.0
      once the remaining work is gone — callers can always render it.
    """

    __slots__ = ("alpha", "rate", "_last_count", "_last_t")

    def __init__(self, alpha: float = 0.3):
        self.alpha = alpha
        self.rate = 0.0
        self._last_count: Optional[float] = None
        self._last_t = 0.0

    def update(self, count: float, now: float) -> float:
        """Fold one observation; returns the smoothed rate."""
        if self._last_count is None:
            self._last_count, self._last_t = count, now
            return self.rate
        dt = now - self._last_t
        if dt <= 0:
            return self.rate
        if count < self._last_count:
            self._last_count, self._last_t = count, now
            return self.rate
        inst = (count - self._last_count) / dt
        self.rate = inst if self.rate == 0.0 \
            else self.alpha * inst + (1 - self.alpha) * self.rate
        self._last_count, self._last_t = count, now
        return self.rate

    def eta_s(self, remaining: float) -> Optional[float]:
        """Seconds until ``remaining`` units drain at the current
        rate; None when no positive rate has been established."""
        if remaining <= 0:
            return 0.0
        if self.rate <= 0:
            return None
        return remaining / self.rate


class Heartbeat(Observer):
    """The ``--progress`` heartbeat and the ``--deadline`` soft timeout,
    sharing the explorer's clock tick.  Every ``period`` seconds, and
    once after the search, a beat writes a progress line (EWMA rate,
    ETA to the state cap, deadline budget left) to ``sink`` (default:
    stderr); past ``deadline`` seconds the tick stops the search."""

    def __init__(self, period: Optional[float] = None,
                 deadline: Optional[float] = None,
                 sink: Optional[Callable[[str], None]] = None):
        self.period = period
        self.deadline = deadline
        self.sink = sink or (lambda line: print(line, file=sys.stderr))

    def start(self, explorer, result):
        self._mode, self._cap = explorer.mode, explorer.max_states
        self._result = result
        self._rate = EwmaRate()
        self._frontier = self._max_depth = 1
        self._t0 = time.perf_counter()
        self._next_beat = None if self.period is None \
            else self._t0 + self.period

    def push(self, succ, depth):
        self._frontier = depth
        self._max_depth = max(self._max_depth, depth)

    def pop(self, depth):
        self._frontier = depth

    def tick(self):
        now = time.perf_counter()
        if self.deadline is not None and now - self._t0 >= self.deadline:
            return True
        if self._next_beat is not None and now >= self._next_beat:
            self._beat(now)
            self._next_beat = now + self.period
        return False

    def finish(self, result):
        if self.period is not None:
            self._beat(time.perf_counter(), final=True)

    def _beat(self, now: float, final: bool = False) -> None:
        r = self._result
        elapsed = now - self._t0
        rate = self._rate.update(r.states, now)
        text = f" rate={rate:,.0f}/s"
        if self._cap is not None:
            eta = self._rate.eta_s(self._cap - r.states)
            text += " eta_cap=?" if eta is None else f" eta_cap={eta:.1f}s"
        if self.deadline is not None:
            left = max(0.0, self.deadline - elapsed)
            text += f" deadline_in={left:.1f}s"
        self.sink(f"[mc:{self._mode}] {'done ' if final else ''}"
                  f"t={elapsed:.1f}s states={r.states} "
                  f"trans={r.transitions} frontier={self._frontier} "
                  f"depth_max={self._max_depth} "
                  f"mem={peak_rss_mb():.1f}MB{text}")


class TraceMalloc(Observer):
    """Top allocation sites (``mc.malloc_top``) via :mod:`tracemalloc`,
    which it starts if needed."""

    def start(self, explorer, result):
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()

    def finish(self, result):
        result.metrics["mc.malloc_top"] = malloc_top()


class Coverage(Observer):
    """Where the search spent its transitions: ``mc.stmt_heat`` (per
    CFG statement: visits, context switches into it, distinct threads),
    the push-depth distribution ``mc.depth`` / ``mc.depth_hist``, and
    ``mc.frontier_samples`` (``[transitions, stack depth]`` pairs)."""

    def start(self, explorer, result):
        self._result = result
        self._heat: dict[int, list] = {}  # uid -> [visits, switches, tidmask]
        self._depth_counts: dict[int, int] = {}
        self._samples: list[list[int]] = []
        self._stride = self._next_sample = _FRONTIER_SAMPLE_STRIDE
        #: the thread that reached each DFS stack entry (-1: initial)
        self._tids = [-1]

    def transition(self, succ, key, dup):
        if succ.uid is not None:
            heat = self._heat.get(succ.uid)
            if heat is None:
                heat = self._heat[succ.uid] = [0, 0, 0]
            heat[0] += 1
            if 0 <= self._tids[-1] != succ.tid:
                heat[1] += 1
            if succ.tid >= 0:
                heat[2] |= 1 << succ.tid
        transitions = self._result.transitions
        if transitions >= self._next_sample:
            self._samples.append([transitions, len(self._tids)])
            if len(self._samples) >= _FRONTIER_MAX_SAMPLES:
                self._samples = self._samples[::2]
                self._stride *= 2
            self._next_sample = transitions + self._stride

    def push(self, succ, depth):
        self._tids.append(succ.tid)
        self._depth_counts[depth] = self._depth_counts.get(depth, 0) + 1

    def pop(self, depth):
        self._tids.pop()

    def finish(self, result):
        counts = self._depth_counts
        result.metrics.update({
            "mc.depth": depth_summary(counts),
            "mc.depth_hist": [[d, counts[d]] for d in sorted(counts)],
            "mc.frontier_samples": self._samples,
            # [uid, visits, switches, n_threads]
            "mc.stmt_heat": [
                [uid, heat[0], heat[1], bin(heat[2]).count("1")]
                for uid, heat in sorted(self._heat.items())],
        })


def depth_summary(depth_counts: dict[int, int]) -> dict:
    """Exact summary statistics over a ``{depth: pushes}`` histogram
    (depths are small ints, so exact nearest-rank percentiles are
    free); all zeros when empty."""
    total = sum(depth_counts.values())
    if not total:
        return {"count": 0, "min": 0, "max": 0, "mean": 0.0,
                "p50": 0, "p95": 0, "p99": 0}
    ordered = sorted(depth_counts)
    out = {"count": total, "min": ordered[0], "max": ordered[-1],
           "mean": round(sum(d * n for d, n in depth_counts.items())
                         / total, 3)}
    for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        rank = max(1, int(q * total + 0.999999))
        seen = 0
        for depth in ordered:
            seen += depth_counts[depth]
            if seen >= rank:
                out[name] = depth
                break
    return out
