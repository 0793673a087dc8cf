"""``repro top`` — attachable live dashboard over an events file.

Attach to a *running* (or finished) exploration by tailing the JSONL
file its ``--events-out`` flag streams to::

    repro mc prog.synl "Apply(1)" "Apply(2)" --events-out /tmp/ev.jsonl &
    repro top /tmp/ev.jsonl

There is no shared process state — the dashboard re-reads whatever the
explorer has flushed so far, which is exactly the transport that will
let one ``top`` watch many sharded explorer processes later.  The
``explorer.progress`` heartbeats drive the headline numbers (EWMA
throughput, frontier, dedup hit rate, peak RSS, cap-ETA / deadline);
``mc.push`` events accumulate a depth histogram for the percentile
row; terminal events (``mc.violation`` / ``mc.cap`` / ``mc.deadline``
/ a ``final`` heartbeat / ``mc.graph``) flip the status line.

Rendering degrades gracefully: an ANSI in-place dashboard when stdout
is a TTY, one summary line per new heartbeat otherwise (CI-safe), and
``--once`` renders a single frame from the current file contents and
exits — the no-TTY smoke-test mode.

**Fleet mode**: point ``repro top`` at a *spool directory* (the
per-run layout :mod:`repro.obs.fleet` writes — ``worker-*/
events.jsonl`` per worker process) and it tails every worker's stream
at once, re-globbing each poll so late-starting workers appear as they
spool up.  The frame shows one row per worker (status, progress,
throughput, peak RSS from the ``fleet.heartbeat`` beats) plus an
aggregate line; the loop ends when every observed worker has emitted
its ``final`` beat.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import IO, Optional

from repro.mc.observers import depth_summary
from repro.obs.metrics import EwmaRate

#: default refresh period in seconds
DEFAULT_INTERVAL = 1.0

#: ``top`` gives up waiting for a first event after this many seconds
#: unless ``--duration`` says otherwise
DEFAULT_DURATION = 60.0

_SPARK = " .:-=+*#%@"

#: statuses after which a dashboard stops waiting for events
_TERMINAL = ("done", "VIOLATION", "CAPPED", "DEADLINE")


def _bar(value: float, peak: float, width: int = 24) -> str:
    """A filled proportional bar (``peak`` <= 0 renders empty)."""
    if peak <= 0:
        return "·" * width
    filled = max(0, min(width, round(width * value / peak)))
    return "█" * filled + "·" * (width - filled)


@dataclass
class TopState:
    """Accumulated view of one events file."""

    progress: dict = field(default_factory=dict)  # last heartbeat
    beats: int = 0
    events: int = 0
    depth_counts: dict = field(default_factory=dict)  # mc.push depths
    status: str = "waiting"
    graph: Optional[dict] = None                  # last mc.graph event
    rate: EwmaRate = field(default_factory=EwmaRate)
    ewma_rate: float = 0.0
    peak_rate: float = 0.0

    def feed(self, event: dict) -> bool:
        """Fold one event in; True when the frame should refresh."""
        self.events += 1
        kind = event.get("kind")
        if kind in ("explorer.progress", "fleet.heartbeat"):
            # a worker-process beat folds like explorer.progress, with
            # done/total instead of states
            self.progress = event
            self.beats += 1
            self.ewma_rate = self.rate.update(
                event.get("states", event.get("done", 0)),
                event.get("elapsed_s", event.get("t", 0.0)))
            if self.ewma_rate > self.peak_rate:
                self.peak_rate = self.ewma_rate
            if self.status == "waiting":
                self.status = "running"
            if event.get("final"):
                self.status = "done" if self.status == "running" \
                    else self.status
            return True
        if kind == "mc.push":
            depth = event.get("depth", 0)
            self.depth_counts[depth] = \
                self.depth_counts.get(depth, 0) + 1
        elif kind == "mc.violation":
            self.status = f"VIOLATION: {event.get('message', '?')}"
        elif kind == "mc.cap":
            self.status = f"CAPPED at {event.get('states')} states"
        elif kind == "mc.deadline":
            self.status = (f"DEADLINE after {event.get('states')} "
                           f"states")
        elif kind == "mc.graph":
            self.graph = event
        return False

    def depth_percentiles(self) -> tuple[int, int, int]:
        """(p50, p95, max) over observed push depths."""
        summary = depth_summary(self.depth_counts)
        return (summary["p50"], summary["p95"], summary["max"])

    def to_dict(self) -> dict:
        p50, p95, dmax = self.depth_percentiles()
        return {"status": self.status, "beats": self.beats,
                "events": self.events,
                "ewma_rate": round(self.ewma_rate, 1),
                "depth_p50": p50, "depth_p95": p95, "depth_max": dmax,
                "progress": dict(self.progress),
                "graph": dict(self.graph) if self.graph else None}


def render_frame(state: TopState, path: str) -> list[str]:
    """The dashboard frame as a list of lines."""
    p = state.progress
    p50, p95, dmax = state.depth_percentiles()
    rate = state.ewma_rate or p.get("rate_states_per_s", 0.0)
    frontier = p.get("frontier", 0)
    lines = [
        f"repro top — {path}",
        f"status: {state.status}   beats: {state.beats}   "
        f"events: {state.events}",
        f"states      {p.get('states', 0):>12,}   "
        f"transitions {p.get('transitions', 0):>12,}",
        f"throughput  {rate:>10,.0f}/s   "
        f"{_bar(rate, state.peak_rate or rate)}",
        f"frontier    {frontier:>12,}   "
        f"dedup hit rate {p.get('dedup_hit_rate', 0.0):>7.1%}",
        f"depth       p50={p50} p95={p95} max={dmax}",
        f"peak RSS    {p.get('mem_mb', 0.0):>9.1f} MB   "
        f"elapsed {p.get('elapsed_s', 0.0):.1f}s",
    ]
    eta_bits = []
    if p.get("eta_cap_s") is not None:
        eta_bits.append(f"ETA to cap {p['eta_cap_s']:.1f}s")
    if p.get("deadline_in_s") is not None:
        eta_bits.append(f"deadline in {p['deadline_in_s']:.1f}s")
    if eta_bits:
        lines.append("            " + "   ".join(eta_bits))
    if state.graph is not None:
        g = state.graph
        lines.append(
            f"graph       {g.get('nodes')} nodes, {g.get('edges')} "
            f"edges, {g.get('pruned')} pruned -> {g.get('path')}")
    return lines


def render_line(state: TopState) -> str:
    """One-line summary (line-mode / non-TTY fallback)."""
    p = state.progress
    return (f"[top] {state.status} states={p.get('states', 0)} "
            f"trans={p.get('transitions', 0)} "
            f"frontier={p.get('frontier', 0)} "
            f"rate={state.ewma_rate:,.0f}/s "
            f"dedup={p.get('dedup_hit_rate', 0.0):.1%} "
            f"mem={p.get('mem_mb', 0.0):.1f}MB")


class _Tail:
    """Incremental JSONL reader that survives partially-written last
    lines (the writer may be mid-``write`` when we poll)."""

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[IO] = None
        self._buf = ""

    def poll(self) -> list[dict]:
        if self._fh is None:
            if not os.path.exists(self.path):
                return []
            self._fh = open(self.path)
        chunk = self._fh.read()
        if not chunk:
            return []
        self._buf += chunk
        out = []
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn line: wait for the rest
        return out

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class FleetTail:
    """Tails every ``worker-*/events.jsonl`` under a spool directory,
    one :class:`_Tail` + :class:`TopState` per worker.  The directory
    is re-globbed on every poll, so workers that spool up late (or
    whose file appears mid-run) are picked up without a restart."""

    def __init__(self, root: str):
        self.root = root
        self.tails: dict[str, _Tail] = {}
        self.states: dict[str, TopState] = {}

    def poll(self) -> bool:
        """Feed all fresh events; True when any frame-worthy event
        arrived on any worker."""
        import glob as _glob

        fresh = False
        pattern = os.path.join(self.root, "worker-*", "events.jsonl")
        for ev_file in sorted(_glob.glob(pattern)):
            worker = os.path.basename(os.path.dirname(ev_file))
            if worker not in self.tails:
                self.tails[worker] = _Tail(ev_file)
                self.states[worker] = TopState()
                fresh = True
            state = self.states[worker]
            for event in self.tails[worker].poll():
                fresh = state.feed(event) or fresh
        return fresh

    @property
    def events(self) -> int:
        return sum(s.events for s in self.states.values())

    def finished(self) -> bool:
        """Every observed worker reached a terminal status (and at
        least one worker was observed)."""
        if not self.states:
            return False
        return all(s.status.startswith(_TERMINAL)
                   for s in self.states.values())

    def aggregate(self) -> dict:
        done = sum(s.progress.get("done", s.progress.get("states", 0))
                   for s in self.states.values())
        rate = sum(s.ewma_rate for s in self.states.values())
        rss = sum(s.progress.get("rss_mb", s.progress.get("mem_mb", 0.0))
                  for s in self.states.values())
        return {"workers": len(self.states), "done": done,
                "rate": round(rate, 1), "rss_mb": round(rss, 1),
                "events": self.events}

    def to_dict(self) -> dict:
        return {"workers": {name: state.to_dict()
                            for name, state in sorted(self.states.items())},
                "aggregate": self.aggregate()}

    def close(self) -> None:
        for tail in self.tails.values():
            tail.close()

    def frame(self, path: str) -> list[str]:
        return render_fleet_frame(self, path)

    def line(self) -> str:
        return render_fleet_line(self)

    def snapshot(self) -> None:
        pass


class _FileTail:
    """One events file folded into a :class:`TopState`, with the
    :class:`FleetTail` interface :func:`run_top` drives."""

    def __init__(self, path: str):
        self.tail = _Tail(path)
        self.state = TopState()

    @property
    def events(self) -> int:
        return self.state.events

    def poll(self) -> bool:
        fresh = False
        for event in self.tail.poll():
            fresh = self.state.feed(event) or fresh
        return fresh

    def finished(self) -> bool:
        return self.state.status.startswith(_TERMINAL)

    def to_dict(self) -> dict:
        return self.state.to_dict()

    def close(self) -> None:
        self.tail.close()

    def frame(self, path: str) -> list[str]:
        return render_frame(self.state, path)

    def line(self) -> str:
        return render_line(self.state)

    def snapshot(self) -> None:
        """``--once``: say why the status is not final."""
        state = self.state
        if state.status == "running":
            state.status = "running (snapshot)"
        elif state.status == "waiting" and state.events:
            state.status = "no heartbeats recorded (run mc with --progress)"


def render_fleet_frame(fleet: FleetTail, path: str) -> list[str]:
    """The fleet dashboard frame: one row per worker + an aggregate."""
    lines = [f"repro top — fleet {path}",
             f"{'worker':<12} {'status':<10} {'done':>8} {'total':>8} "
             f"{'rate/s':>9} {'rss MB':>7} {'elapsed':>8}"]
    for name in sorted(fleet.states):
        state = fleet.states[name]
        p = state.progress
        total = p.get("total")
        lines.append(
            f"{name:<12} {state.status[:10]:<10} "
            f"{p.get('done', p.get('states', 0)):>8,} "
            f"{total if total is not None else '?':>8} "
            f"{(state.ewma_rate or p.get('rate', 0.0)):>9,.1f} "
            f"{p.get('rss_mb', p.get('mem_mb', 0.0)):>7.1f} "
            f"{p.get('elapsed_s', 0.0):>7.1f}s")
    agg = fleet.aggregate()
    lines.append(
        f"{'TOTAL':<12} {'':<10} {agg['done']:>8,} {'':>8} "
        f"{agg['rate']:>9,.1f} {agg['rss_mb']:>7.1f} "
        f"{agg['events']:>7} ev")
    return lines


def render_fleet_line(fleet: FleetTail) -> str:
    """One-line fleet summary (line-mode / non-TTY fallback)."""
    agg = fleet.aggregate()
    running = sum(1 for s in fleet.states.values()
                  if not s.status.startswith(_TERMINAL))
    return (f"[top] fleet workers={agg['workers']} running={running} "
            f"done={agg['done']} rate={agg['rate']:,.1f}/s "
            f"rss={agg['rss_mb']:.1f}MB events={agg['events']}")


def run_top(path: str, *, interval: float = DEFAULT_INTERVAL,
            duration: Optional[float] = None, once: bool = False,
            as_json: bool = False, out: Optional[IO] = None,
            force_tty: Optional[bool] = None) -> int:
    """Drive the dashboard; returns the process exit code.

    ``once`` renders a single frame from the file's current contents
    (no waiting — works without a TTY and without a live writer).
    ``duration`` bounds the attach time in seconds (default
    :data:`DEFAULT_DURATION`); the loop also ends on a ``final``
    heartbeat or a terminal event.

    When ``path`` is a *directory* it is treated as a fleet spool
    (``worker-*/events.jsonl`` per worker — see
    :mod:`repro.obs.fleet`): per-worker rows plus an aggregate line,
    ending once every observed worker emitted its final heartbeat.
    """
    out = out or sys.stdout
    is_tty = force_tty if force_tty is not None \
        else getattr(out, "isatty", lambda: False)()
    view = FleetTail(path) if os.path.isdir(path) else _FileTail(path)
    deadline = time.monotonic() + (duration if duration is not None
                                   else DEFAULT_DURATION)
    painted = 0

    def paint() -> None:
        nonlocal painted
        lines = view.frame(path)
        if is_tty and painted:
            out.write(f"\x1b[{painted}F\x1b[J")  # up + clear below
        out.write("\n".join(lines) + "\n")
        out.flush()
        painted = len(lines)

    try:
        if once:
            view.poll()
            view.snapshot()
            if as_json:
                out.write(json.dumps(view.to_dict(), indent=2) + "\n")
            else:
                out.write("\n".join(view.frame(path)) + "\n")
            return 0 if view.events else 2
        while time.monotonic() < deadline:
            if view.poll():
                if is_tty:
                    paint()
                else:
                    out.write(view.line() + "\n")
                    out.flush()
            if view.finished():
                break
            time.sleep(interval)
        if as_json:
            out.write(json.dumps(view.to_dict(), indent=2) + "\n")
        elif is_tty:
            paint()
        else:
            out.write(view.line() + "\n")
        return 0 if view.events else 2
    finally:
        view.close()
