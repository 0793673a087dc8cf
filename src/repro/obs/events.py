"""Schema-versioned structured event stream (bounded ring + JSONL).

The diagnostics layer's third leg (next to spans and metrics): a
low-overhead stream of discrete *events* emitted from the MC explorer,
the interpreter, the schedulers, and the dynamic checker.  Each event
is a flat dict::

    {"v": 1, "seq": 17, "t": 3.21e-05, "kind": "interp.sc",
     "tid": 0, "addr": "('g', 'Sem')", "ok": true}

* ``v``    — schema version (:data:`SCHEMA_VERSION`);
* ``seq``  — per-stream monotone sequence number;
* ``t``    — ``time.perf_counter()`` timestamp (same clock as the
  profiler's spans, so events and spans merge onto one Chrome-trace
  timeline);
* ``kind`` — dotted event name (see :data:`KINDS`);
* remaining keys are kind-specific and JSON-scalar only.

The stream keeps the most recent ``capacity`` events in a ring buffer
(``collections.deque(maxlen=...)``) so unbounded MC runs cannot exhaust
memory, and optionally mirrors *every* event to a JSONL sink before it
can be evicted.  Call sites hold an ``Optional[EventStream]`` and guard
with ``if stream is not None`` — disabled instrumentation costs one
attribute check.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import deque
from typing import IO, Optional, Union

from repro.obs.schemas import EVENTS as SCHEMA_VERSION

#: the emitted event vocabulary (kind -> kind-specific keys)
KINDS = {
    "mc.push": ("depth", "desc", "states"),          # DFS pushed a state
    "mc.pop": ("depth",),                            # DFS backtracked
    "mc.ample": ("tid", "desc"),                     # singleton ample set
    "mc.violation": ("desc", "message"),             # property/assert hit
    "mc.cap": ("states",),                           # --max-states abort
    "mc.deadline": ("states", "deadline_s"),         # --deadline stop
    # graph-capture summary (GraphWriter.close): exact totals + cap
    "mc.graph": ("nodes", "edges", "pruned", "truncated", "path"),
    "interp.sc": ("tid", "addr", "ok"),              # SC attempt
    "interp.cas": ("tid", "addr", "ok"),             # CAS attempt
    "sched.seed": ("seed",),                         # scheduler seeded
    "sched.switch": ("tid", "prev"),                 # context switch
    "dyn.invocation": ("tid", "proc", "index"),      # checker saw a call
    "dyn.verdict": ("proc", "atomic", "witnesses"),  # checker concluded
    "lint.finding": ("rule", "severity", "proc", "line"),  # one diagnostic
    "lint.run": ("target", "errors", "warnings", "infos"),  # lint summary
    # ranked profiler entry (Profiler.emit_hotspots, top-N at run end)
    "profile.hotspot": ("name", "wall_s", "work", "calls"),
    # --progress heartbeat from the DFS (also printed to stderr); the
    # final beat carries final=True
    "explorer.progress": ("states", "transitions", "depth", "frontier",
                          "elapsed_s", "dedup_hit_rate", "mem_mb",
                          "final"),
    # summary-cache traffic (analysis/summaries/engine.py)
    "summary.resolve": ("label", "hits", "misses", "invalidated",
                        "cached"),
    "summary.replay": ("label", "procs"),
    "summary.emit": ("label", "procs", "drift"),
}

#: JSON-schema (export.validate subset) for one event
EVENT_SCHEMA = {
    "type": "object",
    "required": ["v", "seq", "t", "kind"],
    "properties": {
        "v": {"type": "integer"},
        "seq": {"type": "integer"},
        "t": {"type": "number"},
        "kind": {"type": "string", "enum": sorted(KINDS)},
    },
}

class EventStream:
    """Bounded in-memory ring of structured events, with an optional
    always-complete JSONL sink."""

    def __init__(self, capacity: int = 4096,
                 sink: Union[None, str, pathlib.Path, IO] = None):
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        self._fh: Optional[IO] = None
        self._owns_fh = False
        if sink is not None:
            if hasattr(sink, "write"):
                self._fh = sink
            else:
                sink = pathlib.Path(sink)
                sink.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(sink, "w")
                self._owns_fh = True

    # -- emission ----------------------------------------------------------
    def emit(self, kind: str, **fields) -> dict:
        event = {"v": SCHEMA_VERSION, "seq": self._seq,
                 "t": time.perf_counter(), "kind": kind}
        event.update(fields)
        self._seq += 1
        self._ring.append(event)
        if self._fh is not None:
            self._fh.write(json.dumps(event) + "\n")
        return event

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    def snapshot(self, kind: Optional[str] = None) -> list[dict]:
        """The retained events, oldest first (optionally one kind)."""
        if kind is None:
            return [dict(e) for e in self._ring]
        return [dict(e) for e in self._ring if e["kind"] == kind]

    # -- output ------------------------------------------------------------
    def write_jsonl(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Dump the *retained* ring contents as JSONL."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for event in self._ring:
                fh.write(json.dumps(event) + "\n")
        return path

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            if self._owns_fh:
                self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(path: Union[str, pathlib.Path]) -> list[dict]:
    """Load a JSONL file as a list of objects.  Blank lines are
    skipped, and a final line with no trailing newline that does not
    parse is dropped: its writer was killed mid-write.  Any other line
    that is not a JSON object raises ``ValueError`` naming the file
    and line; a file that is not UTF-8 raises one naming the file."""
    records = []
    with open(path, encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    if not line.endswith("\n"):
                        break       # only the last line can lack one
                    raise ValueError(f"{path}:{number}: not valid JSON") \
                        from None
                if not isinstance(record, dict):
                    raise ValueError(
                        f"{path}:{number}: not a JSON object")
                records.append(record)
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not UTF-8 text") from None
    return records
