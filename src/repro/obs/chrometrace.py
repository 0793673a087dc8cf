"""Chrome trace-event export for span trees and event streams.

Serializes a :class:`~repro.obs.profile.Profiler`'s span tree (as
``"X"`` complete events) and an :class:`~repro.obs.events.EventStream`
(as ``"i"`` instant events) into the Trace Event Format understood by
``chrome://tracing`` and https://ui.perfetto.dev.  Both sources stamp
``time.perf_counter()`` so their timelines line up without any clock
reconciliation: the earliest timestamp across both becomes the trace
epoch and everything is exported as microseconds since it.

Spans are laid out on one *track* (Chrome "thread"), ``spans``;
instant events get their own track per event domain (``mc``, ``sched``,
``interp``, ``dyn``) so a violation marker is visually aligned with the
DFS span it interrupted.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional, Union

#: pid used for every emitted event (single-process tool)
_PID = 1

#: tid of the span track
_SPAN_TRACK_BASE = 1
#: tid range for event-domain tracks (mc/sched/interp/dyn)
_EVENT_TRACK_BASE = 100


def _span_events(span, track: int, epoch: float, out: list) -> None:
    end = span.end if span.end is not None else span.start
    args = dict(span.attrs)
    out.append({
        "name": span.name,
        "ph": "X",
        "pid": _PID,
        "tid": track,
        "ts": round((span.start - epoch) * 1e6, 3),
        "dur": round((end - span.start) * 1e6, 3),
        **({"args": args} if args else {}),
    })
    for child in span.children:
        _span_events(child, track, epoch, out)


def _min_timestamp(profiler, events) -> Optional[float]:
    stamps = []
    if profiler is not None:
        stamps.extend(s.start for s in profiler.roots)
    if events is not None:
        snap = events.snapshot()
        if snap:
            stamps.append(snap[0]["t"])
    return min(stamps) if stamps else None


def to_trace_events(profiler=None, events=None) -> list[dict]:
    """Flatten spans + stream events into a trace-event list."""
    epoch = _min_timestamp(profiler, events)
    if epoch is None:
        return []
    out: list[dict] = []
    tracks: dict[str, int] = {}

    def track_of(name: str, base: int) -> int:
        if name not in tracks:
            tracks[name] = base + len(
                [t for t in tracks.values() if t >= base and t < base + 90])
        return tracks[name]

    if profiler is not None:
        for root in profiler.roots:
            _span_events(root, track_of("spans", _SPAN_TRACK_BASE),
                         epoch, out)
    if events is not None:
        for ev in events.snapshot():
            domain = ev["kind"].split(".", 1)[0]
            args = {k: v for k, v in ev.items()
                    if k not in ("v", "seq", "t", "kind")}
            args["seq"] = ev["seq"]
            out.append({
                "name": ev["kind"],
                "ph": "i",
                "s": "t",   # thread-scoped instant
                "pid": _PID,
                "tid": track_of(f"events:{domain}", _EVENT_TRACK_BASE),
                "ts": round((ev["t"] - epoch) * 1e6, 3),
                "args": args,
            })
    # name the tracks so Perfetto shows "spans" / "events:mc"
    for name, tid in sorted(tracks.items(), key=lambda kv: kv[1]):
        out.append({
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "args": {"name": name},
        })
    return out


def write_trace(path: Union[str, pathlib.Path], profiler=None,
                events=None) -> pathlib.Path:
    """Write a ``chrome://tracing``-loadable JSON object file."""
    doc = {
        "traceEvents": to_trace_events(profiler=profiler, events=events),
        "displayTimeUnit": "ms",
    }
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path
