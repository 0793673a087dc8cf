"""Multi-process observability backplane: worker spools + aggregator.

Events, spans, the profiler and the HTML report all assume one
process.  This module lets parallel work stay visible: each worker
process writes its *own* crash-safe telemetry spool, and a
deterministic aggregator merges N spools back into the single-stream
shapes the rest of the substrate already consumes.

Spool layout (one directory per run, one subdirectory per worker)::

    <spool>/
        worker-00/
            events.jsonl    # pid/worker-stamped event stream
            profile.json    # Profiler.state() — full triples + folded
            result.json     # the worker function's JSON return value
            worker.json     # meta: pid, wall, peak RSS, item count
        worker-01/
            ...

Each file is written once, at worker exit, except ``events.jsonl``,
which streams, so a crashed worker leaves everything it flushed.
Writers append whole lines, and
:func:`~repro.obs.events.read_jsonl` drops a torn final line.

The three layers:

* :class:`WorkerSpool` — worker-side handle bundling a pid/worker-
  stamped :class:`~repro.obs.events.EventStream`, a private
  :class:`~repro.obs.profile.Profiler`, and the spool write-out.
* :func:`run_fleet` — ``os.fork``-based fan-out: items are strided
  across N worker processes (``items[w::jobs]``), each child runs the
  worker function over its chunk with a :class:`WorkerSpool` and
  ``os._exit``\\ s (no pickling, no atexit replay); the parent waits
  for all children and reassembles per-item results in the *original
  submission order*, so a parallel run is byte-identical to a
  sequential one.  Without an explicit spool directory the spools
  live in a temporary directory that is gone once merged.
* :func:`merge_spools` — the deterministic aggregator: one merged
  ``Profiler`` (triples and folded stacks sum), and a
  schema-versioned ``{"kind": "fleet"}`` merge-summary document
  (per-worker rows, straggler attribution) that the ``--jobs``
  commands embed in their ``--json`` documents as ``fleet`` and the
  HTML report renders as its Fleet section.

:func:`resolve_jobs` implements the ``--jobs`` flag > ``REPRO_JOBS`` >
1 resolution shared by every consumer.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.obs import schemas
from repro.obs.events import EventStream, read_jsonl
from repro.obs.profile import Profiler, peak_rss_mb

SCHEMA_VERSION = schemas.FLEET

#: the environment default for ``--jobs``
ENV_JOBS = "REPRO_JOBS"

#: merge-summary document schema (export.validate subset)
FLEET_SCHEMA = {
    "type": "object",
    "required": ["v", "kind", "jobs", "workers"],
    "properties": {
        "v": {"type": "integer"},
        "kind": {"type": "string", "enum": ["fleet"]},
        "jobs": {"type": "integer"},
        "label": {"type": "string"},
        "items": {"type": "integer"},
        "events": {"type": "integer"},
        "wall_s": {"type": "number"},
        "straggler": {"type": ["string", "null"]},
        "workers": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["worker", "pid", "items"],
                "properties": {
                    "worker": {"type": "string"},
                    "pid": {"type": "integer"},
                    "items": {"type": "integer"},
                    "events": {"type": "integer"},
                    "wall_s": {"type": "number"},
                    "rss_mb": {"type": "number"},
                },
            },
        },
    },
}


def resolve_jobs(flag: Optional[int] = None,
                 env: Optional[dict] = None) -> int:
    """``--jobs`` resolution shared by every consumer: explicit flag >
    ``REPRO_JOBS`` > 1.  Values below 1 clamp to 1."""
    if env is None:
        env = os.environ
    if flag is not None:
        return max(1, flag)
    raw = env.get(ENV_JOBS, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def can_fork() -> bool:
    """Whether this platform supports the fork-based fan-out."""
    return hasattr(os, "fork")


def worker_name(index: int) -> str:
    return f"worker-{index:02d}"


class WorkerSpool:
    """Worker-side telemetry handle: one spool directory, one
    pid/worker-stamped event stream, and a private profiler.
    Construct it *in the worker process* (the event stream caches
    ``os.getpid()`` at construction)."""

    def __init__(self, root: Union[str, pathlib.Path], index: int,
                 capacity: int = 4096):
        self.index = index
        self.worker = worker_name(index)
        self.dir = pathlib.Path(root) / self.worker
        self.dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.events = EventStream(capacity=capacity,
                                  sink=self.dir / "events.jsonl",
                                  worker=self.worker)
        self.profiler = Profiler()
        self._started = time.perf_counter()

    def finish(self, result=None, items: int = 0) -> None:
        """Write the once-at-exit spool files.  ``items`` is how many
        items the worker finished; ``result`` (any JSON-able value)
        lands in ``result.json`` for the parent to read back."""
        wall = time.perf_counter() - self._started
        self.events.close()
        (self.dir / "profile.json").write_text(json.dumps(
            {"v": SCHEMA_VERSION, "kind": "fleet-profile",
             "worker": self.worker, "pid": self.pid,
             "profile": self.profiler.state()}, indent=1) + "\n")
        (self.dir / "worker.json").write_text(json.dumps(
            {"v": SCHEMA_VERSION, "kind": "fleet-worker",
             "worker": self.worker, "pid": self.pid,
             "items": items, "wall_s": round(wall, 6),
             "rss_mb": round(peak_rss_mb(), 1),
             "events": self.events.emitted}, indent=1) + "\n")
        if result is not None:
            (self.dir / "result.json").write_text(
                json.dumps(result) + "\n")


def _read_json(path: pathlib.Path) -> Optional[dict]:
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


@dataclass
class FleetMerge:
    """Everything :func:`merge_spools` reassembles from N spools."""

    #: schema-versioned merge-summary document (``kind: "fleet"``) —
    #: embedded as ``fleet`` in the ``--jobs`` commands' ``--json``
    #: documents, which the report's Fleet section reads
    doc: dict
    #: merged profiler (triples + folded stacks summed)
    profiler: Profiler
    #: worker result.json payloads, in worker order (None when absent)
    results: list = field(default_factory=list)


def merge_spools(root: Union[str, pathlib.Path],
                 label: str = "",
                 jobs: Optional[int] = None) -> FleetMerge:
    """Deterministically merge every ``worker-*/`` spool under
    ``root`` into one profiler and the merge-summary document.
    Workers are processed in directory-name order and profiler
    entries sum, so the result is independent of worker completion
    order."""
    root = pathlib.Path(root)
    worker_dirs = sorted(p for p in root.glob("worker-*")
                         if p.is_dir())
    profiler = Profiler()
    results: list = []
    rows: list[dict] = []
    for wdir in worker_dirs:
        pdoc = _read_json(wdir / "profile.json")
        if pdoc:
            profiler.merge(Profiler.from_state(
                pdoc.get("profile") or {}))
        results.append(_read_json(wdir / "result.json"))
        meta = _read_json(wdir / "worker.json")
        if meta is None:
            # the worker died before finish(): count what it streamed
            path = wdir / "events.jsonl"
            events = read_jsonl(path) if path.exists() else []
            meta = {"pid": next((e["pid"] for e in events
                                 if "pid" in e), 0),
                    "events": len(events)}
        rows.append({
            "worker": meta.get("worker", wdir.name),
            "pid": meta.get("pid", 0),
            "items": meta.get("items", 0),
            "events": meta.get("events", 0),
            "wall_s": meta.get("wall_s", 0.0),
            "rss_mb": meta.get("rss_mb", 0.0),
        })
    straggler = max(rows, key=lambda r: r["wall_s"])["worker"] \
        if rows else None
    doc = {
        "v": SCHEMA_VERSION,
        "kind": "fleet",
        "jobs": jobs if jobs is not None else len(rows),
        "label": label,
        "items": sum(r["items"] for r in rows),
        "events": sum(r["events"] for r in rows),
        "wall_s": max((r["wall_s"] for r in rows), default=0.0),
        "straggler": straggler,
        "workers": rows,
    }
    return FleetMerge(doc=doc, profiler=profiler, results=results)


def _run_worker(spool_root: pathlib.Path, index: int, items: list,
                worker_fn: Callable) -> None:
    """Child-process body: run the chunk, spool, ``os._exit``."""
    exit_code = 0
    spool = WorkerSpool(spool_root, index)
    out: list = []
    try:
        for item in items:
            out.append(worker_fn(item, spool))
        spool.finish(result={"ok": True, "values": out},
                     items=len(out))
    except BaseException:
        exit_code = 1
        try:
            spool.finish(result={"ok": False,
                                 "error": traceback.format_exc()},
                         items=len(out))
        except BaseException:
            pass
    finally:
        # never unwind into the parent's stack: skip atexit hooks and
        # buffered-IO double-flush
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(exit_code)


def run_fleet(items: list, worker_fn: Callable, *,
              jobs: int, spool: Union[str, pathlib.Path, None] = None,
              label: str = "") -> tuple:
    """Fan ``items`` across ``jobs`` forked worker processes and
    reassemble.

    ``worker_fn(item, spool)`` runs in the worker with its
    :class:`WorkerSpool` and returns a JSON-able per-item value.
    Items are strided (worker ``w`` gets ``items[w::jobs]``), so
    chunks balance without reordering; the parent reassembles per-item
    values in the **original submission order**, which is what makes
    ``--jobs N`` output byte-identical to sequential.

    Returns ``(values, merge)`` — per-item results in submission
    order and the :class:`FleetMerge` over all worker spools.  Raises
    ``RuntimeError`` carrying the worker traceback when any worker
    failed.  Without ``spool`` the workers spool into a temporary
    directory that is removed once merged (or once a failed worker's
    traceback is read).  Platforms without ``os.fork`` run the chunks
    in-process (same spool layout, no parallelism).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if spool is None:
        with tempfile.TemporaryDirectory(prefix="repro-spool-") as tmp:
            return _fan_out(items, worker_fn, jobs, pathlib.Path(tmp),
                            label)
    spool_root = pathlib.Path(spool)
    spool_root.mkdir(parents=True, exist_ok=True)
    return _fan_out(items, worker_fn, jobs, spool_root, label)


def _fan_out(items: list, worker_fn: Callable, jobs: int,
             spool_root: pathlib.Path, label: str) -> tuple:
    jobs = min(jobs, max(1, len(items)))
    chunks = [items[w::jobs] for w in range(jobs)]

    if not can_fork():               # pragma: no cover — POSIX CI
        for index, chunk in enumerate(chunks):
            ws = WorkerSpool(spool_root, index)
            out = [worker_fn(item, ws) for item in chunk]
            ws.finish(result={"ok": True, "values": out},
                      items=len(out))
        return _reassemble(items, jobs, spool_root, label)

    # flush inherited buffers once, before any fork, so children never
    # replay half-written parent output
    sys.stdout.flush()
    sys.stderr.flush()
    pids = {}
    for index, chunk in enumerate(chunks):
        pid = os.fork()
        if pid == 0:
            _run_worker(spool_root, index, chunk, worker_fn)
            os._exit(1)              # pragma: no cover — unreachable
        pids[pid] = index
    failures = []
    for pid, index in pids.items():
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            failures.append((index, code))
    if failures:
        details = []
        for index, code in failures:
            rdoc = _read_json(spool_root / worker_name(index)
                              / "result.json") or {}
            details.append(f"{worker_name(index)} exit={code}: "
                           f"{rdoc.get('error', 'no traceback spooled')}")
        raise RuntimeError("fleet worker(s) failed:\n"
                           + "\n".join(details))
    return _reassemble(items, jobs, spool_root, label)


def _reassemble(items: list, jobs: int, spool_root: pathlib.Path,
                label: str) -> tuple:
    merge = merge_spools(spool_root, label=label, jobs=jobs)
    values: list = [None] * len(items)
    for w, rdoc in enumerate(merge.results):
        if not rdoc or not rdoc.get("ok"):
            raise RuntimeError(
                f"{worker_name(w)} left no usable result.json")
        for j, value in enumerate(rdoc["values"]):
            values[w + j * jobs] = value
    return values, merge
