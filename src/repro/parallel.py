"""Ordered fork-map: fan independent items across forked workers.

:func:`fork_map` is the one parallel mechanism behind ``--jobs``
(``analyze --corpus`` and ``experiments section63``).  Items are
strided across the workers (worker ``w`` runs ``items[w::jobs]``) so
chunks balance without reordering; each worker returns one JSON-able
value per item through its own result file, and the parent reassembles
the values in submission order, so a parallel map equals a sequential
one.  Workers return values only: spans, profiles and events recorded
in a worker stay in the worker.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import traceback
from typing import Callable, Iterable

from repro.errors import ReproError


class WorkerError(ReproError):
    """A :func:`fork_map` worker raised, or exited non-zero or by a
    signal."""


def fork_map(fn: Callable, items: Iterable, jobs: int) -> list:
    """``[fn(item) for item in items]`` across up to ``jobs`` forked
    workers, in submission order.

    ``fn`` runs in the worker and must return a JSON-able value; the
    parent gets it back through JSON (tuples come back as lists).
    ``jobs`` is clamped to the item count.  With one job, or without
    ``os.fork``, the map runs in-process.  Raises :class:`WorkerError`
    naming every worker that raised (with its exception) or that
    exited non-zero or by a signal (with its status)."""
    items = list(items)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, len(items))
    if jobs <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]

    # flush inherited buffers once, before any fork, so children never
    # replay half-written parent output
    sys.stdout.flush()
    sys.stderr.flush()
    values: list = [None] * len(items)
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-fork-map-") as tmp:
        paths = [os.path.join(tmp, f"worker-{w}.json")
                 for w in range(jobs)]
        pids: list[int] = []
        try:
            for w in range(jobs):
                pid = os.fork()
                if pid == 0:
                    _child(fn, items[w::jobs], paths[w])
                pids.append(pid)
        finally:
            # reap every child that was started, even when a later
            # fork failed; result files outlive their writers
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid in pids]
        for w, (pid, code) in enumerate(zip(pids, codes)):
            doc = _read(paths[w])
            who = f"worker {w} of {jobs} (pid {pid})"
            if code < 0:
                failures.append(f"{who} was killed by signal {-code}")
            elif doc is not None and "error" in doc:
                failures.append(f"{who} raised {doc['error']}")
            elif code != 0 or doc is None:
                failures.append(f"{who} exited with status {code} "
                                f"and no result")
            else:
                values[w::jobs] = doc["values"]
    if failures:
        raise WorkerError("; ".join(failures))
    return values


def _child(fn: Callable, chunk: list, path: str) -> None:
    """Worker body: map the chunk, write the result file, ``os._exit``
    (never unwind into the parent's stack or run its atexit hooks)."""
    code = 0
    try:
        try:
            text = json.dumps({"values": [fn(item) for item in chunk]})
        except BaseException as exc:
            code = 1
            text = json.dumps({"error": _describe(exc)})
        with open(path, "w") as fh:
            fh.write(text)
    except BaseException:
        code = 1
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def _describe(exc: BaseException) -> str:
    """``Type: message`` on one line."""
    lines = traceback.format_exception_only(type(exc), exc)
    return lines[-1].strip()


def _read(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
