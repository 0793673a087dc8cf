"""Content-addressed, schema-versioned summary store.

Layout (files are ``{key}-{name}.json``, the *full* key so distinct
keys can never share a filename):

    <root>/
      procs/     <key>-<proc-name>.json      per-procedure summaries
      programs/  <key>-<label>.json          whole-program records

Every record carries ``v`` (the ``summary`` entry of
:func:`repro.obs.schemas.registry`); :meth:`SummaryStore.get` refuses
to load a record whose stored schema version mismatches the running
code (counted in ``stats()["schema_refused"]``) — a stale store can
only cause cache misses, never wrong verdicts.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

from repro.obs import schemas

SCHEMA_VERSION = schemas.SUMMARY

KINDS = ("proc", "program")

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _safe_name(name: str) -> str:
    return _SAFE.sub("_", name)[:48] or "record"


class SummaryStore:
    """A directory of content-addressed summary records."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.counters = {"schema_refused": 0, "corrupt": 0}

    def _dir(self, kind: str) -> Path:
        if kind not in KINDS:
            raise ValueError(f"unknown summary kind {kind!r}")
        return self.root / f"{kind}s"

    def _path(self, kind: str, key: str, name: str) -> Path:
        return self._dir(kind) / f"{key}-{_safe_name(name)}.json"

    # -- record I/O -----------------------------------------------------------
    def put(self, kind: str, key: str, name: str, record: dict) -> Path:
        doc = {"v": SCHEMA_VERSION, "kind": kind, "key": key,
               "name": name, **record}
        path = self._path(kind, key, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        # unique tmp name: concurrent put()s of the same record must
        # not scribble over each other's half-written file
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def get(self, kind: str, key: str) -> dict | None:
        directory = self._dir(kind)
        if not directory.is_dir():
            return None
        for path in sorted(directory.glob(f"{key}-*.json")):
            record = self._load(path)
            if record is None:
                continue
            if record.get("key") != key:
                continue
            return record
        return None

    def _load(self, path: Path) -> dict | None:
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.counters["corrupt"] += 1
            return None
        if not isinstance(record, dict):
            self.counters["corrupt"] += 1
            return None
        if record.get("v") != SCHEMA_VERSION:
            self.counters["schema_refused"] += 1
            return None
        return record

    # -- enumeration ----------------------------------------------------------
    def iter_paths(self, kind: str | None = None):
        for k in KINDS if kind is None else (kind,):
            directory = self._dir(k)
            if not directory.is_dir():
                continue
            yield from sorted(directory.glob("*.json"))

    def records(self, kind: str | None = None) -> list[dict]:
        out = []
        for path in self.iter_paths(kind):
            record = self._load(path)
            if record is not None:
                out.append(record)
        return out

    def entries(self, kind: str | None = None) -> list[dict]:
        """Lightweight listing (no record bodies): key, kind, name,
        size and mtime per file."""
        out = []
        for path in self.iter_paths(kind):
            stat = path.stat()
            key, _, name = path.stem.partition("-")
            out.append({
                "kind": path.parent.name.rstrip("s"),
                "key": key,
                "name": name,
                "bytes": stat.st_size,
                "mtime": stat.st_mtime,
            })
        return out

    def known_proc_names(self) -> set[str]:
        """Names that already have *some* proc summary on disk — used
        to tell an invalidation (stale record for a known procedure)
        apart from a cold miss."""
        return {e["name"] for e in self.entries("proc")}

    # -- maintenance ----------------------------------------------------------
    def gc(self, keep: int = 256) -> list[Path]:
        """Keep the ``keep`` most recently touched records per kind;
        remove (and return) the rest."""
        removed: list[Path] = []
        for kind in KINDS:
            paths = sorted(self.iter_paths(kind),
                           key=lambda p: (p.stat().st_mtime, p.name),
                           reverse=True)
            for path in paths[max(keep, 0):]:
                path.unlink(missing_ok=True)
                removed.append(path)
        return removed

    def stats(self) -> dict:
        entries = self.entries()
        per_kind = {kind: 0 for kind in KINDS}
        total = 0
        for entry in entries:
            per_kind[entry["kind"]] = per_kind.get(entry["kind"], 0) + 1
            total += entry["bytes"]
        return {
            "v": SCHEMA_VERSION,
            "kind": "summary-stats",
            "root": str(self.root),
            "procs": per_kind.get("proc", 0),
            "programs": per_kind.get("program", 0),
            "bytes": total,
            "schema_refused": self.counters["schema_refused"],
            "corrupt": self.counters["corrupt"],
        }
