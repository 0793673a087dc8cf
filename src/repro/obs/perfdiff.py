"""Differential profiling: attributed perf-regression forensics.

The benchmark (``bench/``) says *that* a workload got slower; this
module says *where the work went*.  It diffs two profile sides —
deterministic work counters per region plus wall-time attribution —
and emits a ranked attribution table::

    region               group    units A units B   delta wall A ms wall B ms
    gh-full/mc.canonical gh-full    12000   17000  +41.7%     400.0     610.0
    gh-full/interp.step  gh-full     6400    6210   -3.0%     120.0     118.0

A *side* resolves from any profile-bearing artifact
(:func:`resolve_side`):

* a ``bench/run.py --out`` JSONL file, or a directory of them (every
  ``*.jsonl``, as ``bench/compare.py`` reads it): each traced
  record's ``<layer>.calls`` becomes the counter
  ``<workload>/<layer>`` and ``<layer>.self_s`` its wall time, both
  the median over the side's traced records of that workload;
* an analysis/MC ``--json`` document (embedded ``profile``), a bare
  profile document, or a ``--profile-out`` collapsed-stack file.

Drift gating is deliberately counter-based: work counters are
deterministic (two identical seeded runs produce identical counters,
so ``repro perf diff`` between them is empty by construction — the CI
forensics canary), which means any growth past the relative threshold
is real algorithmic work, not scheduler jitter.  Rows rank by
|Δ units|, ties by |Δ wall|; wall times and folded-path deltas are
informational columns.

``repro perf diff A B`` exits 0 (no attributed drift), 1 (drift), 2
(usage error, or an operand without profile data); ``--json`` emits
the schema-versioned document
(:data:`repro.obs.export.PERFDIFF_SCHEMA`, version
``schemas.PERFDIFF``).
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Optional

from repro.obs.events import read_jsonl
from repro.obs.schemas import PERFDIFF as SCHEMA_VERSION

#: relative attributed-work growth a region must exceed to gate
DEFAULT_THRESHOLD = 0.25

#: absolute work-unit delta a drifting region must also clear (a
#: 1 -> 2 counter step is +100% and still meaningless)
WORK_FLOOR = 16

#: informational folded-path rows kept in the document
PATH_LIMIT = 20

#: region-name prefix -> attribution group
_GROUPS = (
    ("mc.", "explorer"),
    ("theorem.", "theorem"),
    ("lint.", "lint-rule"),
    ("analysis.", "analysis-pass"),
    ("summary.", "summary-cache"),
)


def group_of(name: str) -> str:
    """Attribution group of a region name: the workload of a
    ``<workload>/<layer>`` bench row, else by profiler prefix."""
    if "/" in name:
        return name.split("/", 1)[0]
    for prefix, group in _GROUPS:
        if name.startswith(prefix):
            return group
    return "other"


# -- side construction ---------------------------------------------------------

def _empty_side(label: str) -> dict:
    return {"label": label, "counters": {}, "wall": {}, "folded": {}}


def _merge_side(side: dict, counters: Optional[dict] = None,
                wall: Optional[dict] = None,
                folded: Optional[dict] = None) -> dict:
    for name, entry in (counters or {}).items():
        tgt = side["counters"].setdefault(name, {"calls": 0, "work": 0})
        tgt["calls"] += int(entry.get("calls", 0))
        tgt["work"] += int(entry.get("work", 0))
    for name, wall_s in (wall or {}).items():
        side["wall"][name] = side["wall"].get(name, 0.0) + float(wall_s)
    for path, wall_s in (folded or {}).items():
        side["folded"][path] = side["folded"].get(path, 0.0) \
            + float(wall_s)
    return side


def side_from_profile_doc(label: str, doc: dict,
                          side: Optional[dict] = None) -> dict:
    """A side from a profile document (``{v, hotspots, folded?}``)."""
    side = side if side is not None else _empty_side(label)
    counters = {e["name"]: {"calls": e.get("calls", 0),
                            "work": e.get("work", 0)}
                for e in doc.get("hotspots", [])}
    wall = {e["name"]: e.get("wall_s", 0.0)
            for e in doc.get("hotspots", [])}
    return _merge_side(side, counters, wall, doc.get("folded"))


def side_from_records(label: str, records: list) -> dict:
    """A side from ``bench/run.py`` records.  Untraced records carry
    no layers and are skipped; per workload, each layer's ``.calls``
    and ``.self_s`` are the medians over its traced records (repeats
    of one workload must not add up)."""
    side = _empty_side(label)
    layers: dict[str, tuple[list, list]] = {}
    for record in records:
        if not record.get("trace"):
            continue
        for metric, entry in record["metrics"].items():
            layer, _, stat = metric.rpartition(".")
            value = entry.get("value") if isinstance(entry, dict) \
                else None
            if stat not in ("calls", "self_s") \
                    or not isinstance(value, (int, float)):
                continue
            calls, self_s = layers.setdefault(
                f"{record['workload']}/{layer}", ([], []))
            (calls if stat == "calls" else self_s).append(value)
    for name, (calls, self_s) in layers.items():
        if not any(calls) and not any(self_s):
            continue        # a layer this workload never enters
        units = int(statistics.median(calls)) if calls else 0
        _merge_side(side, {name: {"calls": units}},
                    {name: statistics.median(self_s)} if self_s
                    else None)
    return side


def _bench_records(path: pathlib.Path) -> Optional[list]:
    """The records of a ``bench/run.py --out`` JSONL file, or None
    when the file is anything else."""
    try:
        records = read_jsonl(path)
    except ValueError:
        return None
    if records and all("workload" in r and isinstance(r.get("metrics"),
                                                      dict)
                       for r in records):
        return records
    return None


def _side_from_bench(path: pathlib.Path, records: list) -> dict:
    side = side_from_records(str(path), records)
    if not side["counters"]:
        raise ValueError(f"{path} has no profile data: no traced "
                         f"records (run bench/run.py --traced)")
    return side


def side_from_folded(label: str, folded_usecs: dict,
                     side: Optional[dict] = None) -> dict:
    """A side from a parsed ``--profile-out`` collapsed-stack file
    (``{escaped_path: usecs}``).  Folded files carry no counters, so
    the leaf frame's wall time doubles as the comparison surface."""
    from repro.obs.profile import split_path

    side = side if side is not None else _empty_side(label)
    for path, usecs in folded_usecs.items():
        wall_s = usecs / 1_000_000
        side["folded"][path] = side["folded"].get(path, 0.0) + wall_s
        leaf = split_path(path)[-1]
        side["wall"][leaf] = side["wall"].get(leaf, 0.0) + wall_s
    return side


def _side_from_json_doc(label: str, doc, side: dict) -> bool:
    """Merge whatever profile data a JSON document carries; returns
    whether anything was found."""
    if not isinstance(doc, dict):
        return False
    if "hotspots" in doc:            # bare profile document
        side_from_profile_doc(label, doc, side)
        return True
    if isinstance(doc.get("profile"), dict):   # analysis/mc --json
        side_from_profile_doc(label, doc["profile"], side)
        return True
    return False


def _side_from_file(path: pathlib.Path) -> dict:
    from repro.obs.profile import parse_folded_lines

    side = _empty_side(str(path))
    records = _bench_records(path)
    if records is not None:
        return _side_from_bench(path, records)
    text = path.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        folded = parse_folded_lines(text.splitlines())
        if not folded:
            raise ValueError(
                f"{path} is neither JSON nor collapsed-stack format")
        return side_from_folded(str(path), folded, side)
    if not _side_from_json_doc(str(path), doc, side):
        raise ValueError(f"{path} carries no profile data (expected "
                         f"bench/run.py records or a profile/analysis/"
                         f"mc document)")
    return side


def _side_from_dir(path: pathlib.Path) -> dict:
    records = []
    for child in sorted(path.glob("*.jsonl")):
        records.extend(_bench_records(child) or [])
    return _side_from_bench(path, records)


def resolve_side(spec: str) -> dict:
    """Resolve one ``perf diff`` operand: an artifact file or a
    directory of ``bench/run.py`` JSONL files.  Raises ``ValueError``
    with a usage message when nothing profile-bearing resolves."""
    path = pathlib.Path(spec)
    if path.is_file():
        return _side_from_file(path)
    if path.is_dir():
        return _side_from_dir(path)
    raise ValueError(f"{spec}: no such file or directory")


# -- attribution ---------------------------------------------------------------

def attribute(a: dict, b: dict,
              threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Rank the work-counter deltas between two sides (``a`` older,
    ``b`` newer) into the schema-versioned attribution document.
    ``drift`` is True when any region's deterministic work grew past
    ``threshold`` (and :data:`WORK_FLOOR` absolute units) — shrinking
    work is a speedup and never gates.  Rows rank by |Δ units|, then
    by |Δ wall|."""
    rows: list[dict] = []
    names = set(a["counters"]) | set(b["counters"])
    for name in names:
        ca = a["counters"].get(name, {"calls": 0, "work": 0})
        cb = b["counters"].get(name, {"calls": 0, "work": 0})
        units_a = int(ca["calls"]) + int(ca["work"])
        units_b = int(cb["calls"]) + int(cb["work"])
        delta = units_b - units_a
        if units_a > 0:
            rel = delta / units_a
        else:
            rel = 1.0 if units_b else 0.0
        drifted = (delta > WORK_FLOOR and rel > threshold)
        row = {"name": name, "group": group_of(name),
               "units_a": units_a, "units_b": units_b,
               "delta": delta, "delta_pct": round(rel * 100, 1),
               "drift": drifted}
        wall_a = a["wall"].get(name)
        wall_b = b["wall"].get(name)
        if wall_a is not None or wall_b is not None:
            row["wall_a_s"] = round(wall_a or 0.0, 6)
            row["wall_b_s"] = round(wall_b or 0.0, 6)
        rows.append(row)
    rows.sort(key=lambda r: (-abs(r["delta"]),
                             -abs(r.get("wall_b_s", 0.0)
                                  - r.get("wall_a_s", 0.0)),
                             r["name"]))

    groups: dict[str, dict] = {}
    for row in rows:
        grp = groups.setdefault(row["group"],
                                {"units_a": 0, "units_b": 0})
        grp["units_a"] += row["units_a"]
        grp["units_b"] += row["units_b"]
    for grp in groups.values():
        grp["delta"] = grp["units_b"] - grp["units_a"]
        grp["delta_pct"] = round(
            grp["delta"] / grp["units_a"] * 100, 1) \
            if grp["units_a"] else (100.0 if grp["units_b"] else 0.0)

    paths: list[dict] = []
    for path in set(a["folded"]) | set(b["folded"]):
        pa = a["folded"].get(path, 0.0)
        pb = b["folded"].get(path, 0.0)
        if pa or pb:
            paths.append({"path": path,
                          "wall_a_s": round(pa, 6),
                          "wall_b_s": round(pb, 6),
                          "delta_s": round(pb - pa, 6)})
    paths.sort(key=lambda p: (-abs(p["delta_s"]), p["path"]))
    paths = paths[:PATH_LIMIT]

    drifted = [r["name"] for r in rows if r["drift"]]
    return {"v": SCHEMA_VERSION, "kind": "perfdiff",
            "a": a["label"], "b": b["label"],
            "threshold": threshold,
            "drift": bool(drifted), "drifted": drifted,
            "rows": rows, "groups": groups, "paths": paths}


def render_attribution(report: dict, limit: int = 25) -> str:
    """Fixed-width attribution table for ``repro perf diff``."""
    lines = [f"perf diff: {report['a']} -> {report['b']} "
             f"(drift above +{report['threshold'] * 100:.0f}% "
             f"attributed work)"]
    rows = report["rows"]
    if not rows:
        lines.append("(no deterministic work counters on either side"
                     " — nothing to attribute)")
    else:
        shown = rows[:limit]
        width = max(len(r["name"]) for r in shown)
        gwidth = max(len(r["group"]) for r in shown)
        # bench rows carry each layer's self time, profile rows their
        # region wall time
        timed = any("wall_a_s" in r for r in shown)
        lines.append(f"{'region'.ljust(width)}  "
                     f"{'group'.ljust(gwidth)}  "
                     f"{'units A':>10} {'units B':>10} "
                     f"{'delta':>8}"
                     + (f" {'wall A ms':>10} {'wall B ms':>10}"
                        if timed else ""))
        for r in shown:
            flag = "  DRIFT" if r["drift"] else ""
            walls = ""
            if timed:
                walls = "".join(
                    f" {r[key] * 1000:>10.1f}" if key in r
                    else f" {'-':>10}"
                    for key in ("wall_a_s", "wall_b_s"))
            lines.append(
                f"{r['name'].ljust(width)}  "
                f"{r['group'].ljust(gwidth)}  "
                f"{r['units_a']:>10} {r['units_b']:>10} "
                f"{r['delta_pct']:>+7.1f}%{walls}{flag}")
        if len(rows) > limit:
            lines.append(f"... {len(rows) - limit} flat region(s) "
                         f"elided")
    for p in report["paths"][:5]:
        lines.append(f"path {p['path']}: "
                     f"{p['wall_a_s'] * 1000:.2f}ms -> "
                     f"{p['wall_b_s'] * 1000:.2f}ms "
                     f"(informational)")
    if report["drift"]:
        lines.append(f"DRIFT: {len(report['drifted'])} region(s) grew "
                     f"past +{report['threshold'] * 100:.0f}%: "
                     + ", ".join(report["drifted"]))
    else:
        lines.append("no attributed drift")
    return "\n".join(lines)


def diff_specs(spec_a: str, spec_b: str,
               threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Resolve both operands and attribute — the ``repro perf diff``
    engine.  Raises ``ValueError`` on unresolvable operands."""
    return attribute(resolve_side(spec_a), resolve_side(spec_b),
                     threshold=threshold)
