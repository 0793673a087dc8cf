"""Differential profiling: attributed perf-regression forensics.

The benchmark (``bench/``) says *that* a workload got slower; this
module says *where the work went*.  It diffs two sides of traced
``bench/run.py`` records — deterministic call counters per layer plus
their self times — and emits a ranked attribution table::

    region               group    units A units B   delta wall A ms wall B ms
    gh-full/mc.canonical gh-full    12000   17000  +41.7%     400.0     610.0
    gh-full/interp.step  gh-full     6400    6210   -3.0%     120.0     118.0

A *side* (:func:`resolve_side`) is a ``bench/run.py --out`` JSONL
file, or a directory of them (every ``*.jsonl``, as
``bench/compare.py`` reads it): each traced record's ``<layer>.calls``
becomes the counter ``<workload>/<layer>`` and ``<layer>.self_s`` its
wall time, both the median over the side's traced records of that
workload.

Drift gating is deliberately counter-based: work counters are
deterministic (two identical seeded runs produce identical counters,
so ``repro perf diff`` between them is empty by construction — the CI
forensics canary), which means any growth past the relative threshold
is real algorithmic work, not scheduler jitter.  Rows rank by
|Δ units|, ties by |Δ wall|; wall times are an informational
column.

``repro perf diff A B`` exits 0 (no attributed drift), 1 (drift), 2
(usage error, or an operand without profile data); ``--json`` emits
the schema-versioned document
(:data:`repro.obs.export.PERFDIFF_SCHEMA`, version
``schemas.PERFDIFF``).
"""

from __future__ import annotations

import pathlib
import statistics

from repro.obs.export import read_jsonl
from repro.obs.schemas import PERFDIFF as SCHEMA_VERSION

#: relative attributed-work growth a region must exceed to gate
DEFAULT_THRESHOLD = 0.25

#: absolute work-unit delta a drifting region must also clear (a
#: 1 -> 2 counter step is +100% and still meaningless)
WORK_FLOOR = 16


def group_of(name: str) -> str:
    """Attribution group of a ``<workload>/<layer>`` row: its
    workload."""
    return name.partition("/")[0]


# -- side construction ---------------------------------------------------------

def side_from_records(label: str, records: list) -> dict:
    """A side from ``bench/run.py`` records.  Untraced records carry
    no layers and are skipped; per workload, each layer's ``.calls``
    and ``.self_s`` are the medians over its traced records (repeats
    of one workload must not add up).  ``counters`` maps each
    ``<workload>/<layer>`` row to its calls, ``wall`` to its self
    time."""
    side: dict = {"label": label, "counters": {}, "wall": {}}
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
        side["counters"][name] = \
            int(statistics.median(calls)) if calls else 0
        if self_s:
            side["wall"][name] = float(statistics.median(self_s))
    return side


def _is_bench_run(records: list) -> bool:
    """Are these the records of a ``bench/run.py --out`` file?"""
    return bool(records) and all(
        "workload" in r and isinstance(r.get("metrics"), dict)
        for r in records)


def _side_from_bench(path: pathlib.Path, records: list) -> dict:
    side = side_from_records(str(path), records)
    if not side["counters"]:
        raise ValueError(f"{path} has no profile data: no traced "
                         f"records (run bench/run.py --traced)")
    return side


def _side_from_file(path: pathlib.Path) -> dict:
    records = read_jsonl(path)
    if not _is_bench_run(records):
        raise ValueError(f"{path} has no profile data: not "
                         f"bench/run.py records")
    return _side_from_bench(path, records)


def _side_from_dir(path: pathlib.Path) -> dict:
    records = []
    for child in sorted(path.glob("*.jsonl")):
        try:
            found = read_jsonl(child)
        except ValueError:
            continue        # not a record file: skip, as compare.py
        if _is_bench_run(found):
            records.extend(found)
    return _side_from_bench(path, records)


def resolve_side(spec: str) -> dict:
    """Resolve one ``perf diff`` operand: a ``bench/run.py`` JSONL
    file or a directory of them.  Raises ``ValueError`` with a usage
    message when nothing profile-bearing resolves."""
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
        units_a = a["counters"].get(name, 0)
        units_b = b["counters"].get(name, 0)
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

    drifted = [r["name"] for r in rows if r["drift"]]
    return {"v": SCHEMA_VERSION, "kind": "perfdiff",
            "a": a["label"], "b": b["label"],
            "threshold": threshold,
            "drift": bool(drifted), "drifted": drifted,
            "rows": rows, "groups": groups}


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
        # bench rows carry each layer's self time
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
