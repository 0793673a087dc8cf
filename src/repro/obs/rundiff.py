"""Cross-run drift diffing over ledger manifests.

``repro runs diff A B`` answers the regression question a conservative
analysis needs answered across commits: did any block's atomicity
class change, were theorem applications (5.3/5.4 windows, …) gained or
lost, did lint findings appear or disappear, did the MC verdict or its
counterexample fingerprint move?  The wall time is reported as an
*informational* delta and never counts as drift — two byte-identical
analyses a week apart must diff empty.

The document shape (``--json``)::

    {"v": 1, "a": <run_id>, "b": <run_id>, "empty": bool,
     "classification": [{"block", "a", "b"}, ...],
     "procedures":     [{"name", "a", "b"}, ...],
     "theorems":       [{"block", "gained", "lost"}, ...],
     "lint":           [{"target", "rule", "a", "b"}, ...],
     "execution":      [{"source", "field", "a", "b"}, ...],
     "experiments":    [{"mode", "field", "a", "b"}, ...],
     "outcome": {...} | null, "exit_code": {...} | null,
     "info": {"wall_s": {"a", "b"}}}

``empty`` is True exactly when every drift category (everything except
``info``) is empty/None.
"""

from __future__ import annotations

from typing import Optional

DIFF_VERSION = 1

#: manifest keys whose dicts are compared field-by-field under the
#: ``execution`` category (fingerprint identity lives here)
_EXECUTION_KEYS = ("mc", "run")

#: execution fields that are always drift when they differ
_EXECUTION_FIELDS = ("mode", "states", "transitions", "violation",
                     "capped", "fingerprint", "seed")


def _map_drift(a: dict, b: dict, key_name: str) -> list[dict]:
    """Generic ``{key: value}`` map comparison, sorted by key."""
    out = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            out.append({key_name: key, "a": va, "b": vb})
    return out


def _theorem_drift(a: dict, b: dict) -> list[dict]:
    out = []
    for block in sorted(set(a) | set(b)):
        ta, tb = set(a.get(block, [])), set(b.get(block, []))
        if ta != tb:
            out.append({"block": block,
                        "gained": sorted(tb - ta),
                        "lost": sorted(ta - tb)})
    return out


def _lint_drift(a: dict, b: dict) -> list[dict]:
    """Per (target, rule) count deltas over the manifests' lint
    summaries (``{"targets": {target: {rule: count}}}``)."""
    ta, tb = a.get("targets", {}), b.get("targets", {})
    out = []
    for target in sorted(set(ta) | set(tb)):
        ra, rb = ta.get(target, {}), tb.get(target, {})
        for rule in sorted(set(ra) | set(rb)):
            na, nb = ra.get(rule, 0), rb.get(rule, 0)
            if na != nb:
                out.append({"target": target, "rule": rule,
                            "a": na, "b": nb})
    return out


def _execution_drift(a: dict, b: dict) -> list[dict]:
    out = []
    for source in _EXECUTION_KEYS:
        ea, eb = a.get(source) or {}, b.get(source) or {}
        if not ea and not eb:
            continue
        for field in _EXECUTION_FIELDS:
            va, vb = ea.get(field), eb.get(field)
            if va != vb:
                out.append({"source": source, "field": field,
                            "a": va, "b": vb})
    return out


#: experiment verdict fields that count as drift (never timings: a
#: parallel --jobs grid must diff empty against a sequential one)
_EXPERIMENT_FIELDS = ("states", "transitions", "violation", "capped")


def _experiments_drift(a: dict, b: dict) -> list[dict]:
    """Per-mode verdict deltas over the manifests' ``experiments``
    notes (``{"name", "verdicts": {mode: {states, ...}}}``).  Only
    compared when both runs recorded the *same* experiment — a grid
    run diffed against an unrelated run is not drift."""
    if not a or not b or a.get("name") != b.get("name"):
        return []
    out = []
    if a.get("matches_paper") != b.get("matches_paper"):
        out.append({"mode": "(grid)", "field": "matches_paper",
                    "a": a.get("matches_paper"),
                    "b": b.get("matches_paper")})
    va, vb = a.get("verdicts") or {}, b.get("verdicts") or {}
    for mode in sorted(set(va) | set(vb)):
        ea, eb = va.get(mode) or {}, vb.get(mode) or {}
        for field in _EXPERIMENT_FIELDS:
            fa, fb = ea.get(field), eb.get(field)
            if fa != fb:
                out.append({"mode": mode, "field": field,
                            "a": fa, "b": fb})
    return out


def diff_manifests(a: dict, b: dict) -> dict:
    """Drift document between two run manifests (see module doc)."""
    ca = a.get("analysis") or {}
    cb = b.get("analysis") or {}
    classification = _map_drift(ca.get("blocks", {}),
                                cb.get("blocks", {}), "block")
    classification += _map_drift(ca.get("variants", {}),
                                 cb.get("variants", {}), "block")
    classification += _map_drift(ca.get("partitions", {}),
                                 cb.get("partitions", {}), "block")
    procedures = _map_drift(ca.get("procedures", {}),
                            cb.get("procedures", {}), "name")
    theorems = _theorem_drift(ca.get("theorems", {}),
                              cb.get("theorems", {}))
    downs_a = ca.get("downgrades") or []
    downs_b = cb.get("downgrades") or []
    if downs_a != downs_b:
        theorems.append({"block": "(downgrades)",
                         "gained": [str(d) for d in downs_b
                                    if d not in downs_a],
                         "lost": [str(d) for d in downs_a
                                  if d not in downs_b]})
    lint = _lint_drift(a.get("lint") or {}, b.get("lint") or {})
    execution = _execution_drift(a, b)
    experiments = _experiments_drift(a.get("experiments") or {},
                                     b.get("experiments") or {})
    outcome: Optional[dict] = None
    if a.get("outcome") != b.get("outcome"):
        outcome = {"a": a.get("outcome"), "b": b.get("outcome")}
    exit_code: Optional[dict] = None
    if a.get("exit_code") != b.get("exit_code"):
        exit_code = {"a": a.get("exit_code"), "b": b.get("exit_code")}
    empty = not (classification or procedures or theorems or lint
                 or execution or experiments or outcome or exit_code)
    return {
        "v": DIFF_VERSION,
        "a": a.get("run_id"),
        "b": b.get("run_id"),
        "commands": [a.get("command"), b.get("command")],
        "classification": classification,
        "procedures": procedures,
        "theorems": theorems,
        "lint": lint,
        "execution": execution,
        "experiments": experiments,
        "outcome": outcome,
        "exit_code": exit_code,
        "info": {
            "wall_s": {"a": a.get("wall_s"), "b": b.get("wall_s")},
        },
        "empty": empty,
    }


def _rows(diff: dict) -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    for entry in diff["classification"]:
        rows.append(("class", f"{entry['block']}: "
                     f"{entry['a']} -> {entry['b']}"))
    for entry in diff["procedures"]:
        rows.append(("verdict", f"{entry['name']}: atomic "
                     f"{entry['a']} -> {entry['b']}"))
    for entry in diff["theorems"]:
        gained = ", ".join(entry["gained"]) or "-"
        lost = ", ".join(entry["lost"]) or "-"
        rows.append(("theorem", f"{entry['block']}: "
                     f"gained [{gained}] lost [{lost}]"))
    for entry in diff["lint"]:
        rows.append(("lint", f"{entry['target']} {entry['rule']}: "
                     f"{entry['a']} -> {entry['b']}"))
    for entry in diff["execution"]:
        rows.append((entry["source"], f"{entry['field']}: "
                     f"{entry['a']} -> {entry['b']}"))
    for entry in diff.get("experiments", []):
        rows.append(("experiment", f"{entry['mode']}.{entry['field']}:"
                     f" {entry['a']} -> {entry['b']}"))
    if diff["outcome"]:
        rows.append(("outcome", f"{diff['outcome']['a']} -> "
                     f"{diff['outcome']['b']}"))
    if diff["exit_code"]:
        rows.append(("exit", f"{diff['exit_code']['a']} -> "
                     f"{diff['exit_code']['b']}"))
    return rows


def render_diff(diff: dict) -> str:
    """Fixed-width drift table (one row per drifted item), with the
    informational wall-time delta as a trailing note."""
    header = f"runs diff {diff['a']} -> {diff['b']}"
    lines = [header]
    rows = _rows(diff)
    if not rows:
        lines.append("no drift (classification, theorems, lint, and "
                     "execution all match)")
    else:
        width = max(len(kind) for kind, _ in rows)
        width = max(width, len("category"))
        lines.append(f"{'category'.ljust(width)} | change")
        lines.append(f"{'-' * width}-+-{'-' * 40}")
        for kind, text in rows:
            lines.append(f"{kind.ljust(width)} | {text}")
    info = diff.get("info", {})
    walls = info.get("wall_s", {})
    if walls.get("a") is not None and walls.get("b") is not None:
        lines.append(f"(info) wall_s {walls['a']:.3f} -> "
                     f"{walls['b']:.3f}")
    return "\n".join(lines)
