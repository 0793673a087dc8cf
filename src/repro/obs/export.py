"""JSON serialization + schema validation for analysis/MC results.

Schemas are expressed in a small JSON-Schema subset (``type``,
``required``, ``properties``, ``items``, ``enum``; ``type`` may be a
list to express nullability) and checked by :func:`validate` — a
zero-dependency stand-in for ``jsonschema`` so CI and tests can
assert well-formedness without installing anything.

The analysis serializer reaches back into :mod:`repro.analysis.report`
and is imported lazily to keep ``repro.obs`` free of import cycles.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

#: throughput rates computed over windows at or below this are
#: noise-dominated (timer resolution + interpreter jitter swamp the
#: signal on sub-millisecond runs) and are reported as 0.0
MIN_RATE_WINDOW_S = 0.001

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, name: str) -> bool:
    if name == "number":
        return isinstance(value, (int, float)) \
            and not isinstance(value, bool)
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def validate(obj, schema: dict, path: str = "$") -> list[str]:
    """Check ``obj`` against the schema subset; return error strings
    (empty list = valid)."""
    errors: list[str] = []
    expected = schema.get("type")
    if expected is not None:
        names = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(obj, n) for n in names):
            errors.append(
                f"{path}: expected {'/'.join(names)}, "
                f"got {type(obj).__name__}")
            return errors
    if "enum" in schema and obj not in schema["enum"]:
        errors.append(f"{path}: {obj!r} not in {schema['enum']}")
    if isinstance(obj, dict):
        for key in schema.get("required", []):
            if key not in obj:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                errors.extend(validate(obj[key], sub, f"{path}.{key}"))
    if isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]"))
    return errors


# -- schemas -------------------------------------------------------------------

JUSTIFICATION_SCHEMA = {
    "type": "object",
    "required": ["step", "rule"],
    "properties": {
        "step": {"type": "string"},
        "rule": {"type": "string"},
        "mover": {"type": "string"},
        "theorem": {"type": "string"},
        "detail": {"type": "string"},
        "counts": {"type": "object"},
    },
}

LINE_SCHEMA = {
    "type": "object",
    "required": ["label", "text", "atomicity"],
    "properties": {
        "label": {"type": "string"},
        "text": {"type": "string"},
        "atomicity": {"type": "string"},
        "provenance": {"type": "array", "items": JUSTIFICATION_SCHEMA},
    },
}

ANALYSIS_SCHEMA = {
    "type": "object",
    "required": ["procedures", "all_atomic", "diagnostics"],
    "properties": {
        "procedures": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "atomic", "variants"],
                "properties": {
                    "name": {"type": "string"},
                    "atomic": {"type": "boolean"},
                    "variants": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["name", "body_atomicity",
                                         "lines"],
                            "properties": {
                                "name": {"type": "string"},
                                "body_atomicity": {"type": "string"},
                                "read_only": {"type": "boolean"},
                                "lines": {"type": "array",
                                          "items": LINE_SCHEMA},
                            },
                        },
                    },
                },
            },
        },
        "all_atomic": {"type": "boolean"},
        "diagnostics": {"type": "array", "items": {"type": "string"}},
        "options": {"type": "object"},
        "metrics": {"type": "object"},
        "trace": {"type": "array"},
        # "lint" / "downgrades" are tightened to LINT_SCHEMA /
        # DOWNGRADE_SCHEMA below, after those schemas are defined
        "lint": {"type": "object"},
        "downgrades": {"type": "array"},
    },
}

LINT_FINDING_SCHEMA = {
    "type": "object",
    "required": ["rule", "severity", "message", "line", "col"],
    "properties": {
        "rule": {"type": "string"},
        "severity": {"type": "string",
                     "enum": ["error", "warning", "info"]},
        "message": {"type": "string"},
        "proc": {"type": "string"},
        "line": {"type": "integer"},
        "col": {"type": "integer"},
        "end_line": {"type": "integer"},
        "end_col": {"type": "integer"},
        "fix": {"type": "string"},
        "region": {"type": "string"},
    },
}

#: versioned shape of ``LintResult.to_dict()`` (one linted target)
LINT_SCHEMA = {
    "type": "object",
    "required": ["v", "target", "findings", "summary"],
    "properties": {
        "v": {"type": "integer"},
        "target": {"type": "string"},
        "findings": {"type": "array", "items": LINT_FINDING_SCHEMA},
        "summary": {
            "type": "object",
            "required": ["errors", "warnings", "infos", "suppressed"],
            "properties": {
                "errors": {"type": "integer"},
                "warnings": {"type": "integer"},
                "infos": {"type": "integer"},
                "suppressed": {"type": "integer"},
            },
        },
    },
}

#: ``repro lint --json`` output: a run over one or more targets
LINT_REPORT_SCHEMA = {
    "type": "object",
    "required": ["v", "targets"],
    "properties": {
        "v": {"type": "integer"},
        "targets": {"type": "array", "items": LINT_SCHEMA},
    },
}

HOTSPOT_SCHEMA = {
    "type": "object",
    "required": ["name", "calls", "work", "wall_s"],
    "properties": {
        "name": {"type": "string"},
        "calls": {"type": "integer"},
        "work": {"type": "number"},
        "wall_s": {"type": "number"},
        "share": {"type": "number"},
    },
}

#: shape of ``Profiler.to_dict()`` — the ranked hotspot table embedded
#: in every obs command's JSON under ``"profile"`` when ``--profile``
#: is on
PROFILE_SCHEMA = {
    "type": "object",
    "required": ["v", "hotspots"],
    "properties": {
        "v": {"type": "integer"},
        "hotspots": {"type": "array", "items": HOTSPOT_SCHEMA},
        # collapsed-stack view: {"outer;inner": wall_s} per region
        # nesting path, frames escaped (profile.escape_frame)
        "folded": {"type": "object"},
    },
}

ANALYSIS_SCHEMA["properties"]["profile"] = PROFILE_SCHEMA

#: shared invocation-metadata block embedded in analysis/MC documents
#: so every artifact says what produced it
RUN_META_SCHEMA = {
    "type": "object",
    "required": ["argv", "schema_versions"],
    "properties": {
        "argv": {"type": "array", "items": {"type": "string"}},
        "schema_versions": {"type": "object"},
    },
}

ANALYSIS_SCHEMA["properties"]["run_meta"] = RUN_META_SCHEMA

DOWNGRADE_SCHEMA = {
    "type": "object",
    "required": ["theorem", "region", "rules", "detail"],
    "properties": {
        "theorem": {"type": "string"},
        "region": {"type": "string"},
        "rules": {"type": "array", "items": {"type": "string"}},
        "detail": {"type": "string"},
    },
}

ANALYSIS_SCHEMA["properties"]["lint"] = LINT_SCHEMA
ANALYSIS_SCHEMA["properties"]["downgrades"] = {
    "type": "array", "items": DOWNGRADE_SCHEMA}

PATH_STEP_SCHEMA = {
    "type": "object",
    "required": ["tid", "desc", "kind"],
    "properties": {
        "tid": {"type": "integer"},
        "uid": {"type": ["integer", "null"]},
        "desc": {"type": "string"},
        "kind": {"type": "string",
                 "enum": ["init", "invoke", "stmt", "return", "atomic"]},
        "via": {"type": ["string", "null"]},
        "proc": {"type": ["string", "null"]},
    },
}

HEATMAP_ROW_SCHEMA = {
    "type": "object",
    "required": ["uid", "visits", "switches", "threads"],
    "properties": {
        "uid": {"type": "integer"},
        "proc": {"type": ["string", "null"]},
        "text": {"type": ["string", "null"]},
        "mover": {"type": ["string", "null"]},
        "visits": {"type": "integer"},
        "switches": {"type": "integer"},
        "threads": {"type": "integer"},
    },
}

#: per-statement source heatmap attached to mc --json documents
#: (visits × interleaving switches × mover class per CFG statement)
HEATMAP_SCHEMA = {
    "type": "object",
    "required": ["v", "annotated", "total_visits", "rows"],
    "properties": {
        "v": {"type": "integer"},
        "annotated": {"type": "boolean"},
        "total_visits": {"type": "integer"},
        "rows": {"type": "array", "items": HEATMAP_ROW_SCHEMA},
    },
}

MC_SCHEMA = {
    "type": "object",
    "required": ["mode", "states", "transitions", "elapsed_s",
                 "states_per_s", "capped"],
    "properties": {
        "mode": {"type": "string",
                 "enum": ["full", "por", "atomic", "both"]},
        "states": {"type": "integer"},
        "transitions": {"type": "integer"},
        "elapsed_s": {"type": "number"},
        "states_per_s": {"type": "number"},
        "violation": {"type": ["string", "null"]},
        "capped": {"type": "boolean"},
        "deadline_hit": {"type": "boolean"},
        "trace": {"type": "array", "items": {"type": "string"}},
        "path": {"type": "array", "items": PATH_STEP_SCHEMA},
        "metrics": {"type": "object"},
        "counterexample": {"type": "object"},
        "heatmap": HEATMAP_SCHEMA,
        "profile": PROFILE_SCHEMA,
        "run_meta": RUN_META_SCHEMA,
    },
}

CEX_STEP_SCHEMA = {
    "type": "object",
    "required": ["seq", "tid", "kind", "desc", "text", "mover",
                 "citation", "theorems"],
    "properties": {
        "seq": {"type": "integer"},
        "tid": {"type": "integer"},
        "kind": {"type": "string",
                 "enum": ["invoke", "stmt", "return", "atomic"]},
        "desc": {"type": "string"},
        "text": {"type": "string"},
        "proc": {"type": ["string", "null"]},
        "variant": {"type": ["string", "null"]},
        "mover": {"type": "string"},
        "citation": {"type": "string"},
        "theorems": {"type": "array", "items": {"type": "string"}},
        "provenance": {"type": "array", "items": JUSTIFICATION_SCHEMA},
    },
}

CEX_SCHEMA = {
    "type": "object",
    "required": ["v", "violation", "mode", "annotated", "steps"],
    "properties": {
        "v": {"type": "integer"},
        "violation": {"type": "string"},
        "mode": {"type": "string"},
        "annotated": {"type": "boolean"},
        "steps": {"type": "array", "items": CEX_STEP_SCHEMA},
        "downgrades": {"type": "array", "items": DOWNGRADE_SCHEMA},
    },
}

#: one ranked row of a differential-profiling attribution table
PERFDIFF_ROW_SCHEMA = {
    "type": "object",
    "required": ["name", "group", "units_a", "units_b", "delta",
                 "delta_pct", "drift"],
    "properties": {
        "name": {"type": "string"},
        "group": {"type": "string"},
        "units_a": {"type": "integer"},
        "units_b": {"type": "integer"},
        "delta": {"type": "integer"},
        "delta_pct": {"type": "number"},
        "drift": {"type": "boolean"},
        "wall_a_s": {"type": "number"},
        "wall_b_s": {"type": "number"},
    },
}

#: ``repro perf diff --json`` / ``PERFDIFF_attribution.json``: the
#: attributed regression document (:mod:`repro.obs.perfdiff`)
PERFDIFF_SCHEMA = {
    "type": "object",
    "required": ["v", "kind", "a", "b", "threshold", "drift", "rows"],
    "properties": {
        "v": {"type": "integer"},
        "kind": {"enum": ["perfdiff"]},
        "a": {"type": "string"},
        "b": {"type": "string"},
        "threshold": {"type": "number"},
        "drift": {"type": "boolean"},
        "drifted": {"type": "array", "items": {"type": "string"}},
        "rows": {"type": "array", "items": PERFDIFF_ROW_SCHEMA},
        "groups": {"type": "object"},
    },
}


# -- JSONL reader --------------------------------------------------------------

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


# -- serializers ---------------------------------------------------------------

def run_meta() -> dict:
    """The shared ``run_meta`` block: the process's argv and the
    schema versions, so every exported artifact says what produced
    it."""
    import sys

    from repro.obs import schemas

    return {"argv": [str(a) for a in sys.argv[1:]],
            "schema_versions": schemas.registry()}


def mc_to_dict(result) -> dict:
    """Serialize an :class:`~repro.mc.explorer.MCResult`."""
    out = {
        "mode": result.mode,
        "states": result.states,
        "transitions": result.transitions,
        "elapsed_s": round(result.elapsed, 6),
        "states_per_s": round(result.states_per_s, 3),
        "violation": result.violation,
        "capped": result.capped,
        "deadline_hit": result.deadline_hit,
        "trace": list(result.trace),
        "metrics": dict(result.metrics),
    }
    if result.path:
        out["path"] = [dict(step) for step in result.path]
    if result.profile:
        out["profile"] = dict(result.profile)
    out["run_meta"] = run_meta()
    return out


def analysis_to_dict(result, include_provenance: bool = True) -> dict:
    """Serialize an :class:`~repro.analysis.inference.AnalysisResult`
    with per-line verdicts and provenance chains."""
    import string

    from repro.analysis.report import line_provenance, variant_lines

    prefixes = iter(string.ascii_lowercase)
    procedures = []
    for name, verdict in result.verdicts.items():
        variants = []
        for report in verdict.variants:
            prefix = next(prefixes, "z")
            lines = []
            for line in variant_lines(report, prefix):
                entry: dict = {
                    "label": line.label,
                    "text": line.text,
                    "atomicity": str(line.atomicity),
                }
                if include_provenance:
                    entry["provenance"] = [
                        j.to_dict()
                        for j in line_provenance(report, line)]
                lines.append(entry)
            variants.append({
                "name": report.variant.name,
                "body_atomicity": str(report.body_atomicity),
                "read_only": report.read_only,
                "lines": lines,
            })
        procedures.append({"name": name, "atomic": verdict.atomic,
                           "variants": variants})
    out: dict = {
        "procedures": procedures,
        "all_atomic": result.all_atomic,
        "diagnostics": list(result.diagnostics),
        "options": {k: bool(v)
                    for k, v in vars(result.options).items()},
    }
    if getattr(result, "metrics", None):
        out["metrics"] = dict(result.metrics)
    if getattr(result, "trace", None):
        out["trace"] = list(result.trace)
    lint = getattr(result, "lint", None)
    if lint is not None:
        out["lint"] = lint.to_dict()
    downgrades = getattr(result, "downgrades", None)
    if downgrades:
        out["downgrades"] = [dict(d) for d in downgrades]
    profile = getattr(result, "profile", None)
    if profile:
        out["profile"] = dict(profile)
    out["run_meta"] = run_meta()
    return out
