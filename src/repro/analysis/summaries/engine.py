"""The incremental resolution phase over the §5.4 pipeline.

``analyze_with_summaries`` front-ends
:func:`repro.analysis.inference.analyze_program` with a three-step
summary resolution:

1. **hash** — parse + resolve the *pre-inline* program, compute the
   per-procedure dependency digests and the whole-program key
   (:mod:`repro.analysis.summaries.canon`);
2. **resolve** — look the keys up in the
   :class:`~repro.analysis.summaries.store.SummaryStore`; a full hit
   (program record + every procedure record) replays the stored
   verdicts into a :class:`CachedAnalysisResult` without running any
   pass;
3. **miss** — run the passes once for the whole program (the
   classification steps are whole-program, so one stale procedure
   costs one full run), refresh every record, and — for the
   procedures that *were* hits — diff their stored slices against the
   fresh ones.  Any disagreement is reported as **drift**: the cache
   returned (or would have returned) a verdict a fresh run
   contradicts, which is the soundness canary `repro analyze
   --corpus` and `repro summaries verify` alarm on.

Cache traffic is observable: ``summary.*`` profiler regions
(hash/resolve/replay/emit) and the hit / miss / invalidation counts
:func:`summary_counts` derives from the per-target rows
(``--metrics``).  A drift is reported as a document of
:func:`drift_doc` (classification, verdict and theorem changes between
two analysis documents), rendered by :func:`render_drift`.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analysis.inference import (
    AtomicityChecker,
    InferenceOptions,
)
from repro.analysis.report import render_figure
from repro.analysis.summaries import canon
from repro.analysis.summaries.store import SummaryStore
from repro.obs.profile import NULL_PROFILER
from repro.synl.inline import inline_calls
from repro.synl.parser import parse_program
from repro.synl.resolve import resolve

#: default store location (override with --summary-store / REPRO_SUMMARIES)
DEFAULT_STORE_DIR = ".repro/summaries"

#: env var enabling incremental mode and naming the store directory
ENV_VAR = "REPRO_SUMMARIES"

#: doc fields excluded from stored records and from hit-vs-fresh
#: comparison: they vary run to run without the verdict changing
VOLATILE_KEYS = ("run_meta", "cached")

#: doc fields compared when deciding drift (verdicts, provenance,
#: lint findings — not timings or counter noise)
COMPARE_KEYS = ("procedures", "all_atomic", "diagnostics", "options",
                "lint", "downgrades")


def resolve_store(store_dir: str | None = None,
                  incremental: bool = False) -> SummaryStore | None:
    """The store for this invocation: an explicit directory wins, then
    ``$REPRO_SUMMARIES``, then (with ``incremental``) the default
    location; plain runs get ``None``."""
    directory = store_dir or os.environ.get(ENV_VAR)
    if directory is None and not incremental:
        return None
    return SummaryStore(directory or DEFAULT_STORE_DIR)


def stable_doc(doc: dict) -> dict:
    """``doc`` minus the volatile fields — the storable projection."""
    return {k: v for k, v in doc.items() if k not in VOLATILE_KEYS}


def compare_doc(doc: dict) -> dict:
    """The drift-comparison projection of an analysis doc."""
    return {k: doc.get(k) for k in COMPARE_KEYS}


def proc_slices(doc: dict) -> dict[str, dict]:
    """Per-procedure summary slices of an analysis doc.

    The slice must be invariant under exactly the edits the proc key
    (:func:`repro.analysis.summaries.canon.dependency_digests`) is
    invariant under — otherwise a legitimate hit diffs against the
    fresh recompute and raises a false drift alarm.  The key
    canonicalizes local/param names away, so every name-bearing field
    is projected out: variant line ``text`` and provenance ``detail``
    (pretty-printed, with actual local names), and lint ``message`` /
    ``fix`` / ``region`` strings (rendered via ``pretty_target`` /
    ``region_label``, which can name locals).  What remains is the
    verdict substance: line labels (re-lettered to a per-procedure
    alphabet so the slice does not depend on where the procedure sits
    in the program-wide prefix sequence), atomicity letters, the
    provenance chain's rule/theorem/mover structure, and the lint
    rule/severity set.  Source positions are dropped for the same
    reason — the key is position-independent, so the slice must be
    too."""
    lint_kept = ("rule", "severity", "proc")
    lint_findings = [
        {k: f.get(k) for k in lint_kept}
        for f in (doc.get("lint") or {}).get("findings", [])]
    slices: dict[str, dict] = {}
    for entry in doc.get("procedures", []):
        variants = []
        for index, variant in enumerate(entry.get("variants", [])):
            variant = dict(variant)
            lines = []
            for line in canon.reletter_variant(
                    variant.get("lines", []), index):
                line = {k: v for k, v in line.items() if k != "text"}
                if "provenance" in line:
                    line["provenance"] = [
                        {k: v for k, v in j.items() if k != "detail"}
                        for j in line["provenance"]]
                lines.append(line)
            variant["lines"] = lines
            variants.append(variant)
        slices[entry["name"]] = {
            "atomic": bool(entry.get("atomic")),
            "variants": variants,
            "lint": [f for f in lint_findings
                     if f.get("proc") == entry["name"]],
        }
    return slices


class CachedAnalysisResult:
    """An :class:`~repro.analysis.inference.AnalysisResult` look-alike
    replayed from a stored program record.  Exposes the attributes the
    CLI and exporters touch; ``to_dict()`` returns the stored
    document (provenance chains intact) plus a fresh ``run_meta`` and
    ``cached: true``, in the key order of a fresh analysis."""

    cached = True

    class _Verdict:
        __slots__ = ("atomic",)

        def __init__(self, atomic: bool):
            self.atomic = atomic

    class _Finding:
        __slots__ = ("_text",)

        def __init__(self, text: str):
            self._text = text

        def render(self) -> str:
            return self._text

    class _Lint:
        def __init__(self, doc: dict, rendered: list[str]):
            self._doc = doc
            self.findings = [CachedAnalysisResult._Finding(t)
                             for t in rendered]

        def to_dict(self) -> dict:
            return self._doc

    def __init__(self, record: dict, options: InferenceOptions):
        self.record = record
        self.options = options
        self._doc = dict(record["doc"])
        self.verdicts = {
            p["name"]: self._Verdict(bool(p.get("atomic")))
            for p in self._doc.get("procedures", [])}
        self.diagnostics = list(self._doc.get("diagnostics", []))
        self.downgrades = [dict(d)
                           for d in self._doc.get("downgrades", [])]
        self.metrics = dict(self._doc.get("metrics", {}))
        lint_doc = self._doc.get("lint")
        self.lint = (self._Lint(lint_doc,
                                record.get("lint_rendered", []))
                     if lint_doc is not None else None)

    @property
    def all_atomic(self) -> bool:
        return bool(self._doc.get("all_atomic"))

    def atomic_procedures(self) -> list[str]:
        return [name for name, v in self.verdicts.items() if v.atomic]

    def is_atomic(self, name: str) -> bool:
        return self.verdicts[name].atomic

    def figure(self, explain: bool = False) -> str:
        key = "figure_explain" if explain else "figure"
        return self.record.get(key, "")

    def to_dict(self, include_provenance: bool = True) -> dict:
        from repro.obs.export import ANALYSIS_KEYS, run_meta

        # the store sorts the keys; a miss prints them as
        # analysis_to_dict writes them
        doc = {k: self._doc[k] for k in ANALYSIS_KEYS if k in self._doc}
        if not include_provenance:
            procedures = []
            for proc in doc.get("procedures", []):
                proc = dict(proc)
                variants = []
                for variant in proc.get("variants", []):
                    variant = dict(variant)
                    variant["lines"] = [
                        {k: v for k, v in line.items()
                         if k != "provenance"}
                        for line in variant.get("lines", [])]
                    variants.append(variant)
                proc["variants"] = variants
                procedures.append(proc)
            doc["procedures"] = procedures
        doc["run_meta"] = run_meta()
        doc["cached"] = True
        return doc


def _drift_entry(label: str, name: str, stored: dict,
                 fresh: dict) -> dict:
    """A drift record for one procedure, with the drift document
    comparing the stored slice against the fresh one."""
    return {"program": label, "proc": name,
            "diff": drift_doc(
                f"{label}:{name}@cached",
                {"procedures": [{"name": name, **stored}]},
                f"{label}:{name}@fresh",
                {"procedures": [{"name": name, **fresh}]})}


def analyze_with_summaries(source: str,
                           options: InferenceOptions | None = None,
                           *,
                           store: SummaryStore,
                           label: str = "<program>",
                           profiler=None, known_names=None):
    """Analyze ``source`` through the summary cache.

    Returns ``(result, info)`` where ``result`` is either a fresh
    :class:`~repro.analysis.inference.AnalysisResult` or a
    :class:`CachedAnalysisResult`, and ``info`` describes the cache
    traffic: ``{"cached", "hits", "misses", "invalidated", "drift",
    "program_key", "proc_keys"}``.

    ``known_names`` overrides the set of procedure names considered
    *previously summarized* when classifying a miss as an
    invalidation.  :func:`analyze_corpus` snapshots the store once and
    passes that baseline to every target, so the invalidation counts
    don't depend on which *other* corpus targets happened to write
    colliding procedure names first — the property that keeps a
    parallel (``--jobs``) corpus pass byte-identical to a sequential
    one.  ``None`` (the default, used by single-program callers) reads
    the store at call time."""
    options = options or InferenceOptions()
    prof = profiler or NULL_PROFILER

    with prof.region("summary.hash"):
        pre = parse_program(source)
        resolve(pre)
        proc_keys = canon.dependency_digests(pre, options, source)
        program_key = canon.program_key(source, options)
        prof.add("summary.hash", len(pre.procs))

    with prof.region("summary.resolve"):
        program_record = store.get("program", program_key)
        proc_records = {name: store.get("proc", key)
                        for name, key in proc_keys.items()}
        prof.add("summary.resolve", len(proc_keys))

    hits = sorted(n for n, r in proc_records.items() if r is not None)
    misses = sorted(n for n in proc_keys if proc_records[n] is None)
    if known_names is not None:
        known = known_names
    else:
        known = store.known_proc_names() if misses else set()
    invalidated = sorted(n for n in misses if n in known)
    full_hit = program_record is not None and not misses

    info: dict = {
        "label": label,
        "cached": full_hit,
        "program_key": program_key,
        "proc_keys": dict(proc_keys),
        "hits": hits,
        "misses": misses,
        "invalidated": invalidated,
        "drift": [],
    }

    if full_hit:
        with prof.region("summary.replay"):
            result = CachedAnalysisResult(program_record, options)
            prof.add("summary.replay", len(proc_keys))
        return result, info

    # Miss path: one whole-program run (mirrors the CLI's load path —
    # procedure calls are inlined before analysis).
    program = inline_calls(parse_program(source))
    resolve(program)
    result = AtomicityChecker(program, options, profiler=profiler,
                              source_text=source).run()

    with prof.region("summary.emit"):
        doc = result.to_dict(include_provenance=True)
        stored = stable_doc(doc)
        fresh_slices = proc_slices(stored)
        for name in hits:
            stored_slice = proc_records[name].get("slice") or {}
            fresh_slice = fresh_slices.get(name)
            if fresh_slice is not None \
                    and _roundtrip(stored_slice) != _roundtrip(
                        fresh_slice):
                info["drift"].append(_drift_entry(
                    label, name, stored_slice, fresh_slice))
        for name, key in proc_keys.items():
            if name not in fresh_slices:
                continue
            store.put("proc", key, name, {
                "label": label,
                "proc": name,
                "program_key": program_key,
                "slice": fresh_slices[name],
            })
        lint = getattr(result, "lint", None)
        store.put("program", program_key, label, {
            "label": label,
            "source": source,
            "options": {k: bool(v)
                        for k, v in vars(options).items()},
            "proc_keys": dict(proc_keys),
            "doc": stored,
            "figure": render_figure(result),
            "figure_explain": render_figure(result, explain=True),
            "lint_rendered": ([f.render() for f in lint.findings]
                              if lint is not None else []),
        })
        prof.add("summary.emit", len(proc_keys))
    return result, info


def _roundtrip(obj):
    """JSON round-trip so stored (loaded) and fresh (in-memory) slices
    compare on value, not container type."""
    import json

    return json.loads(json.dumps(obj, sort_keys=True))


def summary_row(result, info: dict) -> dict:
    """One target's cache traffic as a flat row: ``{label, atomic,
    procs, hits, misses, invalidated, cached, drift}`` — the
    ``analyze --corpus`` table row, built from
    :func:`analyze_with_summaries`'s ``(result, info)``."""
    return {
        "label": info["label"],
        "atomic": bool(result.all_atomic),
        "procs": len(info["proc_keys"]),
        "hits": len(info["hits"]),
        "misses": len(info["misses"]),
        "invalidated": len(info["invalidated"]),
        "cached": info["cached"],
        "drift": len(info["drift"]),
    }


def summary_counts(rows) -> dict[str, int]:
    """The ``summary.*`` counters over :func:`summary_row` rows, keys
    sorted: procedure hits / misses / invalidations, program hits /
    misses, and drift entries."""
    counts = {"summary.drift": 0, "summary.procs.hit": 0,
              "summary.procs.invalidated": 0, "summary.procs.miss": 0,
              "summary.programs.hit": 0, "summary.programs.miss": 0}
    for row in rows:
        counts["summary.procs.hit"] += row["hits"]
        counts["summary.procs.miss"] += row["misses"]
        counts["summary.procs.invalidated"] += row["invalidated"]
        counts["summary.programs.hit" if row["cached"]
               else "summary.programs.miss"] += 1
        counts["summary.drift"] += row["drift"]
    return counts


# -- batch front-end -----------------------------------------------------------

def corpus_targets(examples_dir: str | Path | None = "examples/synl",
                   ) -> list[tuple[str, str]]:
    """Every corpus program plus the example ``.synl`` files (when the
    directory exists): ``[(label, source_text), ...]``."""
    import repro.corpus as corpus

    targets: list[tuple[str, str]] = []
    for name in sorted(corpus.__all__):
        source = getattr(corpus, name, None)
        if isinstance(source, str):
            targets.append((f"corpus/{name.lower()}", source))
    if examples_dir is not None:
        directory = Path(examples_dir)
        if directory.is_dir():
            for path in sorted(directory.glob("*.synl")):
                targets.append((f"examples/{path.stem}",
                                path.read_text(encoding="utf-8")))
    return targets


def _analyze_one(store: SummaryStore,
                 options: InferenceOptions | None,
                 label: str, source: str, *,
                 profiler=None, known_names=None) -> dict:
    """One corpus target through the store; returns a self-contained
    ``{"label", "row", "doc", "drift"}`` (or ``{"label", "error"}``)
    cell — JSON-able, so a ``--jobs`` worker can return it."""
    from repro.errors import ReproError

    try:
        result, info = analyze_with_summaries(
            source, options, store=store, label=label,
            profiler=profiler, known_names=known_names)
    except ReproError as exc:
        return {"label": label, "error": str(exc)}
    doc = result.to_dict(include_provenance=True)
    return {
        "label": label,
        "doc": stable_doc(doc),
        "drift": info["drift"],
        "row": summary_row(result, info),
    }


def _assemble_corpus_report(cells: list[dict], stats: dict) -> dict:
    """Fold per-target cells (already in target order) into the
    corpus report shape — shared by the sequential and parallel paths so
    their output is byte-identical."""
    rows: list[dict] = []
    drift: list[dict] = []
    errors: list[dict] = []
    docs: dict[str, dict] = {}
    for cell in cells:
        if "error" in cell:
            errors.append({"label": cell["label"],
                           "error": cell["error"]})
            continue
        docs[cell["label"]] = cell["doc"]
        rows.append(cell["row"])
        drift.extend(cell["drift"])
    return {"rows": rows, "drift": drift, "errors": errors,
            "docs": docs, "stats": stats}


def analyze_corpus(store: SummaryStore,
                   options: InferenceOptions | None = None,
                   *,
                   targets: list[tuple[str, str]] | None = None,
                   profiler=None, jobs: int = 1) -> dict:
    """Analyze every target through one shared store.

    Returns ``{"rows", "drift", "errors", "docs", "stats"}`` where each
    row is ``{label, atomic, procs, hits, misses, invalidated, cached,
    drift}`` and ``docs`` maps label to the stable (volatile-free)
    analysis doc — the corpus canary compares these across passes.

    With ``jobs > 1`` the targets are fanned across forked workers
    via :func:`repro.parallel.fork_map`: each worker writes to the
    same on-disk store (record writes are tmp-file + ``os.replace``
    atomic, so concurrent workers cannot tear each other's records)
    and returns its per-target cells, which come back in the original
    target order, so the report — rows, docs, drift, errors — is
    **byte-identical** to a sequential run.  Workers return values,
    not telemetry: ``profiler`` needs ``jobs == 1``."""
    from repro.parallel import fork_map

    if jobs > 1 and profiler is not None and profiler.enabled:
        raise ValueError("analyze_corpus records a profile only "
                         "in-process (jobs=1)")
    resolved = list(targets if targets is not None
                    else corpus_targets())
    # Snapshot the invalidation baseline once: every target classifies
    # misses against the store as it stood *before* this pass, so the
    # counts don't depend on target order (or on which worker raced a
    # colliding name in first).
    known_names = frozenset(store.known_proc_names())

    def one(target: tuple[str, str]) -> dict:
        label, source = target
        return _analyze_one(store, options, label, source,
                            profiler=profiler, known_names=known_names)

    cells = fork_map(one, resolved, max(1, jobs))
    return _assemble_corpus_report(cells, store.stats())


# -- soundness canaries --------------------------------------------------------

def _verdict_word(doc: dict) -> str:
    return "all-atomic" if doc.get("all_atomic") else "non-atomic"


# -- drift documents -----------------------------------------------------------

#: ``v`` of the :func:`drift_doc` document
DRIFT_VERSION = 1


def _classification_summary(doc: dict) -> dict:
    """Distill an ``analysis_to_dict`` document into the comparable
    per-block summary: atomicity class and theorem citations per line,
    body atomicity per variant, atomic verdict per procedure, plus
    downgraded theorem applications."""
    procedures: dict = {}
    variants: dict = {}
    blocks: dict = {}
    theorems: dict = {}
    for proc in doc.get("procedures", []):
        procedures[proc["name"]] = bool(proc.get("atomic"))
        for var in proc.get("variants", []):
            vkey = f"{proc['name']}/{var['name']}"
            variants[vkey] = str(var.get("body_atomicity"))
            for line in var.get("lines", []):
                key = f"{vkey}/{line['label']}"
                blocks[key] = str(line.get("atomicity"))
                cited = sorted({j["theorem"]
                                for j in line.get("provenance", [])
                                if j.get("theorem")})
                if cited:
                    theorems[key] = cited
    out: dict = {"procedures": procedures, "variants": variants,
                 "blocks": blocks, "theorems": theorems}
    downgrades = doc.get("downgrades")
    if downgrades:
        out["downgrades"] = [
            {"theorem": d.get("theorem"), "region": d.get("region"),
             "rules": list(d.get("rules", []))} for d in downgrades]
    return out


def _map_drift(a: dict, b: dict, key_name: str) -> list[dict]:
    """``{key: value}`` map comparison, sorted by key."""
    return [{key_name: key, "a": a.get(key), "b": b.get(key)}
            for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]


def _theorem_drift(a: dict, b: dict) -> list[dict]:
    out = []
    for block in sorted(set(a) | set(b)):
        ta, tb = set(a.get(block, [])), set(b.get(block, []))
        if ta != tb:
            out.append({"block": block,
                        "gained": sorted(tb - ta),
                        "lost": sorted(ta - tb)})
    return out


def drift_doc(label_a: str, doc_a: dict, label_b: str,
              doc_b: dict) -> dict:
    """What changed between two analysis documents: per-block and
    per-variant classes, procedure verdicts, theorem citations (with
    downgrades) and the whole-program verdict.  ``empty`` is True
    exactly when nothing did::

        {"v", "a", "b", "empty", "classification": [{"block", "a", "b"}],
         "procedures": [{"name", "a", "b"}],
         "theorems": [{"block", "gained", "lost"}],
         "outcome": {"a", "b"} | null}
    """
    ca = _classification_summary(doc_a)
    cb = _classification_summary(doc_b)
    classification = (_map_drift(ca["blocks"], cb["blocks"], "block")
                      + _map_drift(ca["variants"], cb["variants"],
                                   "block"))
    procedures = _map_drift(ca["procedures"], cb["procedures"], "name")
    theorems = _theorem_drift(ca["theorems"], cb["theorems"])
    downs_a = ca.get("downgrades") or []
    downs_b = cb.get("downgrades") or []
    if downs_a != downs_b:
        theorems.append({"block": "(downgrades)",
                         "gained": [str(d) for d in downs_b
                                    if d not in downs_a],
                         "lost": [str(d) for d in downs_a
                                  if d not in downs_b]})
    # the verdict rides along so a drift is never empty when only the
    # top-level flag changed
    outcome = None
    if _verdict_word(doc_a) != _verdict_word(doc_b):
        outcome = {"a": _verdict_word(doc_a), "b": _verdict_word(doc_b)}
    return {"v": DRIFT_VERSION, "a": label_a, "b": label_b,
            "classification": classification, "procedures": procedures,
            "theorems": theorems, "outcome": outcome,
            "empty": not (classification or procedures or theorems
                          or outcome)}


def render_drift(diff: dict) -> str:
    """Fixed-width drift table, one row per drifted item."""
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
    if diff["outcome"]:
        rows.append(("outcome", f"{diff['outcome']['a']} -> "
                     f"{diff['outcome']['b']}"))
    lines = [f"drift {diff['a']} -> {diff['b']}"]
    if not rows:
        lines.append("no drift (classification, verdicts and theorems "
                     "all match)")
        return "\n".join(lines)
    width = max(len("category"), *(len(kind) for kind, _ in rows))
    lines.append(f"{'category'.ljust(width)} | change")
    lines.append(f"{'-' * width}-+-{'-' * 40}")
    lines.extend(f"{kind.ljust(width)} | {text}" for kind, text in rows)
    return "\n".join(lines)


def verify_store(store: SummaryStore, sample: int = 5) -> dict:
    """Recompute a deterministic sample of stored program records from
    their recorded source + options and diff the stored docs against
    the fresh ones.  Returns ``{"checked", "mismatches"}`` — any
    mismatch means the cache would replay a verdict a fresh run
    contradicts."""
    records = sorted(store.records("program"),
                     key=lambda r: r["key"])
    if sample > 0:
        step = max(1, len(records) // sample)
        records = records[::step][:sample]
    mismatches: list[dict] = []
    checked = 0
    for record in records:
        source = record.get("source")
        if not isinstance(source, str):
            continue
        options = InferenceOptions(**record.get("options", {}))
        program = inline_calls(parse_program(source))
        resolve(program)
        result = AtomicityChecker(program, options,
                                  source_text=source).run()
        fresh = compare_doc(stable_doc(
            result.to_dict(include_provenance=True)))
        stored = compare_doc(record.get("doc") or {})
        checked += 1
        if _roundtrip(stored) != _roundtrip(fresh):
            label = record.get("label", record["key"])
            mismatches.append({
                "key": record["key"],
                "label": label,
                "diff": drift_doc(f"{label}@stored",
                                  record.get("doc") or {},
                                  f"{label}@fresh",
                                  stable_doc(result.to_dict())),
            })
    return {"checked": checked, "mismatches": mismatches}


def warm_canary(store_dir: str | Path,
                options: InferenceOptions | None = None,
                *,
                targets: list[tuple[str, str]] | None = None) -> dict:
    """The CI warm-cache canary: analyze the corpus twice through one
    (fresh) store.  The second pass must be 100% cache hits with docs
    byte-identical to the first pass modulo ``run_meta`` / ``cached``,
    and no program may drift.  Returns a report
    with ``ok`` plus the failure details."""
    import json

    store = SummaryStore(store_dir)
    cold = analyze_corpus(store, options, targets=targets)
    warm = analyze_corpus(store, options, targets=targets)
    not_cached = [row["label"] for row in warm["rows"]
                  if not row["cached"]]
    mismatched: list[dict] = []
    for label, cold_doc in cold["docs"].items():
        warm_doc = warm["docs"].get(label)
        cold_bytes = json.dumps(_roundtrip(cold_doc), sort_keys=True)
        warm_bytes = json.dumps(_roundtrip(warm_doc), sort_keys=True)
        if cold_bytes != warm_bytes:
            mismatched.append({
                "label": label,
                "diff": drift_doc(f"{label}@cold", cold_doc,
                                  f"{label}@warm", warm_doc or {}),
            })
    ok = (not not_cached and not mismatched
          and not cold["drift"] and not warm["drift"]
          and not cold["errors"] and not warm["errors"])
    return {
        "ok": ok,
        "programs": len(cold["rows"]),
        "not_cached": not_cached,
        "mismatched": mismatched,
        "cold_errors": cold["errors"],
        "warm_errors": warm["errors"],
        "drift": cold["drift"] + warm["drift"],
        "stats": store.stats(),
        "rows": warm["rows"],
    }
