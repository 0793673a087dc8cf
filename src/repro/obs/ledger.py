"""Persistent run ledger: one durable manifest per CLI invocation.

Every ledgered ``repro`` command (see ``repro.cli.LEDGERED_COMMANDS``)
records a schema-versioned manifest under ``.repro/runs/<run_id>/``::

    .repro/runs/20260805T120301-482193-1234-analyze/
        manifest.json          # argv, seed, git rev, outcome, summaries
        artifacts/<sha12>-analysis.json   # content-addressed copies
        crash.json             # bundle on crash / assertion violation

The manifest carries everything needed to answer "what ran, what did
it conclude, and how do I reproduce it": argv, RNG seed, git revision,
schema versions, wall/CPU time, exit code and outcome, a per-block
classification summary (atomicity class + theorem citations per line),
lint rule counts, the MC verdict with a counterexample *fingerprint*
(sha256 over the violation + trace), and content-addressed (sha256)
references to every emitted JSON/events/profile document.

On an unhandled exception — or an assertion/property violation, which
is the outcome we most want to replay — a *crash bundle* is captured
into the run directory: a bounded drain of the structured event ring,
the profiler's deterministic counters, the RNG seed, the SYNL program
source, and the traceback.

``repro runs list|show|diff|gc`` and ``repro replay <run_id>`` are the
CLI surface; :mod:`repro.obs.rundiff` renders cross-run drift.  The
ledger root resolves from ``REPRO_LEDGER_DIR`` (default
``.repro/runs``); ``REPRO_LEDGER=0`` disables recording entirely.

The module is a leaf: it imports only the standard library at import
time (``repro.obs.export`` is reached lazily for validation), so the
explorer and scheduler can hook into it without cycles.  All hooks
no-op unless a recorder is active, so library use stays zero-cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import time
import traceback as _traceback
from typing import Optional, Union

from repro.obs.schemas import MANIFEST as SCHEMA_VERSION

#: ledger root when ``REPRO_LEDGER_DIR`` is unset
DEFAULT_ROOT = os.path.join(".repro", "runs")

#: ``repro runs gc`` keeps this many most-recent runs by default — the
#: policy CI enforces so long-lived checkouts never grow unboundedly
DEFAULT_KEEP = 50

#: at most this many events are drained from the ring into a bundle
CRASH_EVENT_LIMIT = 200

#: per-file cap on program source captured into a bundle (bytes)
SOURCE_CAP = 65536

ARTIFACT_SCHEMA = {
    "type": "object",
    "required": ["name", "sha256", "bytes"],
    "properties": {
        "name": {"type": "string"},
        "sha256": {"type": "string"},
        "bytes": {"type": "integer"},
        # run-dir-relative path of a persisted copy (null = reference
        # only, e.g. a --events-out file left where the user asked)
        "path": {"type": ["string", "null"]},
        # original location for reference-only artifacts
        "source": {"type": ["string", "null"]},
    },
}

MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["v", "run_id", "command", "argv", "started_at",
                 "wall_s", "cpu_s", "exit_code", "outcome",
                 "schema_versions", "artifacts"],
    "properties": {
        "v": {"type": "integer"},
        "run_id": {"type": "string"},
        "command": {"type": "string"},
        "argv": {"type": "array", "items": {"type": "string"}},
        "started_at": {"type": "number"},
        "wall_s": {"type": "number"},
        "cpu_s": {"type": "number"},
        "git_rev": {"type": ["string", "null"]},
        "seed": {"type": ["integer", "null"]},
        "exit_code": {"type": "integer"},
        "outcome": {"type": "string"},
        "schema_versions": {"type": "object"},
        "analysis": {"type": "object"},
        "lint": {"type": "object"},
        "mc": {"type": "object"},
        "run": {"type": "object"},
        "experiments": {"type": "object"},
        "fleet": {"type": "object"},
        "artifacts": {"type": "array", "items": ARTIFACT_SCHEMA},
        "crash": {"type": ["object", "null"]},
    },
}

_GIT_REV: Optional[str] = None
_GIT_REV_PROBED = False


def fingerprint(obj) -> str:
    """Stable short digest of any JSON-serializable value (used for
    counterexample identity across runs)."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def git_rev() -> Optional[str]:
    """``HEAD`` commit of the working directory's repository, memoized
    per process (None outside a checkout / without git)."""
    global _GIT_REV, _GIT_REV_PROBED
    if _GIT_REV_PROBED:
        return _GIT_REV
    _GIT_REV_PROBED = True
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = proc.stdout.strip()
    if proc.returncode == 0 and rev:
        _GIT_REV = rev
    return _GIT_REV


def schema_versions() -> dict:
    """Versions of every document schema a run may emit or reference."""
    from repro.obs import schemas
    return schemas.registry()


def ledger_root(override: Union[None, str, pathlib.Path] = None
                ) -> pathlib.Path:
    """Resolve the ledger directory (explicit > env > default)."""
    if override:
        return pathlib.Path(override)
    return pathlib.Path(os.environ.get("REPRO_LEDGER_DIR")
                        or DEFAULT_ROOT)


def enabled() -> bool:
    """Whether recording is on (``REPRO_LEDGER`` is not falsy)."""
    raw = os.environ.get("REPRO_LEDGER")
    if raw is None:
        return True
    return raw.strip().lower() not in ("", "0", "false", "no", "off")


def new_run_id(command: str) -> str:
    """Sortable unique id: UTC second + microseconds + pid + command."""
    now = time.time()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(now))
    return (f"{stamp}-{int(now % 1 * 1e6):06d}-{os.getpid()}"
            f"-{command}")


def outcome_for(command: str, exit_code: int) -> str:
    """Human-meaningful outcome label for a (command, exit) pair."""
    if exit_code == 0:
        return "ok"
    if command in ("run", "mc"):
        if exit_code == 1:
            return "violation"
        if exit_code == 3:
            return "capped"
        if exit_code == 4:
            return "deadline"
    if command == "analyze" and exit_code == 1:
        return "not-atomic"
    if command == "lint" and exit_code in (1, 2):
        return "findings"
    if exit_code == 2:
        return "error"
    return f"exit-{exit_code}"


class RunRecorder:
    """Accumulates one run's manifest; persists it on :meth:`finish`.

    Commands and subsystem hooks feed summaries through the
    module-level helpers (:func:`note_seed`, :func:`note_mc`, …) which
    dispatch to the *current* recorder — a plain module global, since
    the CLI is single-threaded.
    """

    def __init__(self, argv: list[str], command: str,
                 root: Union[None, str, pathlib.Path] = None,
                 persist: bool = True):
        self.argv = [str(a) for a in argv]
        self.command = command
        self.persist = persist
        self.root = ledger_root(root)
        self.run_id = new_run_id(command)
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self.seed: Optional[int] = None
        self.notes: dict = {}
        self.artifacts: list[dict] = []
        self.crash_info: Optional[dict] = None
        self._bundle: Optional[dict] = None
        self._profiler = None
        self._sources: dict[str, str] = {}
        self._manifest: Optional[dict] = None

    # -- filesystem --------------------------------------------------------
    @property
    def run_dir(self) -> pathlib.Path:
        return self.root / self.run_id

    def _ensure_dir(self) -> pathlib.Path:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        return self.run_dir

    # -- feeding -----------------------------------------------------------
    def note(self, key: str, value) -> None:
        self.notes[key] = value

    def note_seed(self, seed: int) -> None:
        self.seed = int(seed)

    def attach_profiler(self, profiler) -> None:
        self._profiler = profiler

    def note_source(self, path, text: str) -> None:
        if len(self._sources) < 8:
            self._sources[str(path)] = text[:SOURCE_CAP]

    def add_artifact(self, name: str, doc) -> dict:
        """Persist a JSON document as a content-addressed artifact
        under the run directory and reference it in the manifest."""
        blob = json.dumps(doc, indent=2, default=str).encode()
        sha = hashlib.sha256(blob).hexdigest()
        rel = None
        if self.persist:
            art_dir = self._ensure_dir() / "artifacts"
            art_dir.mkdir(exist_ok=True)
            rel = f"artifacts/{sha[:12]}-{os.path.basename(name)}"
            (self.run_dir / rel).write_bytes(blob)
        entry = {"name": os.path.basename(name), "sha256": sha,
                 "bytes": len(blob), "path": rel, "source": None}
        self.artifacts.append(entry)
        return entry

    def ref_artifact(self, path) -> Optional[dict]:
        """Reference an already-written file (``--events-out`` /
        ``--trace-out`` targets) by content hash, without copying."""
        path = pathlib.Path(path)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        entry = {"name": path.name,
                 "sha256": hashlib.sha256(blob).hexdigest(),
                 "bytes": len(blob), "path": None,
                 "source": str(path)}
        self.artifacts.append(entry)
        return entry

    # -- crash bundles -----------------------------------------------------
    def _gather_bundle(self, reason: str,
                       exc: Optional[BaseException] = None) -> dict:
        from repro.obs import events as events_mod

        bundle: dict = {"v": SCHEMA_VERSION, "reason": reason,
                        "run_id": self.run_id, "argv": self.argv,
                        "seed": self.seed,
                        "sources": dict(self._sources)}
        stream = events_mod.active()
        if stream is not None:
            bundle["events"] = stream.drain(CRASH_EVENT_LIMIT)
            bundle["events_dropped"] = stream.dropped
        else:
            bundle["events"] = []
            bundle["events_dropped"] = 0
        if self._profiler is not None \
                and getattr(self._profiler, "enabled", False):
            bundle["profile_counters"] = self._profiler.counters()
        if exc is not None:
            bundle["exception"] = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": "".join(_traceback.format_exception(
                    type(exc), exc, exc.__traceback__)),
            }
        return bundle

    def capture_bundle(self, reason: str,
                       exc: Optional[BaseException] = None) -> dict:
        """Capture (and, when persisting, write) the crash bundle."""
        self._bundle = self._gather_bundle(reason, exc)
        rel = None
        if self.persist:
            self._ensure_dir()
            rel = "crash.json"
            (self.run_dir / rel).write_text(
                json.dumps(self._bundle, indent=2, default=str) + "\n")
        self.crash_info = {"reason": reason, "path": rel}
        if exc is not None:
            self.crash_info["type"] = type(exc).__name__
            self.crash_info["message"] = str(exc)
        return self._bundle

    def crash(self, exc: BaseException, exit_code: int = 1) -> dict:
        """Unhandled-exception path: bundle + finish in one step."""
        self.capture_bundle("crash", exc)
        return self.finish(exit_code, outcome="crash")

    # -- completion --------------------------------------------------------
    def finish(self, exit_code: int,
               outcome: Optional[str] = None) -> dict:
        """Stamp timing + outcome, persist ``manifest.json``, and
        return the manifest (idempotent: later calls are no-ops)."""
        if self._manifest is not None:
            return self._manifest
        outcome = outcome or outcome_for(self.command, exit_code)
        if outcome == "violation" and self.crash_info is None:
            # a violation is the outcome we most want to replay:
            # capture the same bundle an unhandled crash would get
            self.capture_bundle("violation")
        manifest: dict = {
            "v": SCHEMA_VERSION,
            "run_id": self.run_id,
            "command": self.command,
            "argv": self.argv,
            "started_at": round(self.started_at, 3),
            "wall_s": round(time.perf_counter() - self._t0, 6),
            "cpu_s": round(time.process_time() - self._cpu0, 6),
            "git_rev": git_rev(),
            "seed": self.seed,
            "exit_code": int(exit_code),
            "outcome": outcome,
            "schema_versions": schema_versions(),
            "artifacts": self.artifacts,
            "crash": self.crash_info,
        }
        manifest.update(self.notes)
        from repro.obs.export import validate
        errors = validate(manifest, MANIFEST_SCHEMA)
        if errors:  # defensive: recorder and schema must stay in sync
            raise ValueError("invalid run manifest: "
                             + "; ".join(errors))
        if self.persist:
            self._ensure_dir()
            (self.run_dir / "manifest.json").write_text(
                json.dumps(manifest, indent=2, default=str) + "\n")
        self._manifest = manifest
        return manifest


# -- the current recorder (CLI is single-threaded) -----------------------------

_CURRENT: Optional[RunRecorder] = None


def current() -> Optional[RunRecorder]:
    return _CURRENT


def start(argv: list[str], command: str,
          root: Union[None, str, pathlib.Path] = None,
          persist: bool = True,
          force: bool = False) -> Optional[RunRecorder]:
    """Install a recorder as current.  Returns None when recording is
    disabled (``REPRO_LEDGER=0``) or a recorder is already active
    (nested invocations — e.g. ``repro replay`` — feed the outer one);
    ``force=True`` skips only the enabled check."""
    global _CURRENT
    if _CURRENT is not None:
        return None
    if not force and not enabled():
        return None
    _CURRENT = RunRecorder(argv, command, root=root, persist=persist)
    return _CURRENT


def stop(recorder: Optional[RunRecorder]) -> None:
    global _CURRENT
    if recorder is not None and _CURRENT is recorder:
        _CURRENT = None


@contextlib.contextmanager
def muted():
    """Temporarily detach the active recorder so globally-hooked notes
    (``note_mc`` from ``Explorer.run``, …) don't land in the run.
    The experiments variant grid runs its cells under this: the grid's
    drift-diffable record is the aggregated ``experiments`` note, and
    a parallel (``--jobs``) grid — whose forked workers never see the
    recorder — must produce the same manifest as a sequential one."""
    global _CURRENT
    saved, _CURRENT = _CURRENT, None
    try:
        yield
    finally:
        _CURRENT = saved


@contextlib.contextmanager
def recording(argv: list[str], command: str,
              root: Union[None, str, pathlib.Path] = None,
              persist: bool = True):
    """Context-manager form of :func:`start`/:func:`stop` that turns
    unhandled exceptions into crash bundles before re-raising."""
    rec = start(argv, command, root=root, persist=persist)
    try:
        yield rec
    except Exception as exc:
        if rec is not None:
            rec.crash(exc)
        raise
    finally:
        stop(rec)


# -- hook helpers (no-ops without a current recorder) --------------------------

def note(key: str, value) -> None:
    if _CURRENT is not None:
        _CURRENT.note(key, value)


def note_seed(seed: int) -> None:
    if _CURRENT is not None:
        _CURRENT.note_seed(seed)


def note_source(path, text: str) -> None:
    if _CURRENT is not None:
        _CURRENT.note_source(path, text)


def attach_profiler(profiler) -> None:
    if _CURRENT is not None:
        _CURRENT.attach_profiler(profiler)


def add_artifact(name: str, doc) -> None:
    if _CURRENT is not None:
        _CURRENT.add_artifact(name, doc)


def ref_artifact(path) -> None:
    if _CURRENT is not None:
        _CURRENT.ref_artifact(path)


def classification_summary(doc: dict) -> dict:
    """Distill an ``analysis_to_dict`` document into the drift-diffable
    per-block summary stored in manifests: atomicity class and theorem
    citations per line, body atomicity per variant, atomic verdict per
    procedure, plus downgraded theorem applications."""
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


def note_analysis(result) -> None:
    """Record the per-block classification summary of an analysis
    (accepts an ``AnalysisResult`` or its ``to_dict()`` document)."""
    rec = _CURRENT
    if rec is None:
        return
    doc = result if isinstance(result, dict) else result.to_dict()
    summary = classification_summary(doc)
    prior = rec.notes.get("analysis")
    if isinstance(prior, dict) and "partitions" in prior:
        summary["partitions"] = prior["partitions"]
    rec.notes["analysis"] = summary
    lint = doc.get("lint")
    if lint is not None:
        note_lint([lint])


def note_partitions(partitions: dict) -> None:
    """Record §6.4 block-partition classes
    (``{proc/variant: [atomicity, ...]}``)."""
    rec = _CURRENT
    if rec is None:
        return
    rec.notes.setdefault("analysis", {})["partitions"] = {
        key: [str(a) for a in classes]
        for key, classes in partitions.items()}


def note_lint(lint_docs: list) -> None:
    """Record per-target rule counts (accepts ``LintResult`` objects
    or their ``to_dict()`` documents)."""
    rec = _CURRENT
    if rec is None:
        return
    summary = rec.notes.setdefault(
        "lint", {"targets": {}, "errors": 0, "warnings": 0})
    for res in lint_docs:
        doc = res if isinstance(res, dict) else res.to_dict()
        counts: dict = {}
        for finding in doc.get("findings", []):
            counts[finding["rule"]] = counts.get(finding["rule"], 0) + 1
        summary["targets"][doc.get("target", "?")] = counts
        sums = doc.get("summary", {})
        summary["errors"] += int(sums.get("errors", 0))
        summary["warnings"] += int(sums.get("warnings", 0))


def _normalize_cex_steps(path: list, trace: list) -> list:
    """A cross-run-stable view of a counterexample: statement uids are
    global parse counters (two parses of the same source in one
    process yield different absolute uids), so they are renumbered by
    first occurrence; tid/kind/proc/via are stable as-is."""
    if path:
        seen: dict = {}
        out = []
        for step in path:
            uid = step.get("uid")
            stmt = None if uid is None else \
                seen.setdefault(uid, len(seen))
            out.append({"tid": step.get("tid"),
                        "kind": step.get("kind"),
                        "proc": step.get("proc"),
                        "via": step.get("via"), "stmt": stmt})
        return out
    seen = {}
    out = []
    for desc in trace:
        out.append(re.sub(
            r"@(\d+)",
            lambda m: f"@{seen.setdefault(m.group(1), len(seen))}",
            str(desc)))
    return out


def note_mc(result) -> None:
    """Record an exploration's verdict (hooked from
    ``Explorer.run``); a violation gets a deterministic
    counterexample fingerprint so replays can assert identity."""
    rec = _CURRENT
    if rec is None:
        return
    summary: dict = {"mode": result.mode, "states": result.states,
                     "transitions": result.transitions,
                     "violation": result.violation,
                     "capped": bool(result.capped),
                     "deadline_hit": bool(getattr(result,
                                                  "deadline_hit",
                                                  False))}
    if result.violation:
        summary["fingerprint"] = fingerprint(
            {"violation": result.violation,
             "steps": _normalize_cex_steps(
                 list(getattr(result, "path", []) or []),
                 list(result.trace))})
    rec.notes["mc"] = summary
    rec.notes.setdefault("mc_count", 0)
    rec.notes["mc_count"] += 1


def note_run(seed: int, violation: Optional[str],
             history: list) -> None:
    """Record a random-schedule execution's outcome."""
    rec = _CURRENT
    if rec is None:
        return
    summary: dict = {"seed": int(seed), "violation": violation}
    if violation is not None:
        summary["fingerprint"] = fingerprint(
            {"violation": violation,
             "history": [str(e) for e in history]})
    rec.notes["run"] = summary


# -- reading the ledger --------------------------------------------------------

def _read_manifest(path: pathlib.Path) -> tuple[Optional[dict], str]:
    """``(manifest, "")`` when ``path`` holds a manifest that passes
    :data:`MANIFEST_SCHEMA` and whose ``run_id`` names its directory,
    else ``(None, why)`` — the one rule for a readable run."""
    from repro.obs.export import validate

    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return None, str(exc)
    errors = validate(manifest, MANIFEST_SCHEMA)
    if errors:
        return None, "; ".join(errors)
    if manifest["run_id"] != path.parent.name:
        return None, (f"run_id {manifest['run_id']!r} does not name "
                      f"its directory")
    return manifest, ""


def load_manifest(root: Union[str, pathlib.Path],
                  run_id: str) -> dict:
    """Load + validate one run's manifest."""
    from repro.errors import ReproError

    path = pathlib.Path(root) / run_id / "manifest.json"
    if not path.is_file():
        raise ReproError(f"no run {run_id!r} under {root} "
                         f"(missing {path})")
    manifest, why = _read_manifest(path)
    if manifest is None:
        raise ReproError(f"{path}: {why}")
    return manifest


def list_runs(root: Union[str, pathlib.Path]) -> list[dict]:
    """All readable manifests under ``root`` (valid JSON that passes
    :data:`MANIFEST_SCHEMA`), oldest first (run ids are
    timestamp-prefixed, so name order is time order)."""
    root = pathlib.Path(root)
    if not root.is_dir():
        return []
    out = []
    for sub in sorted(root.iterdir()):
        path = sub / "manifest.json"
        if path.is_file():
            manifest, _ = _read_manifest(path)
            if manifest is not None:
                out.append(manifest)
    return out


def resolve_run(root: Union[str, pathlib.Path], token: str) -> str:
    """Resolve a user-supplied run reference: an exact id, a unique
    prefix, ``last``, or a negative index (``-1`` = most recent)."""
    from repro.errors import ReproError

    ids = [m["run_id"] for m in list_runs(root)]
    if not ids:
        raise ReproError(f"ledger {root} is empty — run a ledgered "
                         f"command (e.g. repro analyze) first")
    if token == "last":
        token = "-1"
    if re.fullmatch(r"-\d+", token):
        index = int(token)
        if -len(ids) <= index <= -1:
            return ids[index]
        raise ReproError(f"run index {token} out of range "
                         f"({len(ids)} run(s) recorded)")
    if token in ids:
        return token
    matches = [i for i in ids if i.startswith(token)]
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise ReproError(f"ambiguous run prefix {token!r}: "
                         + ", ".join(matches[:5]))
    raise ReproError(f"unknown run {token!r} (repro runs list shows "
                     f"{len(ids)} recorded run(s))")


def load_artifact_docs(root: Union[str, pathlib.Path],
                       run_id: str) -> dict[str, dict]:
    """Load every readable JSON artifact of a run as ``{name: doc}``
    — persisted content-addressed copies first, falling back to the
    recorded ``source`` path for reference-only artifacts.  The crash
    bundle (when present) joins under ``"crash.json"``.  Unreadable or
    non-JSON artifacts are skipped silently: callers (``repro perf
    diff``) degrade to whichever documents survive."""
    manifest = load_manifest(root, run_id)
    run_dir = pathlib.Path(root) / run_id
    docs: dict[str, dict] = {}
    for entry in manifest.get("artifacts", []):
        candidates = []
        if entry.get("path"):
            candidates.append(run_dir / entry["path"])
        if entry.get("source"):
            candidates.append(pathlib.Path(entry["source"]))
        for path in candidates:
            try:
                docs[entry["name"]] = json.loads(path.read_text())
                break
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue
    crash = run_dir / "crash.json"
    if crash.is_file():
        try:
            docs["crash.json"] = json.loads(crash.read_text())
        except (OSError, json.JSONDecodeError):
            pass
    return docs


def gc(root: Union[str, pathlib.Path],
       keep: int = DEFAULT_KEEP) -> list[str]:
    """Delete all but the ``keep`` most recent readable runs
    (:func:`list_runs`); a directory whose manifest is unreadable is
    left alone."""
    if keep < 0:
        raise ValueError("keep must be >= 0")
    run_ids = [m["run_id"] for m in list_runs(root)]
    doomed = run_ids[:-keep] if keep else run_ids
    for run_id in doomed:
        shutil.rmtree(pathlib.Path(root) / run_id, ignore_errors=True)
    return doomed


def compare_replay(recorded: dict, fresh: dict) -> dict:
    """Did a re-execution reproduce the recorded run?  Requires the
    same exit code, zero cross-run drift, and (when either side holds
    one) an identical counterexample fingerprint."""
    from repro.obs.rundiff import diff_manifests

    drift = diff_manifests(recorded, fresh)
    exit_match = recorded.get("exit_code") == fresh.get("exit_code")
    fp_match = True
    for key in ("mc", "run"):
        a = (recorded.get(key) or {}).get("fingerprint")
        b = (fresh.get(key) or {}).get("fingerprint")
        if a is not None or b is not None:
            fp_match = fp_match and a == b
    return {"reproduced": exit_match and fp_match and drift["empty"],
            "exit_match": exit_match,
            "fingerprint_match": fp_match,
            "drift": drift}
