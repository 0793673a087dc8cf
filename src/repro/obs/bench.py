"""Statistical benchmark harness: the perf-trajectory substrate.

Single-shot ``BENCH_*.json`` samples are noise: a 25% wall-time swing
on a shared runner is routine, so a "5-10x faster" claim for the
compact-state/sharding arc (ROADMAP items 1-3) cannot be demonstrated
from one sample per commit.  This module makes every perf number a
*population statistic* over a declarative benchmark matrix:

* :func:`default_matrix` — the cases to time: the steps-1-7 analysis
  over the corpus, and the explorer over the Figure-3 NFQ' driver
  (all reduction modes) plus bounded Table-2/§6.3 Gao-Hesselink
  configurations;
* :func:`run_case` — warmup runs (discarded) then N timed repeats,
  summarized as ``{repeats, min, max, mean, median, iqr}``.  The
  emitted record's ``wall_s`` IS the median, so every downstream
  consumer (watchdog, report, compare) gates on the low-noise number;
  one *extra* profiled pass after the repeats stamps deterministic
  ``counters`` into the record (:func:`case_counters`) — the substrate
  ``repro perf diff`` attributes regressions with;
* :func:`run_matrix` — executes the matrix and splits the records
  into v2 ``BENCH_analysis.json`` / ``BENCH_mc.json`` documents
  (``{v, at, env, repeats, records}``) stamped with an environment
  fingerprint (git rev, python, platform, cpu count);
* :func:`append_history` / :func:`load_history` — the append-only
  ``BENCH_history.jsonl`` trajectory: one compact line per ``bench
  run`` carrying the per-record medians, so cross-commit trends
  survive baseline refreshes;
* :func:`render_trend` — per-record sparkline trajectories over the
  history (``repro bench trend``);
* :func:`compare_sets` — noise-aware record diffing with per-record
  verdicts (``repro bench compare``): a delta only counts as drift
  when it clears both the relative threshold and the combined IQR
  noise band of the two sides.

Repeat count resolves from ``--repeats`` > ``REPRO_BENCH_REPEATS`` >
:data:`DEFAULT_REPEATS`.  ``--quick`` (1 repeat, no warmup, small
matrix) keeps a tier-1-adjacent CI smoke of the harness itself cheap.

CLI surface: ``repro bench run|trend|compare`` (:mod:`repro.cli`).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform as _platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.obs.export import (BENCH_SCHEMA_VERSION, bench_record,
                              validate_bench_file, write_bench)
from repro.obs.profile import NULL_PROFILER, Profiler

DEFAULT_REPEATS = 5
DEFAULT_WARMUP = 1

DEFAULT_HISTORY = "BENCH_history.jsonl"

#: relative wall-time delta below which compare_sets never reports
#: drift, even when the IQR band is zero (single-repeat records)
DEFAULT_REL_THRESHOLD = 0.10

#: wall times at or below this are scheduler jitter — compare_sets
#: reports them as ``~`` regardless of relative delta
NOISE_FLOOR_S = 0.005

SPARK_CHARS = "▁▂▃▄▅▆▇█"


# -- repeat statistics ---------------------------------------------------------

def median(samples: list[float]) -> float:
    """Exact median (mean-of-middle-two on even N; 0.0 on empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def iqr(samples: list[float]) -> float:
    """Interquartile range via Tukey hinges (median of each half,
    halves share the middle sample on odd N).  Well-defined down to
    N=1, where it is 0 — small-N repeat counts must not blow up the
    noise band."""
    n = len(samples)
    if n < 2:
        return 0.0
    ordered = sorted(samples)
    mid = n // 2
    lower = ordered[:mid + (n % 2)]
    upper = ordered[mid:]
    return median(upper) - median(lower)


def summarize(samples: list[float]) -> dict:
    """The ``stats`` block of a bench record."""
    return {
        "repeats": len(samples),
        "min": min(samples) if samples else 0.0,
        "max": max(samples) if samples else 0.0,
        "mean": sum(samples) / len(samples) if samples else 0.0,
        "median": median(samples),
        "iqr": iqr(samples),
    }


def percentiles_of(samples: list[float]) -> Optional[dict]:
    """Exact p50/p95/p99 from raw repeat samples (nearest-rank), or
    None when there are no samples."""
    if not samples:
        return None
    ordered = sorted(samples)
    n = len(ordered)

    def rank(q: float) -> float:
        import math
        return ordered[min(n - 1, max(0, math.ceil(q * n) - 1))]

    return {"p50": rank(0.50), "p95": rank(0.95), "p99": rank(0.99)}


# -- environment fingerprint ---------------------------------------------------

def env_fingerprint() -> dict:
    """What produced these numbers: git rev, interpreter, platform,
    cpu count.  Compared loudly by ``bench compare`` — cross-machine
    numbers must never silently pass for a same-machine trend."""
    from repro.obs.ledger import git_rev

    return {
        "git_rev": git_rev(),
        "python": sys.version.split()[0],
        "platform": _platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def resolve_repeats(flag: Optional[int] = None) -> int:
    """``--repeats`` > ``REPRO_BENCH_REPEATS`` > default."""
    if flag is not None:
        return max(1, int(flag))
    raw = os.environ.get("REPRO_BENCH_REPEATS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_REPEATS


# -- the benchmark matrix ------------------------------------------------------

@dataclass(frozen=True)
class BenchCase:
    """One matrix entry.  ``run()`` executes the workload once and
    returns ``(wall_s, fields)`` where ``fields`` are the non-timing
    record columns (states, transitions, mem_peak_mb, …).  Matrix
    runners additionally accept a ``profiler`` keyword (default
    disabled): :func:`run_case` uses it for one dedicated profiled
    pass *after* the timed repeats, so records carry deterministic
    ``counters`` for ``repro perf diff`` without profiling overhead
    ever touching a timed sample."""

    name: str            # record name, e.g. "mc/nfq_prime/por"
    kind: str            # 'analysis' | 'mc' — selects the output file
    run: Callable[..., tuple]


def _analysis_case(name: str, source: str) -> BenchCase:
    from repro.analysis import analyze_program

    def run(profiler=NULL_PROFILER) -> tuple:
        start = time.perf_counter()
        result = analyze_program(source, profiler=profiler)
        wall = time.perf_counter() - start
        assert result.verdicts
        return wall, {}

    return BenchCase(f"analysis/{name}", "analysis", run)


#: corpus subset driven through the summary cache by the cold/warm
#: cache benchmarks (mirrors the standalone analysis cases)
_CACHE_CORPUS = ("NFQ_PRIME", "HERLIHY_SMALL", "GH_PROGRAM1",
                 "ALLOCATOR", "TREIBER_STACK", "CAS_COUNTER")


def _corpus_cache_cases() -> list[BenchCase]:
    """``analysis/corpus-cold`` vs ``analysis/corpus-warm``: the same
    corpus subset analyzed through the summary cache, once into a
    fresh store per repeat and once into a pre-populated store (100%
    replay).  Each record carries ``work_units`` — the deterministic
    profiler calls+work total — so the warm/cold speedup is gated on
    work counters, not just wall clock."""
    import shutil
    import tempfile

    from repro import corpus
    from repro.analysis.summaries import (
        SummaryStore,
        analyze_with_summaries,
    )

    targets = [(f"corpus/{name.lower()}", getattr(corpus, name))
               for name in _CACHE_CORPUS]

    def pass_over(store: SummaryStore, profiler=None) -> tuple:
        profiler = profiler if profiler is not None \
            and profiler.enabled else Profiler()
        start = time.perf_counter()
        for label, source in targets:
            result, _ = analyze_with_summaries(
                source, store=store, label=label, profiler=profiler)
            assert result.verdicts
        wall = time.perf_counter() - start
        work = sum(int(entry["calls"] + entry["work"])
                   for entry in profiler.counters().values())
        return wall, {"work_units": work}

    def run_cold(profiler=None) -> tuple:
        tmp = tempfile.mkdtemp(prefix="repro-bench-cold-")
        try:
            return pass_over(SummaryStore(tmp), profiler)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    warm_dir = tempfile.mkdtemp(prefix="repro-bench-warm-")
    warm_store = SummaryStore(warm_dir)
    populated = []

    def run_warm(profiler=None) -> tuple:
        if not populated:
            pass_over(warm_store)       # populate, untimed
            populated.append(True)
        return pass_over(warm_store, profiler)

    return [BenchCase("analysis/corpus-cold", "analysis", run_cold),
            BenchCase("analysis/corpus-warm", "analysis", run_warm)]


def _corpus_jobs_cases() -> list[BenchCase]:
    """``analysis/corpus-jobs1`` vs ``analysis/corpus-jobs4``: the same
    cold-store corpus pass run sequentially and fanned across four
    forked workers (:func:`repro.obs.fleet.run_fleet`).  The jobs1
    case gates sequential-path overhead like any other; the jobs4 case
    gates the parallel path's fixed cost (fork + spool + merge), and
    the recorded jobs1/jobs4 wall ratio is the fleet speedup — ~1x on
    a single-core host, approaching ``min(4, cores)`` elsewhere, which
    is why the watchdog gates each case against its *own* baseline
    rather than the pair against each other.  ``work_units`` is
    identical across the pair by construction (same targets, same
    passes, merged worker profilers), so work-counter attribution
    stays meaningful across the jobs axis."""
    import shutil
    import tempfile

    from repro import corpus
    from repro.analysis.summaries import SummaryStore
    from repro.analysis.summaries.engine import analyze_corpus

    targets = [(f"corpus/{name.lower()}", getattr(corpus, name))
               for name in _CACHE_CORPUS]

    def jobs_runner(jobs: int):
        def run(profiler=None) -> tuple:
            profiler = profiler if profiler is not None \
                and profiler.enabled else Profiler()
            store_dir = tempfile.mkdtemp(
                prefix=f"repro-bench-jobs{jobs}-")
            spool_dir = tempfile.mkdtemp(
                prefix="repro-bench-spool-") if jobs > 1 else None
            try:
                start = time.perf_counter()
                report = analyze_corpus(
                    SummaryStore(store_dir), targets=targets,
                    profiler=profiler, jobs=jobs, spool=spool_dir)
                wall = time.perf_counter() - start
                assert not report["errors"]
            finally:
                shutil.rmtree(store_dir, ignore_errors=True)
                if spool_dir is not None:
                    shutil.rmtree(spool_dir, ignore_errors=True)
            work = sum(int(entry["calls"] + entry["work"])
                       for entry in profiler.counters().values())
            return wall, {"work_units": work}

        return run

    return [BenchCase("analysis/corpus-jobs1", "analysis",
                      jobs_runner(1)),
            BenchCase("analysis/corpus-jobs4", "analysis",
                      jobs_runner(4))]


def _mc_case(name: str, source: str, specs_fn: Callable, mode: str,
             max_states: int = 200_000,
             commutes: Optional[Callable] = None) -> BenchCase:
    from repro.interp import Interp
    from repro.mc import Explorer
    from repro.mc.observers import Profile

    def run(profiler=NULL_PROFILER) -> tuple:
        interp = Interp(source)
        observer = Profile(profiler) if profiler.enabled else None
        result = Explorer(interp, specs_fn(), mode=mode,
                          commutes=commutes, observer=observer,
                          max_states=max_states).run()
        fields = {
            "states": result.states,
            "transitions": result.transitions,
            "mem_peak_mb": result.metrics.get("mc.mem_peak_mb"),
            "dedup_hit_rate": result.metrics.get("mc.dedup_hit_rate"),
        }
        return result.elapsed, fields

    return BenchCase(f"mc/{name}", "mc", run)


def default_matrix(quick: bool = False) -> list[BenchCase]:
    """The declarative benchmark matrix.  ``quick`` shrinks it to one
    analysis case + one exploration (the harness-rot CI canary);
    the full matrix covers the corpus analyses, the Figure-3 NFQ'
    driver across reduction modes, and bounded Table-2/§6.3
    Gao-Hesselink configurations."""
    from repro import corpus
    from repro.experiments.section63 import commutes
    from repro.interp import ThreadSpec

    def nfq_specs():
        return [ThreadSpec.of(("AddNode", 1), ("UpdateTail",)),
                ThreadSpec.of(("DeqP",), ("UpdateTail",))]

    def gh_specs(n: int):
        return lambda: [ThreadSpec.of(("Apply", g + 1))
                        for g in range(n)]

    if quick:
        return [
            _analysis_case("nfq_prime", corpus.NFQ_PRIME),
            _mc_case("nfq_prime/por", corpus.NFQ_PRIME, nfq_specs,
                     "por"),
        ]
    cases = [
        _analysis_case("nfq_prime", corpus.NFQ_PRIME),
        _analysis_case("herlihy", corpus.HERLIHY_SMALL),
        _analysis_case("gh_program1", corpus.GH_PROGRAM1),
        _analysis_case("allocator", corpus.ALLOCATOR),
        _analysis_case("treiber", corpus.TREIBER_STACK),
    ]
    cases.extend(_corpus_cache_cases())
    cases.extend(_corpus_jobs_cases())
    for mode in ("full", "por", "atomic"):
        cases.append(_mc_case(f"nfq_prime/{mode}", corpus.NFQ_PRIME,
                              nfq_specs, mode))
    # §6.3's Gao-Hesselink driver at 2 threads: the reduced modes stay
    # bench-sized while exercising the atomic/commutativity machinery
    # the full-scale reproduction relies on
    cases.append(_mc_case("gh/atomic-2t", corpus.GH_PROGRAM1,
                          gh_specs(2), "atomic"))
    cases.append(_mc_case("gh/both-2t", corpus.GH_PROGRAM1,
                          gh_specs(2), "both", commutes=commutes))
    return cases


def case_counters(case: BenchCase) -> dict:
    """One dedicated profiled pass: the deterministic ``{region:
    {calls, work}}`` counters for ``repro perf diff`` attribution.
    Runs *after* the timed repeats so profiling overhead never touches
    a timed sample; counters need no repeats because identical runs
    produce identical counts.  Cases whose runner predates the
    ``profiler`` keyword simply yield no counters."""
    import inspect

    try:
        params = inspect.signature(case.run).parameters
    except (TypeError, ValueError):  # pragma: no cover — C callables
        return {}
    if "profiler" not in params:
        return {}
    profiler = Profiler()
    case.run(profiler=profiler)
    return profiler.counters()


def run_case(case: BenchCase, repeats: int,
             warmup: int = DEFAULT_WARMUP) -> dict:
    """Warmup (discarded) + N timed repeats -> one median-of-repeats
    bench record.  Non-timing fields come from the last repeat (the
    workloads are deterministic, so any repeat agrees)."""
    for _ in range(max(0, warmup)):
        case.run()
    samples: list[float] = []
    fields: dict = {}
    for _ in range(max(1, repeats)):
        wall, fields = case.run()
        samples.append(wall)
    record = bench_record(
        case.name, median(samples),
        states=fields.get("states", 0),
        transitions=fields.get("transitions", 0),
        percentiles=percentiles_of(samples),
        mem_peak_mb=fields.get("mem_peak_mb"),
        dedup_hit_rate=fields.get("dedup_hit_rate"),
        stats=summarize(samples))
    # deterministic profiler work total (summary-cache cases) — the
    # bench schema ignores unknown keys, so plain records stay valid
    if "work_units" in fields:
        record["work_units"] = fields["work_units"]
    counters = case_counters(case)
    if counters:
        record["counters"] = counters
    return record


def run_matrix(cases: list[BenchCase], repeats: int,
               warmup: int = DEFAULT_WARMUP,
               progress: Optional[Callable[[str], None]] = None
               ) -> dict:
    """Execute the matrix; returns ``{filename: run_document}`` with
    one v2 document per populated output file."""
    by_kind: dict[str, list[dict]] = {"analysis": [], "mc": []}
    for case in cases:
        record = run_case(case, repeats, warmup)
        by_kind[case.kind].append(record)
        if progress is not None:
            stats = record["stats"]
            progress(f"{case.name}: median {stats['median'] * 1000:.2f}"
                     f"ms  iqr {stats['iqr'] * 1000:.2f}ms  "
                     f"({stats['repeats']} repeat(s))")
    env = env_fingerprint()
    at = round(time.time(), 3)
    out: dict[str, dict] = {}
    for kind, filename in (("analysis", "BENCH_analysis.json"),
                           ("mc", "BENCH_mc.json")):
        if by_kind[kind]:
            out[filename] = {"v": BENCH_SCHEMA_VERSION, "at": at,
                             "env": env, "repeats": int(repeats),
                             "warmup": int(warmup),
                             "records": by_kind[kind]}
    return out


def write_run(docs: dict, out_dir: Union[str, pathlib.Path]
              ) -> list[pathlib.Path]:
    """Persist every run document under ``out_dir``."""
    out_dir = pathlib.Path(out_dir)
    return [write_bench(out_dir / filename, doc)
            for filename, doc in sorted(docs.items())]


# -- the append-only trajectory ------------------------------------------------

def history_line(docs: dict) -> dict:
    """One compact ``BENCH_history.jsonl`` entry for a matrix run:
    per-record medians + throughput, keyed by record name."""
    metrics: dict[str, dict] = {}
    env: dict = {}
    at = time.time()
    repeats = 0
    for doc in docs.values():
        env = doc.get("env", env)
        at = doc.get("at", at)
        repeats = doc.get("repeats", repeats)
        for record in doc["records"]:
            entry = {"wall_s": record["wall_s"]}
            if record.get("states_per_s"):
                entry["states_per_s"] = record["states_per_s"]
            stats = record.get("stats")
            if stats:
                entry["iqr"] = stats["iqr"]
            metrics[record["name"]] = entry
    return {"at": round(at, 3), "repeats": repeats, "env": env,
            "metrics": metrics}


def append_history(path: Union[str, pathlib.Path],
                   entry: dict) -> pathlib.Path:
    """Append one trajectory line (never rewrites earlier entries)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(entry) + "\n")
    return path


def load_history(path: Union[str, pathlib.Path]) -> list[dict]:
    """All trajectory entries, oldest first (empty when absent)."""
    path = pathlib.Path(path)
    if not path.is_file():
        return []
    out = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict) and "metrics" in entry:
            out.append(entry)
    return out


def sparkline(values: list[float]) -> str:
    """Unicode sparkline over a value series (min..max scaled)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return SPARK_CHARS[0] * len(values)
    return "".join(
        SPARK_CHARS[min(len(SPARK_CHARS) - 1,
                        int((v - lo) / span * len(SPARK_CHARS)))]
        for v in values)


def trend_series(history: list[dict], metric: str = "wall_s"
                 ) -> dict[str, list]:
    """``{record_name: [(entry_index, value), ...]}`` over the
    trajectory; entries missing a record simply skip it."""
    series: dict[str, list] = {}
    for i, entry in enumerate(history):
        for name, values in entry.get("metrics", {}).items():
            if metric in values:
                series.setdefault(name, []).append((i, values[metric]))
    return series


def render_trend(history: list[dict], metric: str = "wall_s",
                 last: Optional[int] = None) -> str:
    """Text trajectory: sparkline + first->latest per record."""
    if last is not None:
        history = history[-last:]
    if not history:
        return ("no trajectory yet — repro bench run appends to "
                "BENCH_history.jsonl")
    series = trend_series(history, metric)
    scale = 1000.0 if metric == "wall_s" else 1.0
    unit = "ms" if metric == "wall_s" else "/s"
    width = max((len(n) for n in series), default=6)
    lines = [f"bench trajectory — {metric} over "
             f"{len(history)} run(s)"]
    if len(history) == 1:
        lines.append("(1 sample — deltas appear from the second "
                     "bench run onward)")
    for name in sorted(series):
        values = [v for _, v in series[name]]
        first, latest = values[0], values[-1]
        delta = ""
        if first > 0 and len(values) > 1:
            delta = f"  {(latest - first) / first * 100:+.1f}%"
        lines.append(
            f"{name.ljust(width)}  {sparkline(values)}  "
            f"{first * scale:.2f}{unit} -> {latest * scale:.2f}{unit}"
            f"{delta}")
    return "\n".join(lines)


# -- noise-aware comparison ----------------------------------------------------

def _stat(record: dict, key: str, fallback: float = 0.0) -> float:
    stats = record.get("stats") or {}
    if key in stats:
        return float(stats[key])
    if key == "median":
        return float(record["wall_s"])
    return fallback


def compare_records_stats(a: list[dict], b: list[dict],
                          threshold: float = DEFAULT_REL_THRESHOLD
                          ) -> list[dict]:
    """Per-record verdict rows comparing run ``a`` (older) to ``b``
    (newer).  Verdicts: ``~`` (within noise), ``slower``, ``faster``,
    ``new``, ``missing``.  A delta is significant only when it clears
    the relative ``threshold`` and the summed IQR noise bands (floored
    at the absolute :data:`NOISE_FLOOR_S`), and at least one side is
    above the absolute noise floor."""
    rows: list[dict] = []
    a_by = {r["name"]: r for r in a}
    b_by = {r["name"]: r for r in b}
    for name in sorted(set(a_by) | set(b_by)):
        old, new = a_by.get(name), b_by.get(name)
        if old is None:
            rows.append({"name": name, "verdict": "new",
                         "detail": "no record in the older run"})
            continue
        if new is None:
            rows.append({"name": name, "verdict": "missing",
                         "detail": "record absent from the newer run"})
            continue
        old_w, new_w = _stat(old, "median"), _stat(new, "median")
        # the absolute floor backstops the IQR band: a few-ms wobble
        # on a small benchmark is machine-load jitter regardless of
        # its relative size
        noise = max(NOISE_FLOOR_S,
                    _stat(old, "iqr") + _stat(new, "iqr"))
        delta = new_w - old_w
        rel = delta / old_w if old_w > 0 else 0.0
        row = {"name": name, "verdict": "~",
               "old_wall_s": round(old_w, 6),
               "new_wall_s": round(new_w, 6),
               "delta_pct": round(rel * 100, 1),
               "noise_s": round(noise, 6)}
        significant = (max(old_w, new_w) > NOISE_FLOOR_S
                       and abs(rel) > threshold
                       and abs(delta) > noise)
        if significant:
            row["verdict"] = "slower" if delta > 0 else "faster"
        rows.append(row)
    return rows


def compare_sets(a: dict[str, list], b: dict[str, list],
                 threshold: float = DEFAULT_REL_THRESHOLD) -> dict:
    """Compare two ``{filename: records}`` sets file-by-file.  The
    report's ``drift`` is True when any record got significantly
    slower or a baseline record disappeared — new records and
    speedups never fail a comparison."""
    files: dict[str, list] = {}
    for filename in sorted(set(a) | set(b)):
        files[filename] = compare_records_stats(
            a.get(filename, []), b.get(filename, []), threshold)
    flat = [row for rows in files.values() for row in rows]
    regressions = sum(r["verdict"] in ("slower", "missing")
                      for r in flat)
    improvements = sum(r["verdict"] == "faster" for r in flat)
    return {
        "v": 1,
        "drift": regressions > 0,
        "regressions": regressions,
        "improvements": improvements,
        "within_noise": sum(r["verdict"] == "~" for r in flat),
        "files": files,
    }


def render_compare(report: dict) -> str:
    lines = []
    for filename, rows in sorted(report["files"].items()):
        lines.append(f"{filename}:")
        for row in rows:
            if "old_wall_s" in row:
                lines.append(
                    f"  [{row['verdict']:>6}] {row['name']}: "
                    f"{row['old_wall_s'] * 1000:.2f}ms -> "
                    f"{row['new_wall_s'] * 1000:.2f}ms "
                    f"({row['delta_pct']:+.1f}%, noise band "
                    f"{row['noise_s'] * 1000:.2f}ms)")
            else:
                lines.append(f"  [{row['verdict']:>6}] {row['name']}: "
                             f"{row['detail']}")
    verdict = "DRIFT" if report["drift"] else "no significant drift"
    lines.append(
        f"{verdict}: {report['regressions']} regression(s), "
        f"{report['improvements']} improvement(s), "
        f"{report['within_noise']} within noise")
    return "\n".join(lines)


def resolve_side(spec: str,
                 baseline_dir: Union[str, pathlib.Path]
                 = "benchmarks/baselines") -> dict[str, list]:
    """Resolve one ``bench compare`` operand to ``{filename:
    records}``: a bench JSON file, a directory of ``BENCH_*.json``,
    the literal ``baseline`` (committed baselines), or ``ledger``
    (newest ledgered bench artifacts)."""
    if spec == "baseline":
        spec = str(baseline_dir)
    if spec == "ledger":
        from repro.obs.regress import baselines_from_ledger
        ledgered = baselines_from_ledger()  # {name: records}
        if not ledgered:
            raise ValueError("no ledgered bench artifacts found")
        return dict(ledgered)
    path = pathlib.Path(spec)
    if path.is_dir():
        out = {p.name: validate_bench_file(p)
               for p in sorted(path.glob("BENCH_*.json"))}
        if not out:
            raise ValueError(f"no BENCH_*.json under {path}")
        return out
    if path.is_file():
        return {path.name: validate_bench_file(path)}
    raise ValueError(f"cannot resolve bench side {spec!r} (expected a "
                     f"file, directory, 'baseline', or 'ledger')")
