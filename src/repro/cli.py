"""Command-line interface.

.. code-block:: text

    python -m repro analyze FILE         # atomicity verdicts + report
    python -m repro blocks FILE          # atomic-block partition (§6.4)
    python -m repro variants FILE        # print the exceptional variants
    python -m repro run FILE T0 T1 ...   # execute under a random schedule
    python -m repro mc FILE T0 ... --mode atomic   # model-check
    python -m repro lint FILE            # discipline linter (docs/LINT.md)
    python -m repro graph stats G.jsonl  # state-graph capture analytics
    python -m repro graph diff A B       # structural drift between runs
    python -m repro analyze --corpus --jobs 4      # parallel corpus pass
    python -m repro experiments section63 --jobs 4 # parallel variant grid
    python -m repro perf diff A B        # attributed perf forensics
    python -m repro experiments NAME     # regenerate a table/figure

Thread specs for ``run``/``mc`` are comma-separated call lists, e.g.
``"AddNode(1),AddNode(2)"`` or ``"UpdateTail()*"`` (trailing ``*`` =
repeat forever).

``analyze``/``blocks``/``variants``/``run``/``mc``/``lint`` accept
the observability flags ``--trace`` (the span tree of the profiler's
regions), ``--metrics`` (flat counts), ``--profile`` (ranked hotspot
table) and ``--json`` (machine-readable output); ``analyze`` also accepts
``--explain`` (per-line classification provenance), ``run``/``mc``
accept ``--explain-cex`` (annotated counterexample timeline on
violation), and ``mc`` accepts ``--progress N`` (live heartbeat with
EWMA throughput + ETA), ``--deadline SECS`` (graceful soft timeout,
exit :data:`EXIT_DEADLINE`), ``--trace-malloc`` (allocation-site
telemetry) and ``--graph-out FILE`` (stream the explored state graph
as schema-versioned JSONL; ``--graph-por-pruned`` additionally records
the transitions POR pruned away).  See docs/OBSERVABILITY.md.

A command's ``--json`` document is the one record of a run: with
``--trace`` it carries the span tree, with ``--profile`` the profile
document (ranked hotspots and collapsed stacks), and no command keeps
a log of its runs or writes a telemetry file beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import re
import sys
from typing import Callable

from repro.analysis import analyze_program, render_figure
from repro.analysis.blocks import partition_procedure
from repro.errors import AssertionViolation, ReproError
from repro.interp import Interp, ThreadSpec, run_random
from repro.mc import Explorer, observers
from repro.obs import NULL_PROFILER, Profiler
from repro.synl.inline import inline_calls
from repro.synl.parser import parse_program
from repro.synl.printer import pretty
from repro.synl.resolve import resolve

#: ``repro mc`` exit code when the state cap was hit (distinct from a
#: property violation's 1 and a usage error's 2)
EXIT_CAPPED = 3

#: ``repro mc`` exit code when ``--deadline`` stopped the search: the
#: verdict is UNKNOWN but the stop was graceful (telemetry and partial
#: counts are intact), so it must not look like a cap or a crash
EXIT_DEADLINE = 4


def _load(path: str, inline: bool = True, with_text: bool = False):
    with open(path) as handle:
        text = handle.read()
    program = parse_program(text)
    if inline:
        program = inline_calls(program)
    resolve(program)
    return (program, text) if with_text else program


#: one thread-spec call, ``NAME(INT, ...)``
_CALL = r"\s*([A-Za-z_]\w*)\s*\(\s*(-?\d+(?:\s*,\s*-?\d+)*)?\s*\)\s*"
_CALL_RE = re.compile(_CALL)
_SPEC_RE = re.compile(rf"(?:{_CALL},)*{_CALL}")


def _parse_spec(text: str) -> ThreadSpec:
    """``"P(1,2),Q()"`` -> a two-call script; a trailing ``*`` repeats
    it forever.  Anything else is a usage error."""
    repeat = text.endswith("*")
    body = text[:-1] if repeat else text
    if not _SPEC_RE.fullmatch(body):
        raise ReproError(
            f"bad thread spec {text!r}: expected comma-separated "
            f"NAME(INT, ...) calls, optionally followed by '*'")
    calls = [(m.group(1),) + tuple(int(a) for a in (m.group(2) or "")
                                   .split(",") if a.strip())
             for m in _CALL_RE.finditer(body)]
    return ThreadSpec.of(*calls, repeat=repeat)


def _number(kind: type, ok: Callable, what: str):
    """argparse ``type=``: a finite ``kind`` value satisfying ``ok``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value) or not ok(value):
            raise argparse.ArgumentTypeError(
                f"expected {what}, got {text!r}")
        return value
    return parse


_count = _number(int, lambda n: n >= 1, "an integer >= 1")
_keep = _number(int, lambda n: n >= 0, "an integer >= 0")
_period = _number(float, lambda x: x > 0, "a finite number > 0")
_budget = _number(float, lambda x: x >= 0, "a finite number >= 0")


def _obs_setup(args) -> Profiler:
    """The run's profiler: recording under ``--trace`` or
    ``--profile``, the shared disabled one otherwise."""
    return Profiler() if args.trace or args.profile else NULL_PROFILER


def _emit_obs(args, profiler: Profiler, metrics: dict) -> None:
    """The text-mode views the obs flags ask for: the counts
    (``--metrics``), the span tree (``--trace``) and the ranked
    hotspot table (``--profile``)."""
    if args.metrics and metrics:
        print("\n-- metrics --")
        for name, value in sorted(metrics.items()):
            print(f"{name}: {value}")
    if args.trace:
        print("\n-- trace --")
        print(profiler.render_spans())
    if args.profile:
        print("\n-- profile (ranked hotspots) --")
        print(profiler.render())


def _print_json(doc: dict, args, profiler: Profiler,
                spans: str = "trace") -> None:
    """Print a ``--json`` document with the telemetry the obs flags
    ask for, and none they do not: the span tree under ``spans`` with
    ``--trace`` and the profile document under ``profile`` with
    ``--profile``.  ``run`` and ``mc`` name the span key ``spans``,
    since their ``trace`` is the executed path."""
    for key, asked, view in ((spans, args.trace, profiler.spans),
                             ("profile", args.profile,
                              profiler.to_dict)):
        if asked:
            doc[key] = view()
        else:
            doc.pop(key, None)
    print(json.dumps(doc, indent=2))


def _analyze_with_obs(args):
    profiler = _obs_setup(args)
    with profiler.region("analysis.parse_resolve"):
        program, text = _load(args.file, with_text=True)
    result = analyze_program(program, profiler=profiler,
                             source_text=text)
    return profiler, result


def _summary_store_for(args):
    """The summary store for this invocation, or None for a plain
    (non-incremental) run."""
    from repro.analysis.summaries import engine as summaries

    return summaries.resolve_store(
        getattr(args, "summary_store", None),
        getattr(args, "incremental", False))


def _analyze_incremental(args, store):
    """The --incremental analyze path: resolve through the summary
    store; a full hit replays the stored verdicts without running any
    pass."""
    from repro.analysis.summaries import engine as summaries

    profiler = _obs_setup(args)
    with open(args.file) as handle:
        text = handle.read()
    result, info = summaries.analyze_with_summaries(
        text, store=store, label=args.file, profiler=profiler)
    return profiler, result, info


def _figure_text(result, explain: bool) -> str:
    if getattr(result, "cached", False):
        return result.figure(explain)
    return render_figure(result, explain=explain)


def cmd_analyze(args) -> int:
    if args.corpus:
        return _cmd_analyze_corpus(args)
    if args.file is None:
        print("error: analyze needs a FILE (or --corpus)",
              file=sys.stderr)
        return 2
    store = _summary_store_for(args)
    info = None
    if store is not None:
        profiler, result, info = _analyze_incremental(args, store)
    else:
        profiler, result = _analyze_with_obs(args)
    if args.json:
        doc = result.to_dict()
        # the key set must not depend on the cache: a miss says so,
        # and a hit, which has no spans of its own, gets the
        # profiler's from _print_json like every other run
        if info is not None:
            doc["cached"] = info["cached"]
        _print_json(doc, args, profiler)
    else:
        print(_figure_text(result, args.explain))
        print()
        for name, verdict in result.verdicts.items():
            print(f"{name}: "
                  f"{'ATOMIC' if verdict.atomic else 'not shown atomic'}")
        for diag in result.diagnostics:
            print(f"note: {diag}")
        if result.lint is not None and result.lint.findings:
            print()
            print("-- lint --")
            for finding in result.lint.findings:
                print(finding.render())
        if args.explain and result.downgrades:
            print()
            print("-- downgraded theorem applications --")
            for d in result.downgrades:
                print(f"{d['detail']}")
        metrics = dict(result.metrics)
        if info is not None:
            from repro.analysis.summaries import engine as summaries

            print()
            print("-- summary cache --")
            print(f"procs: {len(info['hits'])} hit, "
                  f"{len(info['misses'])} miss "
                  f"({len(info['invalidated'])} invalidated); program "
                  f"{'hit (replayed)' if info['cached'] else 'miss'}")
            metrics.update(summaries.summary_counts(
                [summaries.summary_row(result, info)]))
        _emit_obs(args, profiler, metrics)
    if info is not None and info["drift"]:
        _print_summary_drift(info["drift"])
        return 1
    return 0 if args.lenient or result.all_atomic else 1


def _print_summary_drift(drift: list[dict]) -> None:
    """Render cached-vs-fresh disagreements as drift tables (exit 1
    follows — a drifting cache is the soundness alarm)."""
    from repro.analysis.summaries import engine as summaries

    print(file=sys.stderr)
    print("summary cache drift: cached verdicts disagree with a "
          "fresh recompute", file=sys.stderr)
    for entry in drift:
        print(f"\n{entry['program']} / {entry['proc']}:",
              file=sys.stderr)
        print(summaries.render_drift(entry["diff"]), file=sys.stderr)


def _cmd_analyze_corpus(args) -> int:
    """``repro analyze --corpus``: every corpus/examples program
    through one shared summary store.  Exit 1 when any cached verdict
    disagrees with a fresh recompute, 2 when a program fails to
    analyze; atomicity verdicts do not affect the exit code (most
    corpus programs are intentionally non-atomic)."""
    from repro.analysis.summaries import engine as summaries
    from repro.obs.export import run_meta

    profiler = _obs_setup(args)
    store = _summary_store_for(args) or summaries.resolve_store(
        None, True)
    jobs = args.jobs
    if jobs > 1 and profiler.enabled:
        # workers return values, not telemetry
        print("note: --jobs runs the corpus in-process when a trace "
              "or profile is recorded", file=sys.stderr)
        jobs = 1
    report = summaries.analyze_corpus(store, profiler=profiler,
                                      jobs=jobs)
    if args.json:
        _print_json({"programs": report["rows"],
                     "errors": report["errors"],
                     "drift": report["drift"],
                     "stats": report["stats"],
                     "run_meta": run_meta()}, args, profiler)
    else:
        width = max((len(r["label"]) for r in report["rows"]),
                    default=8)
        print(f"{'program':<{width}}  procs  hit  miss  inval  "
              f"cached  atomic")
        for row in report["rows"]:
            print(f"{row['label']:<{width}}  "
                  f"{row['procs']:>5}  {row['hits']:>3}  "
                  f"{row['misses']:>4}  {row['invalidated']:>5}  "
                  f"{'yes' if row['cached'] else 'no':<6}  "
                  f"{'yes' if row['atomic'] else 'no'}")
        for err in report["errors"]:
            print(f"{err['label']}: error: {err['error']}")
        stats = report["stats"]
        print(f"store {stats['root']}: {stats['procs']} proc / "
              f"{stats['programs']} program record(s), "
              f"{stats['bytes']} bytes")
        _emit_obs(args, profiler,
                  summaries.summary_counts(report["rows"]))
    if report["drift"]:
        _print_summary_drift(report["drift"])
        return 1
    return 2 if report["errors"] else 0


def cmd_summaries(args) -> int:
    """Summary-store maintenance and soundness canaries
    (docs/ANALYSIS.md)."""
    from repro.analysis.summaries import engine as summaries
    from repro.obs.export import run_meta

    if args.summaries_cmd == "canary":
        return _cmd_summaries_canary(args)
    store = summaries.resolve_store(args.store, True)
    if args.summaries_cmd == "list":
        entries = store.entries()
        if args.json:
            print(json.dumps({"entries": entries,
                              "stats": store.stats()}, indent=2))
            return 0
        for entry in entries:
            print(f"{entry['kind']:<7} {entry['key']}  "
                  f"{entry['name']} ({entry['bytes']} bytes)")
        stats = store.stats()
        print(f"{stats['procs']} proc / {stats['programs']} program "
              f"record(s), {stats['bytes']} bytes under "
              f"{stats['root']}")
        return 0
    if args.summaries_cmd == "show":
        for record in store.records():
            if record["key"].startswith(args.key):
                print(json.dumps(record, indent=2, sort_keys=True))
                return 0
        print(f"error: no summary record matches key {args.key!r}",
              file=sys.stderr)
        return 2
    if args.summaries_cmd == "gc":
        removed = store.gc(keep=args.keep)
        print(f"removed {len(removed)} record(s), kept the "
              f"{args.keep} most recent per kind under {store.root}")
        return 0
    # verify: recompute a sampled subset of stored program records
    # and diff against the stored docs — the soundness canary.
    report = summaries.verify_store(store, sample=args.sample)
    if args.json:
        print(json.dumps({**report, "run_meta": run_meta()},
                         indent=2))
    else:
        print(f"verified {report['checked']} stored program "
              f"record(s): {len(report['mismatches'])} mismatch(es)")
        for entry in report["mismatches"]:
            print(f"\n{entry['label']} ({entry['key']}):")
            print(summaries.render_drift(entry["diff"]))
    return 1 if report["mismatches"] else 0


def _cmd_summaries_canary(args) -> int:
    """Warm-cache canary (the CI job): analyze the corpus twice into
    a fresh store; the second pass must be 100% hits with verdicts
    byte-identical modulo ``run_meta``/``cached`` and no drift."""
    import tempfile

    from repro.analysis.summaries import engine as summaries
    from repro.obs.export import run_meta
    from repro.obs.schemas import SUMMARY

    store_dir = args.store or tempfile.mkdtemp(prefix="repro-canary-")
    report = summaries.warm_canary(store_dir)
    doc = {"v": SUMMARY, "kind": "summary-stats", "canary": True,
           "ok": report["ok"], "programs": report["programs"],
           "rows": report["rows"], "stats": report["stats"],
           "run_meta": run_meta()}
    if args.stats_out:
        with open(args.stats_out, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        verdict = "PASS" if report["ok"] else "FAIL"
        print(f"warm-cache canary: {verdict} "
              f"({report['programs']} program(s), second pass "
              f"{'100% hits' if not report['not_cached'] else 'MISSED: ' + ', '.join(report['not_cached'])})")
        stats = report["stats"]
        print(f"store: {stats['procs']} proc / {stats['programs']} "
              f"program record(s), {stats['bytes']} bytes")
        for entry in report["mismatched"]:
            print(f"\n{entry['label']}: cold/warm verdicts differ:")
            print(summaries.render_drift(entry["diff"]))
        for err in report["cold_errors"] + report["warm_errors"]:
            print(f"{err['label']}: error: {err['error']}")
    if report["drift"]:
        _print_summary_drift(report["drift"])
    return 0 if report["ok"] else 1


def cmd_blocks(args) -> int:
    profiler, result = _analyze_with_obs(args)
    partitions = {name: partition_procedure(result, name)
                  for name in result.verdicts}
    if args.json:
        doc = {
            "procedures": [
                {"name": name,
                 "partitions": [
                     {"variant": p.variant_name,
                      "n_lines": p.n_lines,
                      "n_blocks": p.n_blocks,
                      "blocks": [
                          {"atomicity": str(b.atomicity),
                           "lines": [line.text for line in b.lines]}
                          for b in p.blocks]}
                     for p in parts]}
                for name, parts in partitions.items()],
        }
        if result.metrics:
            doc["metrics"] = dict(result.metrics)
        _print_json(doc, args, profiler)
        return 0
    for parts in partitions.values():
        for partition in parts:
            print(partition.render())
            print()
    _emit_obs(args, profiler, result.metrics)
    return 0


def cmd_variants(args) -> int:
    profiler = _obs_setup(args)
    with profiler.region("analysis.parse_resolve"):
        program = _load(args.file)
    result = analyze_program(program, profiler=profiler)
    if args.json:
        doc = {"variants": [{"name": v.name,
                             "procedure": v.proc.name,
                             "source": pretty(v.proc)}
                            for v in result.variant_set.variants]}
        if result.metrics:
            doc["metrics"] = dict(result.metrics)
        _print_json(doc, args, profiler)
        return 0
    for variant in result.variant_set.variants:
        print(pretty(variant.proc))
        print()
    _emit_obs(args, profiler, result.metrics)
    return 0


def _explain_cex(args, result, interp):
    """Annotate a violating path against a fresh analysis of the same
    source (best-effort: an unanalyzable program still renders the
    bare timeline)."""
    from repro.mc.cex import build_cex

    try:
        analysis = analyze_program(_load(args.file))
    except ReproError:
        analysis = None
    return build_cex(result, interp, analysis)


def cmd_run(args) -> int:
    profiler = _obs_setup(args)
    with profiler.region("run.parse_resolve"):
        program = _load(args.file)
    interp = Interp(program)
    specs = [_parse_spec(s) for s in args.threads]
    world = interp.make_world(specs)
    path_log = [] if (args.explain_cex or args.json) else None
    violation = None
    with profiler.region("run.execute", seed=args.seed):
        try:
            run_random(interp, world, seed=args.seed,
                       max_steps=args.max_steps, path_log=path_log)
        except AssertionViolation as exc:
            violation = str(exc)
    cex = None
    if violation is not None and args.explain_cex:
        from repro.mc.cex import RunResultView
        cex = _explain_cex(
            args, RunResultView(violation, path_log), interp)
    done = all(t.done for t in world.threads)
    if args.json:
        doc = {
            "seed": args.seed,
            "violation": violation,
            "done": done,
            "history": [str(e) for e in world.history],
        }
        if path_log is not None:
            doc["path"] = path_log
        if cex is not None:
            doc["counterexample"] = cex.to_dict()
        _print_json(doc, args, profiler, spans="spans")
        return 1 if violation is not None else 0
    for event in world.history:
        print(event)
    if violation is not None:
        print(f"-- assertion violation (seed={args.seed}): {violation}")
        if cex is not None:
            print()
            print(cex.render())
    else:
        status = "all threads done" if done else "step budget exhausted"
        print(f"-- {status} (seed={args.seed})")
    _emit_obs(args, profiler, {})
    return 1 if violation is not None else 0


def cmd_mc(args) -> int:
    profiler = _obs_setup(args)
    program = _load(args.file)
    interp = Interp(program)
    specs = [_parse_spec(s) for s in args.threads]
    # uid -> (proc, text, mover) source annotations back the heatmap
    # document (--json) and the graph edges' mover tags (--graph-out);
    # best-effort — an unanalyzable program still runs, unannotated
    analysis = annotations = None
    if args.graph_out or args.json:
        from repro.obs import heatmap
        try:
            analysis = analyze_program(_load(args.file))
        except ReproError:
            analysis = None
        annotations = heatmap.uid_annotations(interp, analysis)
    graph = None
    if args.graph_out:
        from repro.obs.graph import GraphWriter, stable_uid_map
        graph = GraphWriter(args.graph_out, mode=args.mode,
                            threads=len(specs),
                            record_pruned=args.graph_por_pruned,
                            mover_of=heatmap.mover_fn(annotations),
                            uid_map=stable_uid_map(interp))
    observer = observers.compose(
        # the per-call timers feed only the hotspot table: --trace
        # alone keeps the mc.run > mc.init, mc.dfs spans without them
        observers.Profile(profiler, timed=args.profile)
        if profiler.enabled else None,
        observers.Heartbeat(args.progress, args.deadline)
        if args.progress is not None or args.deadline is not None
        else None,
        observers.TraceMalloc() if args.trace_malloc else None,
        observers.Coverage(),
        graph)
    try:
        result = Explorer(interp, specs, mode=args.mode,
                          max_states=args.max_states,
                          observer=observer).run()
    finally:
        if graph is not None:
            graph.close()
    cex = None
    if result.violation and args.explain_cex:
        cex = _explain_cex(args, result, interp)
    if args.json:
        doc = result.to_dict()
        if annotations is not None:
            doc["heatmap"] = heatmap.build_heatmap(
                result.metrics["mc.stmt_heat"], annotations,
                annotated=analysis is not None)
        if cex is not None:
            doc["counterexample"] = cex.to_dict()
        _print_json(doc, args, profiler, spans="spans")
    else:
        print(result)
        if cex is not None:
            print()
            print(cex.render())
        elif result.violation:
            for step in result.trace:
                print(f"  {step}")
        _emit_obs(args, profiler, result.metrics)
    if result.violation:
        return 1
    if result.deadline_hit:
        print(f"note: deadline reached after {result.states} states "
              f"({result.elapsed:.2f}s); verdict UNKNOWN — the "
              f"search stopped gracefully with partial telemetry "
              f"intact (raise --deadline to finish)",
              file=sys.stderr)
        return EXIT_DEADLINE
    if result.capped:
        print(f"error: state cap reached ({result.states} states "
              f"explored); the search is incomplete — raise "
              f"--max-states (currently {args.max_states})",
              file=sys.stderr)
        return EXIT_CAPPED
    return 0


def cmd_lint(args) -> int:
    """Discipline linter (docs/LINT.md).  Exit codes: 0 clean (or
    manifest fully matched), 1 warnings only (or manifest deviation),
    2 errors."""
    from repro.analysis.lint import lint_counts, lint_program
    from repro.obs.export import LINT_REPORT_SCHEMA, validate

    profiler = _obs_setup(args)
    rules = [r.strip() for r in (args.rules or "").split(",")
             if r.strip()] or None

    targets: list[tuple[str, str]] = []
    if args.corpus:
        from repro import corpus as corpus_mod
        for name in corpus_mod.__all__:
            targets.append((name, getattr(corpus_mod, name)))
    for path in args.files:
        with open(path) as handle:
            targets.append((path, handle.read()))
    if not targets:
        print("error: nothing to lint (give FILE arguments and/or "
              "--corpus)", file=sys.stderr)
        return 2

    results = []
    for label, source in targets:
        with profiler.region("lint.target", target=label):
            results.append(lint_program(
                source, label=label, rules=rules, profiler=profiler))

    if args.manifest:
        with open(args.manifest) as handle:
            manifest = json.load(handle)
        expected = manifest.get("expected", {})
        failures: list[str] = []
        seen = set()
        for res in results:
            seen.add(res.target)
            want = expected.get(res.target, {})
            got = res.counts_by_rule()
            if got != want:
                for rule in sorted(set(want) | set(got)):
                    w, g = want.get(rule, 0), got.get(rule, 0)
                    if w != g:
                        failures.append(
                            f"{res.target}: {rule} expected {w}, "
                            f"got {g}")
        for name in sorted(set(expected) - seen):
            failures.append(f"{name}: listed in manifest but not "
                            f"linted in this run")
        if args.json:
            _print_json({"v": 1, "matched": not failures,
                         "failures": failures}, args, profiler)
        elif failures:
            for line in failures:
                print(f"MISMATCH {line}")
        else:
            print(f"manifest ok: {len(results)} target(s) match "
                  f"{args.manifest}")
        return 1 if failures else 0

    if args.json:
        doc = {"v": 1, "targets": [r.to_dict() for r in results]}
        errors = validate(doc, LINT_REPORT_SCHEMA)
        if errors:  # defensive: to_dict and schema must stay in sync
            print("error: lint JSON failed schema validation: "
                  + "; ".join(errors), file=sys.stderr)
            return 2
        _print_json(doc, args, profiler)
    else:
        for res in results:
            print(res.render())
        _emit_obs(args, profiler, lint_counts(results))
    if any(r.errors for r in results):
        return 2
    if any(r.warnings for r in results):
        return 1
    return 0


def _diff_command(args, compute: Callable[[], dict],
                  render: Callable[[dict], str],
                  drifted: Callable[[dict], bool]) -> int:
    """The one output and exit path of ``graph diff`` and ``perf
    diff``: exit 0 when ``compute()``'s document shows no drift, 1 on
    drift, 2 when an operand is unreadable.  ``--out``
    (``perf diff`` only) writes the document whatever the verdict, so
    CI uploads it from failing and passing runs alike; ``--json``
    prints it instead of the rendered text."""
    try:
        doc = compute()
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = getattr(args, "out", None)
    if out:
        path = pathlib.Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2) if args.json else render(doc))
    return 1 if drifted(doc) else 0


def cmd_perf(args) -> int:
    """Perf regression forensics (docs/OBSERVABILITY.md).  ``diff``
    resolves two operands — ``bench/run.py --out`` JSONL records or
    directories of them — and prints the ranked work-counter
    attribution table.  Exit 0 when no attributed drift
    (identical seeded runs diff empty by construction), 1 on drift, 2
    on a usage error."""
    from repro.obs import perfdiff

    threshold = args.threshold if args.threshold is not None \
        else perfdiff.DEFAULT_THRESHOLD
    return _diff_command(
        args, lambda: perfdiff.diff_specs(args.a, args.b,
                                          threshold=threshold),
        perfdiff.render_attribution, lambda doc: doc["drift"])


def cmd_graph(args) -> int:
    """State-graph capture analytics (docs/OBSERVABILITY.md).

    ``stats`` prints structural analytics of one capture, ``dot``
    exports small captures as GraphViz DOT, ``diff`` compares two
    captures by canonical node/edge ids (exit 0 identical, 1 drifted,
    2 usage error)."""
    from repro.obs import graph as graph_mod

    if args.graph_cmd == "diff":
        return _diff_command(
            args, lambda: graph_mod.diff_graphs(
                graph_mod.read_graph(args.a),
                graph_mod.read_graph(args.b)),
            lambda doc: graph_mod.render_diff(doc, args.a, args.b),
            lambda doc: not doc["identical"])
    try:
        if args.graph_cmd == "stats":
            stats = graph_mod.graph_stats(
                graph_mod.read_graph(args.capture))
            if args.json:
                print(json.dumps(stats, indent=2))
            else:
                print(graph_mod.render_stats(stats))
            return 0
        cap = args.max_nodes if args.max_nodes is not None \
            else graph_mod.DEFAULT_DOT_CAP
        dot = graph_mod.to_dot(graph_mod.read_graph(args.capture),
                               max_nodes=cap)
        if args.output:
            pathlib.Path(args.output).write_text(dot)
            print(f"wrote {args.output}")
        else:
            print(dot)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_experiments(args) -> int:
    """Regenerate a table/figure of the paper.  ``--json`` emits a
    machine-readable document (for ``section63``, the deterministic
    per-mode ``verdicts`` and ``matches_paper`` beside the text), and
    ``section63 --jobs N`` fans the none/por/atomic/both variant grid
    across forked worker processes."""
    from repro import experiments

    module = getattr(experiments, args.name, None)
    if module is None or not hasattr(module, "main"):
        names = ", ".join(experiments.__all__)
        print(f"unknown experiment {args.name!r}; one of: {names}",
              file=sys.stderr)
        return 2
    doc: dict = {"name": args.name}
    if args.name == "section63":
        from repro.experiments import section63

        n_threads = args.threads if args.threads is not None else 3
        kwargs = {"n_threads": n_threads, "jobs": args.jobs}
        if args.max_states is not None:
            kwargs["max_states"] = args.max_states
        result = section63.run(**kwargs)
        text = section63.render(result, n_threads)
        doc["verdicts"] = result.verdicts()
        doc["matches_paper"] = result.matches_paper
    else:
        if args.jobs > 1:
            print(f"note: --jobs applies to the section63 variant "
                  f"grid; running {args.name!r} in-process",
                  file=sys.stderr)
        text = module.main()
    if args.json:
        doc["text"] = text
        print(json.dumps(doc, indent=2))
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Static atomicity analysis for non-blocking "
                    "programs (Wang & Stoller, PPoPP 2005)")
    sub = parser.add_subparsers(dest="command", required=True)

    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument("--trace", action="store_true",
                     help="print the span tree of the timed regions; "
                          "with --json, embed it in the document")
    obs.add_argument("--metrics", action="store_true",
                     help="print the metrics report")
    obs.add_argument("--json", action="store_true",
                     help="emit a machine-readable JSON document "
                          "instead of text")
    obs.add_argument("--profile", action="store_true",
                     help="deterministic work-counter profiler: ranked "
                          "hotspot table in text output, 'profile' "
                          "document (hotspots and collapsed stacks) "
                          "in --json")

    p = sub.add_parser("analyze", parents=[obs],
                       help="run the atomicity inference")
    p.add_argument("file", nargs="?",
                   help="SYNL source file (omit with --corpus)")
    p.add_argument("--lenient", action="store_true",
                   help="exit 0 even when procedures are not atomic")
    p.add_argument("--explain", action="store_true",
                   help="annotate every line with its classification "
                        "provenance (which theorem fired)")
    p.add_argument("--incremental", action="store_true",
                   help="resolve through the content-addressed "
                        "summary cache (docs/ANALYSIS.md); also: "
                        "REPRO_SUMMARIES=DIR")
    p.add_argument("--summary-store", metavar="DIR",
                   help="summary store directory (implies "
                        "--incremental; default .repro/summaries)")
    p.add_argument("--corpus", action="store_true",
                   help="analyze every corpus/examples program "
                        "through one shared store; exit 1 when any "
                        "cached verdict disagrees with a fresh "
                        "recompute")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="with --corpus: fan targets across N forked "
                        "worker processes; output is byte-identical "
                        "to a sequential pass, which a trace or "
                        "profile forces")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("blocks", parents=[obs],
                       help="atomic-block partition (§6.4)")
    p.add_argument("file")
    p.set_defaults(fn=cmd_blocks)

    p = sub.add_parser("variants", parents=[obs],
                       help="print exceptional variants")
    p.add_argument("file")
    p.set_defaults(fn=cmd_variants)

    p = sub.add_parser("run", parents=[obs],
                       help="execute under a random schedule")
    p.add_argument("file")
    p.add_argument("threads", nargs="+",
                   help='thread specs, e.g. "Enq(1),Deq()" "Up()*"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_count, default=100_000)
    p.add_argument("--explain-cex", action="store_true",
                   help="on violation, render the interleaving as an "
                        "annotated per-thread timeline (mover types + "
                        "theorem citations)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("mc", parents=[obs],
                       help="explicit-state model checking")
    p.add_argument("file")
    p.add_argument("threads", nargs="+")
    p.add_argument("--mode", default="full",
                   choices=["full", "por", "atomic", "both"])
    p.add_argument("--max-states", type=_count, default=1_000_000,
                   help="abort the search after N states (a capped "
                        "run exits with status 3)")
    p.add_argument("--explain-cex", action="store_true",
                   help="on violation, render the counterexample as "
                        "an annotated per-thread timeline (mover "
                        "types + theorem citations)")
    p.add_argument("--progress", type=_period, metavar="SECONDS",
                   default=None,
                   help="print a live heartbeat (states/transitions/"
                        "frontier/depth/RSS) to stderr every N "
                        "seconds, plus a final summary beat")
    p.add_argument("--trace-malloc", action="store_true",
                   help="record top allocation sites via tracemalloc "
                        "(mc.malloc_top metric; slows the search)")
    p.add_argument("--deadline", type=_budget, metavar="SECONDS",
                   default=None,
                   help="soft wall-clock budget: stop the search "
                        "gracefully after N seconds with verdict "
                        "UNKNOWN, partial counts and full telemetry "
                        f"(exit status {EXIT_DEADLINE})")
    p.add_argument("--graph-out", metavar="FILE", default=None,
                   help="stream the visited state graph as JSONL "
                        "(canonical-hash node ids, mover-tagged "
                        "edges; inspect with 'repro graph'; record "
                        "emission thins out above "
                        "$REPRO_GRAPH_NODE_CAP nodes)")
    p.add_argument("--graph-por-pruned", action="store_true",
                   help="additionally record the transitions POR "
                        "elected not to explore (separate 'pruned' "
                        "records; executes the not-taken successors, "
                        "so the search does full-expansion work)")
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("lint", parents=[obs],
                       help="rule-based discipline linter "
                            "(docs/LINT.md); exit 2 on errors")
    p.add_argument("files", nargs="*",
                   help="SYNL source files to lint")
    p.add_argument("--corpus", action="store_true",
                   help="also lint every shipped corpus program")
    p.add_argument("--manifest", metavar="FILE",
                   help="expected-findings manifest (JSON mapping "
                        "target -> {rule: count}); exit 1 on any "
                        "deviation, 0 when everything matches")
    p.add_argument("--rules", metavar="IDS",
                   help="comma-separated rule ids or family prefixes "
                        "to report (e.g. 'llsc,race.unlocked')")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("perf",
                       help="perf regression forensics: differential "
                            "profiling with ranked attribution "
                            "(docs/OBSERVABILITY.md)")
    perf_sub = p.add_subparsers(dest="perf_cmd", required=True)
    q = perf_sub.add_parser(
        "diff", help="ranked work-counter attribution between two "
                     "traced benchmark runs (exit 1 on attributed "
                     "drift, 0 when identical seeded runs diff empty)")
    q.add_argument("a", help="older side: a bench/run.py --out JSONL "
                             "file or a directory of them")
    q.add_argument("b", help="newer side (same forms)")
    q.add_argument("--threshold", type=_budget, default=None,
                   metavar="FRAC",
                   help="relative attributed-work growth a region "
                        "must exceed to gate (default: 0.25)")
    q.add_argument("--out", metavar="FILE", default=None,
                   help="also write the attribution document as JSON "
                        "(written on drift and no-drift alike — the "
                        "CI artifact)")
    q.add_argument("--json", action="store_true",
                   help="emit the attribution document instead of "
                        "the table")
    q.set_defaults(fn=cmd_perf)

    p = sub.add_parser("graph",
                       help="state-graph capture analytics: stats, "
                            "DOT export, structural diff "
                            "(docs/OBSERVABILITY.md)")
    graph_sub = p.add_subparsers(dest="graph_cmd", required=True)
    q = graph_sub.add_parser(
        "stats", help="node/edge/pruned counts, branching and "
                      "in-degree distributions, depth layers, "
                      "terminal/quiescent sets, POR reduction ratio")
    q.add_argument("capture", help="a --graph-out JSONL capture")
    q.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON document "
                        "instead of text")
    q.set_defaults(fn=cmd_graph)
    q = graph_sub.add_parser(
        "dot", help="export a small capture as GraphViz DOT "
                    "(mover-coloured edges, pruned edges dotted)")
    q.add_argument("capture", help="a --graph-out JSONL capture")
    q.add_argument("-o", "--output", default=None, metavar="FILE",
                   help="write to FILE instead of stdout")
    q.add_argument("--max-nodes", type=int, default=None,
                   metavar="N", help="refuse captures with more than "
                                     "N retained nodes (default: 250)")
    q.set_defaults(fn=cmd_graph)
    q = graph_sub.add_parser(
        "diff", help="compare two captures by canonical node/edge "
                     "ids (exit 1 on drift)")
    q.add_argument("a", help="older capture")
    q.add_argument("b", help="newer capture")
    q.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON document "
                        "instead of text")
    q.set_defaults(fn=cmd_graph)

    p = sub.add_parser("experiments",
                       help="regenerate a table/figure of the paper")
    p.add_argument("name", help="figure3, figure4, figure567, table2, "
                                "section63, section64, ablations, or "
                                "crossval")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON document "
                        "instead of text")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="section63: fan the none/por/atomic/both "
                        "variant grid across N forked worker "
                        "processes; per-mode verdicts are identical "
                        "to a sequential run")
    p.add_argument("--threads", type=_count, default=None, metavar="N",
                   help="section63: driver threads (default: 3)")
    p.add_argument("--max-states", type=_count, default=None,
                   metavar="N",
                   help="section63: per-mode state cap (default: "
                        "2000000)")
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser("summaries",
                       help="inspect the incremental-analysis "
                            "summary store (docs/ANALYSIS.md)")
    sum_common = argparse.ArgumentParser(add_help=False)
    sum_common.add_argument("--store", metavar="DIR",
                            help="summary store directory (default: "
                                 "$REPRO_SUMMARIES or "
                                 ".repro/summaries)")
    sum_common.add_argument("--json", action="store_true",
                            help="emit JSON instead of text")
    sum_sub = p.add_subparsers(dest="summaries_cmd", required=True)
    q = sum_sub.add_parser("list", parents=[sum_common],
                           help="stored summary records")
    q.set_defaults(fn=cmd_summaries)
    q = sum_sub.add_parser("show", parents=[sum_common],
                           help="print one record as JSON")
    q.add_argument("key", help="record key (or unique prefix)")
    q.set_defaults(fn=cmd_summaries)
    q = sum_sub.add_parser("gc", parents=[sum_common],
                           help="drop all but the most recent "
                                "records")
    q.add_argument("--keep", type=_keep, metavar="N", default=256,
                   help="records to keep per kind (default: 256)")
    q.set_defaults(fn=cmd_summaries)
    q = sum_sub.add_parser("verify", parents=[sum_common],
                           help="recompute a sampled subset and diff "
                                "against the stored verdicts (exit 1 "
                                "on any mismatch)")
    q.add_argument("--sample", type=_keep, metavar="N", default=5,
                   help="program records to recompute (default: 5; "
                        "0 recomputes every record)")
    q.set_defaults(fn=cmd_summaries)
    q = sum_sub.add_parser("canary", parents=[sum_common],
                           help="warm-cache canary: corpus twice "
                                "into a fresh store; second pass "
                                "must be 100%% hits with identical "
                                "verdicts (exit 1 otherwise)")
    q.add_argument("--stats-out", metavar="FILE",
                   help="write the canary/store stats document "
                        "(the CI artifact; renders as the report's "
                        "'Summary cache' block)")
    q.set_defaults(fn=cmd_summaries)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
