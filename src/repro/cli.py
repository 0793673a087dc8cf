"""Command-line interface.

.. code-block:: text

    python -m repro analyze FILE         # atomicity verdicts + report
    python -m repro analyze --corpus     # one pass over the corpus
    python -m repro blocks FILE          # atomic-block partition (§6.4)
    python -m repro variants FILE        # print the exceptional variants
    python -m repro run FILE T0 T1 ...   # execute under a random schedule
    python -m repro mc FILE T0 ... --mode atomic   # model-check
    python -m repro lint FILE            # discipline linter (docs/LINT.md)
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
exit :data:`EXIT_DEADLINE`) and ``--trace-malloc`` (allocation-site
telemetry).  See docs/OBSERVABILITY.md.

A command's ``--json`` document is the one record of a run: with
``--trace`` it carries the span tree, with ``--profile`` the profile
document (ranked hotspots and collapsed stacks), and no command keeps
a log of its runs or writes a telemetry file beside it.

Each command imports what it runs, inside its ``cmd_*`` function:
this module loads only the analysis, so ``analyze``, ``blocks``,
``variants`` and ``lint`` never load (nor, without cached bytecode,
compile) the interpreter, the model checker or, unless ``--json``
needs it, :mod:`repro.obs.export`.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import re
import sys
from typing import TYPE_CHECKING, Callable

from repro.analysis import analyze_program, render_figure
from repro.analysis.blocks import partition_procedure
from repro.analysis.report import statement_join
from repro.errors import AssertionViolation, ReproError
from repro.obs import NULL_PROFILER, Profiler
from repro.synl.printer import pretty
from repro.synl.resolve import load_program

if TYPE_CHECKING:
    from repro.interp import ThreadSpec

#: ``repro mc`` exit code when the state cap was hit (distinct from a
#: property violation's 1 and a usage error's 2)
EXIT_CAPPED = 3

#: ``repro mc`` exit code when ``--deadline`` stopped the search: the
#: verdict is UNKNOWN but the stop was graceful (telemetry and partial
#: counts are intact), so it must not look like a cap or a crash
EXIT_DEADLINE = 4


def _source(path: str) -> str:
    """The text of ``path``.  A file that cannot be read as UTF-8 text
    (missing, a directory, not UTF-8) is a usage error naming it."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ReproError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ReproError(f"{path}: not UTF-8 text ({exc.reason} at "
                         f"byte {exc.start})") from None


def _analyze(args, profiler: Profiler = NULL_PROFILER):
    """The analysis of ``args.file``, for every command that analyzes
    one: the checker parses the text itself, so its lint pass reads the
    file's ``// lint: ignore[...]`` suppressions."""
    return analyze_program(_source(args.file), profiler=profiler)


#: one thread-spec call, ``NAME(INT, ...)``
_CALL = r"\s*([A-Za-z_]\w*)\s*\(\s*(-?\d+(?:\s*,\s*-?\d+)*)?\s*\)\s*"
_CALL_RE = re.compile(_CALL)
_SPEC_RE = re.compile(rf"(?:{_CALL},)*{_CALL}")


def _parse_spec(text: str) -> ThreadSpec:
    """``"P(1,2),Q()"`` -> a two-call script; a trailing ``*`` repeats
    it forever.  Anything else is a usage error."""
    from repro.interp import ThreadSpec

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


def _telemetry(args, profiler: Profiler, spans: str = "trace") -> dict:
    """The telemetry the obs flags ask for, and none they do not, each
    built once: the span tree under ``spans`` with ``--trace`` and the
    profile document under ``profile`` with ``--profile``.  ``run``
    and ``mc`` name the span key ``spans``, since their ``trace`` is
    the executed path."""
    out = {}
    if args.trace:
        out[spans] = profiler.spans()
    if args.profile:
        out["profile"] = profiler.to_dict()
    return out


def _print_json(doc: dict, telemetry: dict) -> None:
    """Print a ``--json`` document with ``telemetry``
    (:func:`_telemetry`) at its end."""
    doc.update(telemetry)
    print(json.dumps(doc, indent=2))


def _analyze_with_obs(args):
    profiler = _obs_setup(args)
    return profiler, _analyze(args, profiler)


def cmd_analyze(args) -> int:
    if args.corpus:
        return _cmd_analyze_corpus(args)
    if args.file is None:
        print("error: analyze needs a FILE (or --corpus)",
              file=sys.stderr)
        return 2
    profiler, result = _analyze_with_obs(args)
    if args.json:
        _print_json(result.to_dict(), _telemetry(args, profiler))
    else:
        print(render_figure(result, explain=args.explain))
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
        _emit_obs(args, profiler, result.metrics)
    return 0 if args.lenient or result.all_atomic else 1


def _cmd_analyze_corpus(args) -> int:
    """``repro analyze --corpus``: one plain pass over the shipped
    corpus programs, a ``program procs atomic`` row each.  Exit 2 when
    a program fails to load or analyze; atomicity verdicts do not
    affect the exit code (most corpus programs are intentionally
    non-atomic).  ``--metrics`` totals each program's counts."""
    from repro import corpus

    profiler = _obs_setup(args)
    rows: list[dict] = []
    errors: list[dict] = []
    metrics: dict[str, int] = {}
    for name in sorted(corpus.__all__):
        label = f"corpus/{name.lower()}"
        source = getattr(corpus, name)
        with profiler.region("analysis.target", target=label):
            try:
                result = analyze_program(source, profiler=profiler)
            except ReproError as exc:
                errors.append({"label": label, "error": str(exc)})
                continue
        rows.append({"label": label, "procs": len(result.verdicts),
                     "atomic": bool(result.all_atomic)})
        for key, value in result.metrics.items():
            metrics[key] = metrics.get(key, 0) + value
    if args.json:
        from repro.obs.export import run_meta
        _print_json({"programs": rows, "errors": errors,
                     "run_meta": run_meta()}, _telemetry(args, profiler))
    else:
        width = max((len(r["label"]) for r in rows), default=8)
        print(f"{'program':<{width}}  procs  atomic")
        for row in rows:
            print(f"{row['label']:<{width}}  {row['procs']:>5}  "
                  f"{'yes' if row['atomic'] else 'no'}")
        for err in errors:
            print(f"{err['label']}: error: {err['error']}")
        _emit_obs(args, profiler, metrics)
    return 2 if errors else 0


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
        _print_json(doc, _telemetry(args, profiler))
        return 0
    for parts in partitions.values():
        for partition in parts:
            print(partition.render())
            print()
    _emit_obs(args, profiler, result.metrics)
    return 0


def cmd_variants(args) -> int:
    profiler, result = _analyze_with_obs(args)
    if args.json:
        doc = {"variants": [{"name": v.name,
                             "procedure": v.proc.name,
                             "source": pretty(v.proc)}
                            for v in result.variant_set.variants]}
        if result.metrics:
            doc["metrics"] = dict(result.metrics)
        _print_json(doc, _telemetry(args, profiler))
        return 0
    for variant in result.variant_set.variants:
        print(pretty(variant.proc))
        print()
    _emit_obs(args, profiler, result.metrics)
    return 0


def _analysis(args):
    """A fresh analysis of ``args.file`` for annotating a run, or None
    when the program does not analyze (the run still renders, bare)."""
    try:
        return _analyze(args)
    except ReproError:
        return None


def cmd_run(args) -> int:
    from repro.interp import Interp, run_random

    profiler = _obs_setup(args)
    with profiler.region("run.parse_resolve"):
        program = load_program(_source(args.file))
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
        from repro.mc.cex import RunResultView, build_cex
        cex = build_cex(RunResultView(violation, path_log), interp,
                        _analysis(args))
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
        _print_json(doc, _telemetry(args, profiler, "spans"))
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
    from repro.interp import Interp
    from repro.mc import Explorer, observers

    profiler = _obs_setup(args)
    interp = Interp(load_program(_source(args.file)))
    specs = [_parse_spec(s) for s in args.threads]
    # the heatmap document (--json) and the counterexample
    # (--explain-cex) share one analysis and its one statement join
    analysis = _analysis(args) if args.json else None
    observer = observers.compose(
        # the per-call timers feed only the hotspot table: --trace
        # alone keeps the mc.run > mc.init, mc.dfs spans without them
        observers.Profile(profiler, timed=args.profile)
        if profiler.enabled else None,
        observers.Heartbeat(args.progress, args.deadline)
        if args.progress is not None or args.deadline is not None
        else None,
        observers.TraceMalloc() if args.trace_malloc else None,
        observers.Coverage())
    result = Explorer(interp, specs, mode=args.mode,
                      max_states=args.max_states,
                      observer=observer).run()
    explain = result.violation and args.explain_cex
    if explain and not args.json:
        analysis = _analysis(args)
    join = statement_join(analysis) if analysis is not None else None
    cex = None
    if explain:
        from repro.mc.cex import build_cex
        cex = build_cex(result, interp, analysis, join)
    if args.json:
        from repro.obs import heatmap
        doc = result.to_dict()
        doc["heatmap"] = heatmap.build_heatmap(
            result.metrics["mc.stmt_heat"],
            heatmap.uid_annotations(interp, join),
            annotated=analysis is not None)
        if cex is not None:
            doc["counterexample"] = cex.to_dict()
        _print_json(doc, _telemetry(args, profiler, "spans"))
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

    profiler = _obs_setup(args)
    rules = [r.strip() for r in (args.rules or "").split(",")
             if r.strip()] or None

    targets: list[tuple[str, str]] = []
    if args.corpus:
        from repro import corpus as corpus_mod
        for name in corpus_mod.__all__:
            targets.append((name, getattr(corpus_mod, name)))
    for path in args.files:
        targets.append((path, _source(path)))
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
        try:
            manifest = json.loads(_source(args.manifest))
        except ValueError as exc:
            raise ReproError(f"{args.manifest}: not JSON ({exc})") from None
        if not isinstance(manifest, dict):
            raise ReproError(f"{args.manifest}: not a JSON object")
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
                         "failures": failures}, _telemetry(args, profiler))
        elif failures:
            for line in failures:
                print(f"MISMATCH {line}")
        else:
            print(f"manifest ok: {len(results)} target(s) match "
                  f"{args.manifest}")
        return 1 if failures else 0

    if args.json:
        from repro.obs.export import LINT_REPORT_SCHEMA, validate
        doc = {"v": 1, "targets": [r.to_dict() for r in results]}
        errors = validate(doc, LINT_REPORT_SCHEMA)
        if errors:  # defensive: to_dict and schema must stay in sync
            print("error: lint JSON failed schema validation: "
                  + "; ".join(errors), file=sys.stderr)
            return 2
        _print_json(doc, _telemetry(args, profiler))
    else:
        for res in results:
            print(res.render())
        _emit_obs(args, profiler, lint_counts(results))
    if any(r.errors for r in results):
        return 2
    if any(r.warnings for r in results):
        return 1
    return 0


def cmd_perf(args) -> int:
    """Perf regression forensics (docs/OBSERVABILITY.md).  ``diff``
    resolves two operands — ``bench/run.py --out`` JSONL records or
    directories of them — and prints the ranked work-counter
    attribution table.  Exit 0 when no attributed drift
    (identical seeded runs diff empty by construction), 1 on drift, 2
    when an operand is unreadable.  ``--out`` writes the document
    whatever the verdict, so CI uploads it from failing and passing
    runs alike; ``--json`` prints it instead of the table."""
    from repro.obs import perfdiff

    threshold = args.threshold if args.threshold is not None \
        else perfdiff.DEFAULT_THRESHOLD
    try:
        doc = perfdiff.diff_specs(args.a, args.b, threshold=threshold)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2) if args.json
          else perfdiff.render_attribution(doc))
    return 1 if doc["drift"] else 0


def cmd_experiments(args) -> int:
    """Regenerate a table/figure of the paper.  ``--json`` emits a
    machine-readable document (for ``section63``, the deterministic
    per-mode ``verdicts`` and ``matches_paper`` beside the text)."""
    from repro import experiments

    module = getattr(experiments, args.name, None)
    if module is None or not hasattr(module, "main"):
        names = ", ".join(experiments.__all__)
        print(f"unknown experiment {args.name!r}; one of: {names}",
              file=sys.stderr)
        return 2
    if args.name != "section63":
        for flag, value in (("--threads", args.threads),
                            ("--max-states", args.max_states)):
            if value is not None:
                print(f"error: {flag} applies only to section63, "
                      f"not {args.name!r}", file=sys.stderr)
                return 2
    doc: dict = {"name": args.name}
    if args.name == "section63":
        from repro.experiments import section63

        n_threads = args.threads if args.threads is not None else 3
        kwargs = {"n_threads": n_threads}
        if args.max_states is not None:
            kwargs["max_states"] = args.max_states
        result = section63.run(**kwargs)
        text = section63.render(result, n_threads)
        doc["verdicts"] = result.verdicts()
        doc["matches_paper"] = result.matches_paper
    else:
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
    p.add_argument("--corpus", action="store_true",
                   help="analyze every shipped corpus program, one "
                        "'program procs atomic' row each; exit 2 when "
                        "one fails to load or analyze")
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

    p = sub.add_parser("experiments",
                       help="regenerate a table/figure of the paper")
    p.add_argument("name", help="figure3, figure4, figure567, table2, "
                                "section63, section64, ablations, or "
                                "crossval")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON document "
                        "instead of text")
    p.add_argument("--threads", type=_count, default=None, metavar="N",
                   help="section63: driver threads (default: 3)")
    p.add_argument("--max-states", type=_count, default=None,
                   metavar="N",
                   help="section63: per-mode state cap (default: "
                        "2000000)")
    p.set_defaults(fn=cmd_experiments)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
