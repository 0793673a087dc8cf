"""One workload run in its own process (spawned by ``run.py``).

Prints JSON lines on stdout: ``{"event": "ready", "t": ...}`` once
set-up (imports, inputs, one discarded warm-up task) is done, then,
unless ``--probe`` asked for set-up only, one ``{"event": "result",
...}`` line with the raw measurements.  Tasks run one at a time, each
starting when the previous one ends, on this process's only thread.

An untraced run repeats tasks for ``--seconds`` and never wraps
anything; it runs under a machine-speed gauge (``gauge.py``) and
reports each task's wall and scaled time.  A traced run (``--trace 1``)
alternates a fixed number of untraced tasks with as many run under the
layer tracer, and writes the spans and per-task layer aggregates to
``bench/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads
from gauge import Gauge

OUT = Path(__file__).resolve().parent / "out"
#: failure messages kept per run (the count is always exact)
_MAX_ERRORS = 5


def emit(**doc) -> None:
    print(json.dumps(doc), flush=True)


def run_tasks(tasks, count: int | None = None,
              seconds: float | None = None, tracer=None,
              gauge: Gauge | None = None) -> dict:
    """Run tasks back to back until ``count`` tasks ran or ``seconds``
    elapsed; each task is timed from its start to its end.  Under a
    ``gauge``, the result also carries the tasks' scaled times and the
    run's speed."""
    latencies: list[float] = []
    spans: list[tuple[float, float]] = []
    units = failed = 0
    errors: list[str] = []
    counts = None
    start = time.perf_counter()
    for label, fn in tasks:
        if tracer is not None:
            tracer.begin_task(label)
        spent = gauge.spent if gauge is not None else 0.0
        t0 = time.perf_counter()
        try:
            outcome = fn()
        except Exception:
            outcome = workloads.Outcome(
                0, f"{label}: raised\n{traceback.format_exc()}")
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_task()
        dt = t1 - t0
        if gauge is not None:
            dt -= gauge.spent - spent
            spans.append((t0, t1))
            if not gauge.timer:
                gauge.sample()
        latencies.append(dt)
        units += outcome.units
        error = outcome.error
        if outcome.counts is not None:
            if counts is None:
                counts = outcome.counts
            elif outcome.counts != counts and error is None:
                error = f"{label}: counts {outcome.counts} != {counts} " \
                        f"of an earlier task on the same inputs"
        if error is not None:
            failed += 1
            if len(errors) < _MAX_ERRORS:
                errors.append(error)
        if count is not None and len(latencies) >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    out = {"latencies": latencies, "units": units, "failed": failed,
           "errors": errors, "counts": counts}
    if gauge is not None:
        out.update(scaled=[dt * gauge.speed(t0, t1) for dt, (t0, t1)
                           in zip(latencies, spans)],
                   speed=gauge.speed(),
                   gauge_samples=gauge.samples,
                   gauge_times=[t - start for t in gauge.times],
                   task_starts=[t0 - start for t0, _ in spans])
    return out


def _concat(parts: list[dict]) -> dict:
    """One :func:`run_tasks` result from several, in order."""
    out = {"latencies": [], "units": 0, "failed": 0, "errors": [],
           "counts": parts[0]["counts"]}
    for part in parts:
        out["latencies"] += part["latencies"]
        out["units"] += part["units"]
        out["failed"] += part["failed"]
        out["errors"] += part["errors"]
        if part["counts"] != out["counts"]:
            out["failed"] += 1
            out["errors"].append(f"counts {part['counts']} != "
                                 f"{out['counts']} on the same inputs")
    out["errors"] = out["errors"][:_MAX_ERRORS]
    return out


def traced_run(wl) -> dict:
    """Alternate untraced and traced tasks, so that drift in the
    machine's speed hits both alike."""
    tracer = layers.Tracer()
    plain, traced_tasks = wl.tasks(), wl.traced_tasks(tracer)
    refs, traces = [], []
    for _ in range(wl.traced_n):
        refs.append(run_tasks(plain, count=1))
        if wl.in_process:
            tracer.install()
        try:
            traces.append(run_tasks(traced_tasks, count=1, tracer=tracer))
        finally:
            tracer.uninstall()
    ref, traced = _concat(refs), _concat(traces)
    metrics = tracer.metrics()
    metrics.update(wl.layer_metrics(traced["latencies"]))
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced["latencies"])
        / statistics.median(ref["latencies"]))
    if tracer.missing:
        print(f"warning: {wl.name}: wrap targets gone, metrics are null "
              f"for: {', '.join(sorted(tracer.missing))}", file=sys.stderr)
    wall = sum(traced["latencies"])
    self_s = {layer: stat[2] for layer, stat in tracer.stats.items()
              if stat[0]}
    self_s["runtime.gc"] = tracer.gc[1]
    doc = {"workload": wl.name, "seed": wl.seed, "quick": wl.quick,
           "traced_wall_s": wall,
           "self_share": {k: v / wall for k, v in self_s.items()},
           "coverage": sum(self_s.values()) / wall,
           "metrics": metrics, **tracer.export()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{wl.name}.json").write_text(json.dumps(doc))
    return dict(_concat([ref, traced]), layers=metrics,
                coverage=doc["coverage"])


def peak_rss_mb(who: int) -> float:
    kb = resource.getrusage(who).ru_maxrss
    return kb / (1024 * 1024) if sys.platform == "darwin" else kb / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up")
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, args.quick, args.tmp)
    wl.setup()
    emit(event="ready", t=time.time())
    if args.probe:
        return 0
    if args.trace:
        result = traced_run(wl)
    else:
        with Gauge(in_process=wl.in_process) as gauge:
            if args.quick:
                result = run_tasks(wl.tasks(), count=wl.traced_n,
                                   gauge=gauge)
            else:
                result = run_tasks(wl.tasks(), seconds=args.seconds,
                                   gauge=gauge)
    emit(event="result", peak_rss_mb=peak_rss_mb(wl.rss_of),
         task_noun=wl.task_noun, work_noun=wl.work_noun, **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
