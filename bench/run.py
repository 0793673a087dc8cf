"""The repository's benchmark: paper-scale model checking, Table 2,
corpus analysis and cold CLI calls, measured end to end (untraced) or
layer by layer (``--trace 1``).

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace 0|1 | --traced] [--quick]
                         [--repeat K] [--out FILE]

Every workload run happens in fresh worker processes, one at a time:
``setup_s`` is the median start-up of five workers (spawn to ready,
including one discarded warm-up task), and the last of them then runs
tasks in a closed loop for ``--seconds`` (``run_seconds`` of
BENCHMARK.json by default).  Each run's record is appended to ``--out``
(default ``bench/out/runs.jsonl``), the input of ``compare.py``; the
last line of standard output is one JSON object with the run's
``correct``/``attempted``/``failed`` and its metrics.  Exit 0 when every
output was correct, 1 when a check failed, 2 when the benchmark could
not run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: workers started per untraced run; setup_s is the median of their
#: start-up times (the first one in a fresh checkout also compiles .pyc)
SETUPS = 5
#: wall-clock budget of one workload run, all its workers included
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(tmp: Path) -> dict:
    """The workers' environment: no inherited ``REPRO_*`` switches, the
    checkout's sources, the run ledger on (as users run it) but kept in
    the run's temp directory, and git never finding an enclosing
    repository (the ledger asks it for the revision)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"),
               REPRO_LEDGER_DIR=str(tmp / "ledger"),
               GIT_CEILING_DIRECTORIES=str(OUT))
    return env


def spawn(worker_args: list[str], env: dict, deadline: float
          ) -> tuple[float, dict | None]:
    """Start one worker and wait for it: (seconds from spawn to ready,
    its result event or None for a set-up probe)."""
    t0 = time.time()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"),
                             *worker_args],
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(worker_args)} timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    events = {}
    for line in out.splitlines():
        if line.startswith('{"event"'):
            doc = json.loads(line)
            events[doc.pop("event")] = doc
    if proc.returncode != 0 or "ready" not in events:
        raise BenchError(f"worker {' '.join(worker_args)} failed "
                         f"(exit {proc.returncode})")
    return events["ready"]["t"] - t0, events.get("result")


def end_to_end(setups: list[float], result: dict
               ) -> tuple[dict, dict, dict]:
    """The untraced metrics (times scaled to the nominal machine, see
    gauge.py), the same before scaling, and the sample count behind
    each."""
    lat, scaled = result["latencies"], result["scaled"]
    raw = {"setup_s": statistics.median(setups),
           "task_ms_p50": statistics.median(lat) * 1000.0,
           "work_per_s": result["units"] / sum(lat)}
    values = {"setup_s": raw["setup_s"] * result["speed"],
              "task_ms_p50": statistics.median(scaled) * 1000.0,
              "work_per_s": result["units"] / sum(scaled),
              "peak_rss_mb": result["peak_rss_mb"]}
    samples = {"setup_s": len(setups), "task_ms_p50": len(lat),
               "work_per_s": len(lat), "peak_rss_mb": 1}
    return values, raw, samples


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: int, quick: bool, tmp: Path) -> dict:
    tmp.mkdir(parents=True)
    env = child_env(tmp)
    deadline = time.time() + RUN_BUDGET_S
    args = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--tmp", str(tmp)]
    if quick:
        args.append("--quick")
    setups = []
    for _ in range(SETUPS - 1 if not (trace or quick) else 0):
        setups.append(spawn(args + ["--probe"], env, deadline)[0])
    setup, result = spawn(args, env, deadline)
    setups.append(setup)
    if result is None:
        raise BenchError(f"{name}: worker printed no result")

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values, raw, samples = result["layers"], {}, {}
    else:
        values, raw, samples = end_to_end(setups, result)
    unknown = [m["name"] for m in listed if m["name"] not in values]
    if unknown:
        raise BenchError(f"BENCHMARK.json lists metrics the benchmark "
                         f"does not measure: {', '.join(unknown)}")
    return {
        "workload": name, "seed": seed, "trace": trace, "quick": quick,
        "seconds": seconds,
        "correct": result["failed"] == 0,
        "attempted": len(result["latencies"]),
        "failed": result["failed"],
        "errors": result["errors"],
        "counts": result["counts"],
        "latencies_s": result["latencies"],
        "task_noun": result["task_noun"],
        "units": result["units"],
        "work_noun": result["work_noun"],
        "coverage": result.get("coverage"),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in listed},
        "samples": samples,
        "raw": raw,
        "speed": result.get("speed"),
        "gauge": {key: result[key] for key in
                  ("gauge_times", "gauge_samples", "task_starts")
                  if key in result},
    }


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_record(rec: dict) -> None:
    mode = "traced" if rec["trace"] else "untraced"
    print(f"== {rec['workload']}  seed {rec['seed']}  {mode}"
          f"{'  quick' if rec['quick'] else ''}: {rec['attempted']} "
          f"{rec['task_noun']}, {rec['failed']} failed")
    for error in rec["errors"]:
        print(f"   FAILED {error}")
    for metric, m in rec["metrics"].items():
        n = rec["samples"].get(metric)
        note = f"n={n}" if n is not None else ""
        if metric == "work_per_s":
            note += f", {rec['work_noun']} per second"
        if metric in rec["raw"]:
            note += f", {_fmt(rec['raw'][metric])} before scaling"
        print(f"   {metric:<38} {_fmt(m['value']):>12} {m['unit']:<6} {note}")
    if rec["speed"] is not None:
        print(f"   (machine speed {rec['speed']:.3f} of nominal)")
    if not rec["trace"]:
        ms = [x * 1000.0 for x in rec["latencies_s"]]
        tail = stats.tail(ms)
        if tail is not None:
            print(f"   (task_ms_{tail[0]} {tail[1]:.6g} ms, n={len(ms)})")
    elif rec["coverage"] is not None:
        print(f"   (layer self times + GC cover {rec['coverage']:.1%} of "
              f"traced task wall time)")


def summary(records: list[dict]) -> dict:
    """The result line: one run's own metrics, or for several runs each
    workload's per-metric median under ``<workload>/<metric>``."""
    out = {"correct": all(r["correct"] for r in records),
           "attempted": sum(r["attempted"] for r in records),
           "failed": sum(r["failed"] for r in records)}
    if len(records) == 1:
        out["metrics"] = records[0]["metrics"]
        return out
    grouped: dict = {}
    for rec in records:
        for metric, m in rec["metrics"].items():
            key = f"{rec['workload']}/{metric}"
            grouped.setdefault(key, (m["unit"], []))[1].append(m["value"])
    out["metrics"] = {
        key: {"value": None if None in values else statistics.median(values),
              "unit": unit}
        for key, (unit, values) in grouped.items()}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="smoke size: 300-state caps, 2 programs, "
                             "2 CLI calls")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run every workload K times")
    parser.add_argument("--out", type=Path, default=OUT / "runs.jsonl",
                        help="JSONL file the run records are appended to")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running worker is killed and reaped
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    bad = [n for n in names if n not in known]
    if bad or args.seed < 0 or args.repeat < 1 \
            or (args.seconds is not None and args.seconds <= 0):
        parser.error(f"bad arguments (workloads: {', '.join(known)})")
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]

    OUT.mkdir(exist_ok=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    records = []
    try:
        for i in range(args.repeat):
            for name in names:
                rec = run_workload(spec, name, args.seed, seconds,
                                   args.trace, args.quick,
                                   tmp / f"{name}-{i}")
                print_record(rec)
                with args.out.open("a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = summary(records)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
