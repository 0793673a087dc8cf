"""Compare two sets of benchmark runs.

    python3 bench/compare.py A.jsonl B.jsonl

Each side is a JSONL file of run records written by ``run.py --out``
(or a directory, meaning every ``*.jsonl`` in it); A is the baseline.
For every workload and end-to-end metric the tool prints each side's
median and quartiles over its untraced runs, the bound BENCHMARK.json
fixes, and a verdict:

* ``better`` / ``worse`` -- the medians differ by more than the bound;
* ``unchanged`` -- they differ by less;
* ``unresolved`` -- one side's interquartile range, as a share of its
  median, is wider than the bound (unless every B run beats every A run).

``error_rate`` (failed / attempted tasks, all runs) has an absolute
bound of 0: any increase is worse.  Count metrics must repeat exactly
for the same workload and seed: the tasks' state/transition counts and
the traced runs' ``*.calls``, ``cfg.nodes``, ``analysis.variants.count``,
``analysis.sites`` and ``mc.explorer.new_state_ratio``.

Exit 0 when nothing is worse and no count drifted, 1 otherwise, 2 on
unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
_EXACT = {"cfg.nodes", "analysis.variants.count", "analysis.sites",
          "mc.explorer.new_state_ratio"}


def is_count(metric: str) -> bool:
    return metric.endswith(".calls") or metric in _EXACT


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        with file.open() as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def judge(a: list[float], b: list[float], better: str,
          bound: float) -> tuple[float, str]:
    """(relative change of B's median over A's, verdict)."""
    med_a, med_b = stats.quartiles(a)[1], stats.quartiles(b)[1]
    change = (med_b - med_a) / med_a
    worse_by = change if better == "lower" else -change
    if max(stats.spread(a), stats.spread(b)) > bound:
        b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return change, "better" if b_wins else "unresolved"
    if worse_by > bound:
        return change, "worse"
    if worse_by < -bound:
        return change, "better"
    return change, "unchanged"


def _side(values: list[float]) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def count_drift(records: list[dict]) -> list[str]:
    """Counts that differ between runs of one workload and seed."""
    seen: dict = {}
    drift = []
    for rec in records:
        key = (rec["workload"], rec["seed"], rec["quick"])
        observed = {"counts": rec["counts"]} if rec["counts"] else {}
        if rec["trace"]:
            observed.update({m: v["value"] for m, v in rec["metrics"].items()
                             if is_count(m)})
        for metric, value in observed.items():
            first = seen.setdefault(key + (metric,), value)
            if first != value:
                drift.append(f"{key[0]} seed {key[1]}: {metric} "
                             f"{first} != {value}")
    return drift


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", type=Path, help="baseline runs")
    parser.add_argument("b", type=Path, help="runs to judge")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        side_a, side_b = load(args.a), load(args.b)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not side_a or not side_b:
        print("error: a side has no run records", file=sys.stderr)
        return 2

    failed = False
    print(f"{'workload':<15} {'metric':<12} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'change':>8} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [[r for r in side if r["workload"] == workload]
                for side in (side_a, side_b)]
        timed = [[r for r in side if not r["trace"] and not r["quick"]]
                 for side in runs]
        if not all(timed):
            if any(runs):
                print(f"{workload:<15} (untraced runs missing on a side)")
            continue
        for m in spec["end_to_end"]:
            a, b = ([r["metrics"][m["name"]]["value"] for r in side]
                    for side in timed)
            change, verdict = judge(a, b, m["better"], m["bound"])
            failed |= verdict == "worse"
            print(f"{workload:<15} {m['name']:<12} {_side(a):<34} "
                  f"{_side(b):<34} {change:>+8.1%} {m['bound']:>6.0%}  "
                  f"{verdict}")
        rates = [sum(r["failed"] for r in side)
                 / sum(r["attempted"] for r in side) for side in runs]
        verdict = "worse" if rates[1] > rates[0] else "unchanged"
        failed |= verdict == "worse"
        print(f"{workload:<15} {'error_rate':<12} {rates[0]:<34.4g} "
              f"{rates[1]:<34.4g} {'':>8} {'0 abs':>6}  {verdict}")
    drift = count_drift(side_a + side_b)
    for line in drift:
        print(f"count drift: {line}")
    if not drift:
        print("counts: identical for every workload and seed")
    return 1 if failed or drift else 0


if __name__ == "__main__":
    sys.exit(main())
