"""Smoke test of the benchmark at its ``--quick`` size.

    python -m pytest bench -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = BENCH / "out"


def run_quick(label: str, *args: str) -> tuple[str, list[dict]]:
    out = OUT / f"test-{label}.jsonl"
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--out",
         str(out), *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, [json.loads(line)
                         for line in out.read_text().splitlines()]


@pytest.fixture(scope="module")
def untraced():
    return run_quick("untraced")


@pytest.fixture(scope="module")
def traced():
    return run_quick("traced", "--traced")


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_listed_metric_is_printed_with_its_unit(kind, untraced,
                                                      traced):
    stdout, records = untraced if kind == "end_to_end" else traced
    names = [w["name"] for w in SPEC["workloads"]]
    assert [r["workload"] for r in records] == names
    for rec in records:
        assert rec["correct"] and rec["failed"] == 0
        assert {name: m["unit"] for name, m in rec["metrics"].items()} \
            == {m["name"]: m["unit"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        line = re.compile(rf"^ +{re.escape(m['name'])} +\S+ "
                          rf"{re.escape(m['unit'])}\b", re.M)
        assert len(line.findall(stdout)) == len(names), m["name"]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for name in names:
        for m in SPEC[kind]:
            assert result["metrics"][f"{name}/{m['name']}"]["unit"] \
                == m["unit"]


def test_same_seed_gives_identical_counts(untraced, traced):
    _, again = run_quick("again", "--traced")
    records = untraced[1] + traced[1] + again
    assert all(r["counts"] for r in records
               if r["workload"] in ("gh-full", "gh-por", "table2-nfq"))
    assert compare.count_drift(records) == []


def test_seed0_matches_experiments_table2(untraced):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments import table2

    (rec,) = [r for r in untraced[1] if r["workload"] == "table2-nfq"]
    for row in table2.run(max_states=workloads.QUICK_CAP).rows:
        for mode in ("full", "atomic"):
            r = getattr(row, mode)
            assert rec["counts"][f"{row.name}/{mode}"] \
                == {"states": r.states, "transitions": r.transitions}


def test_missing_wrap_target_reads_null(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.mc import canonical, explorer

    monkeypatch.setitem(layers.LAYERS, "mc.canonical", (False, (
        ("repro.mc.explorer", "state_key"),
        ("repro.mc.explorer", "no_longer_there"))))
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert explorer.state_key is canonical.state_key
    metrics = tracer.metrics()
    assert tracer.missing == {"mc.canonical"}
    assert metrics["mc.canonical.calls"] is None
    assert metrics["mc.canonical.self_s"] is None
    assert metrics["interp.step.calls"] == 0
