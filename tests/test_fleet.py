"""The multi-process observability backplane (:mod:`repro.obs.fleet`):
profiler merge algebra (associative / commutative / identity), spool
write-out and merge (a dead worker's torn spool included), the
fork-based ``run_fleet`` fan-out with submission-order reassembly, and
``--jobs`` resolution."""

from __future__ import annotations

import json

import pytest

from repro.obs import fleet
from repro.obs.fleet import (
    WorkerSpool,
    merge_spools,
    resolve_jobs,
    run_fleet,
    worker_name,
)
from repro.obs.profile import Profiler
from tests.test_events import read_events


# -- merge algebra -----------------------------------------------------------------
#
# A fleet merge must not depend on worker completion order
# (commutativity), on the merge tree shape (associativity), or on
# empty workers being present (identity); the profiler's raw `state()`
# is the transport shape that crosses the process boundary.

def test_profiler_merge_associative_commutative_identity():
    def prof(spec):
        p = Profiler()
        for name, work in spec:
            with p.region(name):
                p.add(name + ".inner", work)
        return p

    a = lambda: prof([("alpha", 3), ("beta", 1)])          # noqa: E731
    b = lambda: prof([("beta", 2)])                        # noqa: E731
    c = lambda: prof([("gamma", 5), ("alpha", 1)])         # noqa: E731

    def counters(*profs):
        out = Profiler()
        for p in profs:
            out.merge(p)
        return out.counters()

    assert counters(a(), b(), c()) == counters(c(), b(), a())
    ab = a()
    ab.merge(b())
    ab.merge(c())
    bc = b()
    bc.merge(c())
    a2 = a()
    a2.merge(bc)
    assert ab.counters() == a2.counters()
    assert counters(a(), Profiler()) == counters(a())
    via_json = Profiler.from_state(json.loads(json.dumps(a().state())))
    assert via_json.counters() == a().counters()


# -- resolve_jobs ------------------------------------------------------------------

def test_resolve_jobs_flag_beats_env_beats_default():
    assert resolve_jobs(3, env={"REPRO_JOBS": "8"}) == 3
    assert resolve_jobs(None, env={"REPRO_JOBS": "8"}) == 8
    assert resolve_jobs(None, env={}) == 1
    assert resolve_jobs(None, env={"REPRO_JOBS": "junk"}) == 1
    assert resolve_jobs(0, env={}) == 1          # clamp
    assert resolve_jobs(None, env={"REPRO_JOBS": "-2"}) == 1


def test_worker_name_is_zero_padded():
    assert worker_name(0) == "worker-00"
    assert worker_name(11) == "worker-11"


# -- spool write / read ------------------------------------------------------------

def test_worker_spool_writes_layout_and_stamps(tmp_path):
    spool = WorkerSpool(tmp_path, 1)
    spool.events.emit("mc.pop", depth=0)
    with spool.profiler.region("fleet.region"):
        pass
    spool.events.emit("mc.pop", depth=1)
    spool.finish(result={"ok": True, "values": [1, 2]}, items=2)

    wdir = tmp_path / "worker-01"
    # stamped events still satisfy EVENT_SCHEMA
    events = read_events(wdir / "events.jsonl")
    assert [e["depth"] for e in events] == [0, 1]
    assert all(e["worker"] == "worker-01" for e in events)
    assert all(e["pid"] == spool.pid for e in events)

    meta = json.loads((wdir / "worker.json").read_text())
    assert meta["worker"] == "worker-01" and meta["items"] == 2
    assert meta["events"] == 2
    assert sorted(p.name for p in wdir.iterdir()) == [
        "events.jsonl", "profile.json", "result.json", "worker.json"]
    profile = json.loads((wdir / "profile.json").read_text())["profile"]
    assert "fleet.region" in profile["entries"]
    assert json.loads((wdir / "result.json").read_text())["ok"] is True


def test_merge_spools_counts_a_dead_workers_torn_spool(tmp_path):
    # no worker.json: the worker died before finish(); its streamed
    # events are counted, the torn last line is not
    (tmp_path / "worker-00").mkdir()
    (tmp_path / "worker-00" / "events.jsonl").write_text(
        '{"kind": "mc.pop", "pid": 41}\n'
        '\n'
        '{"kind": "mc.p')                   # torn mid-write
    (tmp_path / "worker-01").mkdir()        # died before any event
    doc = merge_spools(tmp_path).doc
    assert [(r["pid"], r["events"]) for r in doc["workers"]] \
        == [(41, 1), (0, 0)]
    assert doc["events"] == 1


def test_merge_spools_rows_straggler_and_event_order(tmp_path):
    for index, (n, wall) in enumerate([(2, 0.1), (3, 0.9)]):
        spool = WorkerSpool(tmp_path, index)
        for done in range(1, n + 1):
            spool.events.emit("mc.pop", depth=done)
        spool.finish(result={"ok": True, "values": list(range(n))},
                     items=n)
        # pin wall_s so the straggler pick is deterministic
        meta_path = tmp_path / worker_name(index) / "worker.json"
        meta = json.loads(meta_path.read_text())
        meta["wall_s"] = wall
        meta_path.write_text(json.dumps(meta))

    merge = merge_spools(tmp_path, label="unit", jobs=2)
    doc = merge.doc
    assert doc["kind"] == "fleet" and doc["jobs"] == 2
    assert doc["label"] == "unit"
    assert doc["items"] == 5
    assert doc["straggler"] == "worker-01"
    assert doc["wall_s"] == 0.9
    # rows in worker order, each with its own event count
    assert [(r["worker"], r["events"]) for r in doc["workers"]] \
        == [("worker-00", 2), ("worker-01", 3)]
    assert doc["events"] == 5
    assert merge.results[0]["values"] == [0, 1]


# -- run_fleet ---------------------------------------------------------------------

def _square(item, spool):
    with spool.profiler.region("fleet.square"):
        pass
    spool.events.emit("mc.pop", depth=item)
    return item * item


def test_run_fleet_reassembles_in_submission_order(tmp_path):
    items = list(range(7))
    values, merge = run_fleet(items, _square, jobs=3,
                              spool=tmp_path, label="squares")
    assert values == [i * i for i in items]
    assert merge.doc["items"] == 7
    assert merge.doc["jobs"] == 3
    assert len(merge.doc["workers"]) == 3
    assert merge.profiler.counters()["fleet.square"]["calls"] == 7
    assert merge.doc["events"] == 7
    assert [r["items"] for r in merge.doc["workers"]] == [3, 2, 2]
    # one pid per worker when the platform actually forked
    if fleet.can_fork():
        assert len({r["pid"] for r in merge.doc["workers"]}) == 3


def test_run_fleet_matches_sequential_map(tmp_path):
    items = ["a", "bb", "ccc"]

    def measure(item, spool):
        return len(item)

    values, _ = run_fleet(items, measure, jobs=2,
                          spool=tmp_path / "s1")
    assert values == [len(i) for i in items]
    solo, _ = run_fleet(items, measure, jobs=1,
                        spool=tmp_path / "s2")
    assert solo == values


def test_run_fleet_clamps_jobs_to_items(tmp_path):
    values, merge = run_fleet([5], _square, jobs=4, spool=tmp_path)
    assert values == [25]
    assert len(merge.doc["workers"]) == 1


def test_run_fleet_rejects_bad_jobs(tmp_path):
    with pytest.raises(ValueError):
        run_fleet([1], _square, jobs=0, spool=tmp_path)


def test_run_fleet_worker_failure_spools_traceback(tmp_path):
    def boom(item, spool):
        if item == 2:
            raise RuntimeError("injected fleet failure")
        return item

    with pytest.raises(RuntimeError) as err:
        run_fleet([0, 1, 2, 3], boom, jobs=2, spool=tmp_path)
    message = str(err.value)
    assert "injected fleet failure" in message
    assert "worker-" in message
    # the healthy worker's spool survived for post-mortem
    merge = merge_spools(tmp_path)
    assert any(r and r.get("ok") for r in merge.results)


def test_default_spool_is_removed_after_merge(tmp_path, monkeypatch):
    import tempfile

    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))

    def where(item, spool):
        return str(spool.dir)

    values, merge = run_fleet([0, 1, 2], where, jobs=2)
    assert merge.doc["items"] == 3
    assert all(v.startswith(str(scratch)) for v in values)
    assert list(scratch.iterdir()) == []

    def boom(item, spool):
        raise RuntimeError("injected fleet failure")

    # a failed worker's traceback is read before the spool goes
    with pytest.raises(RuntimeError, match="injected fleet failure"):
        run_fleet([0, 1], boom, jobs=2)
    assert list(scratch.iterdir()) == []