"""The structured event stream: ring bounds, schema round-trips, and
the emitters in the explorer, interpreter, scheduler, and dynamic
checker."""

from __future__ import annotations

import io
import json

import pytest

from repro import corpus
from repro.dynamic import TracingInterp
from repro.interp import Interp, ThreadSpec, run_random
from repro.mc import Explorer, observers
from repro.obs.events import (EVENT_SCHEMA, KINDS, EventStream,
                              read_jsonl)
from repro.obs.export import validate
from repro.synl.parser import parse_program
from repro.synl.resolve import resolve


# -- the stream itself -------------------------------------------------------------

def test_emit_stamps_version_seq_and_clock():
    stream = EventStream()
    first = stream.emit("sched.seed", seed=7)
    second = stream.emit("sched.switch", tid=1, prev=0)
    assert first["v"] == 1 and first["seq"] == 0 and first["seed"] == 7
    assert second["seq"] == 1
    assert second["t"] >= first["t"]
    assert len(stream) == stream.emitted == 2


def test_ring_bounds_and_drop_accounting():
    stream = EventStream(capacity=8)
    for i in range(20):
        stream.emit("mc.pop", depth=i)
    assert len(stream) == 8
    assert stream.emitted == 20
    depths = [e["depth"] for e in stream.snapshot()]
    assert depths == list(range(12, 20))  # oldest evicted first


def test_snapshot_filters_by_kind():
    stream = EventStream()
    stream.emit("mc.pop", depth=1)
    stream.emit("sched.seed", seed=0)
    stream.emit("mc.pop", depth=0)
    assert [e["depth"] for e in stream.snapshot("mc.pop")] == [1, 0]
    assert stream.snapshot("interp.sc") == []


def test_sink_outlives_ring_eviction():
    sink = io.StringIO()
    stream = EventStream(capacity=2, sink=sink)
    for i in range(5):
        stream.emit("mc.pop", depth=i)
    stream.close()
    lines = [json.loads(l) for l in sink.getvalue().splitlines()]
    assert [e["depth"] for e in lines] == [0, 1, 2, 3, 4]
    assert len(stream) == 2  # ring kept only the tail


def read_events(path) -> list[dict]:
    """Load an events file and check every record against
    :data:`EVENT_SCHEMA`."""
    events = read_jsonl(path)
    for i, event in enumerate(events):
        assert validate(event, EVENT_SCHEMA, path=f"$[{i}]") == []
    return events


def test_jsonl_roundtrip_validates_schema(tmp_path):
    stream = EventStream()
    stream.emit("interp.sc", tid=0, addr="('g', 'Sem')", ok=True)
    stream.emit("mc.violation", desc="t0@9", message="assertion failed")
    path = stream.write_jsonl(tmp_path / "events.jsonl")
    events = read_events(path)
    assert [e["kind"] for e in events] == ["interp.sc", "mc.violation"]
    assert events[0]["ok"] is True


def test_event_schema_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"v": 1, "seq": 0, "t": 0.0, "kind": "nope"}\n')
    (event,) = read_jsonl(path)
    assert validate(event, EVENT_SCHEMA)


def test_read_jsonl_drops_a_torn_final_line(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"kind": "mc.pop", "depth": 1}\n'
                    '\n'
                    '{"kind": "mc.p')       # writer killed mid-write
    assert read_jsonl(path) == [{"kind": "mc.pop", "depth": 1}]
    # a final line that parses is kept, newline or not
    path.write_text('{"depth": 1}\n{"depth": 2}')
    assert [e["depth"] for e in read_jsonl(path)] == [1, 2]


@pytest.mark.parametrize("text, line", [
    ('{"depth": 1}\n{"dep\n{"depth": 3}\n', 2),   # corrupt mid-file
    ('{"depth": 1}\n{"dep\n', 2),                  # torn, then newline
    ('{"depth": 1}\n[1, 2]\n', 2),                 # not an object
])
def test_read_jsonl_names_file_and_line_of_a_bad_line(tmp_path, text,
                                                      line):
    path = tmp_path / "events.jsonl"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"events.jsonl:{line}:"):
        read_jsonl(path)


def test_file_sink_and_context_manager(tmp_path):
    path = tmp_path / "sink.jsonl"
    with EventStream(sink=path) as stream:
        stream.emit("sched.seed", seed=3)
    events = read_events(path)
    assert events[0]["seed"] == 3


def test_every_declared_kind_passes_schema():
    stream = EventStream()
    for kind, fields in KINDS.items():
        event = stream.emit(kind, **{f: 0 for f in fields})
        assert validate(event, EVENT_SCHEMA) == [], kind


# -- emitters ----------------------------------------------------------------------

def test_explorer_emits_push_pop_violation():
    events = EventStream()
    program = parse_program(corpus.BROKEN_SEMAPHORE)
    resolve(program)
    interp = Interp(program, events=events)
    specs = [ThreadSpec.of(("DownBad",)), ThreadSpec.of(("DownBad",))]
    result = Explorer(interp, specs, mode="full",
                      observer=observers.Events(events)).run()
    assert result.violation
    kinds = {e["kind"] for e in events.snapshot()}
    assert {"mc.push", "mc.pop", "mc.violation"} <= kinds
    (violation,) = events.snapshot("mc.violation")
    assert violation["message"] == result.violation
    pushes = events.snapshot("mc.push")
    assert pushes[0]["states"] >= 1
    assert all(p["depth"] >= 1 for p in pushes)


def test_explorer_emits_ample_in_por_mode():
    events = EventStream()
    interp = Interp(corpus.NFQ_PRIME, events=events)
    specs = [ThreadSpec.of(("AddNode", 1)), ThreadSpec.of(("DeqP",))]
    result = Explorer(interp, specs, mode="por",
                      observer=observers.Events(events)).run()
    assert result.violation is None
    amples = events.snapshot("mc.ample")
    assert amples and all("tid" in e and "desc" in e for e in amples)


def test_interpreter_emits_sc_events_and_sched_metadata():
    events = EventStream()
    interp = Interp(corpus.SEMAPHORE, events=events)
    world = interp.make_world([ThreadSpec.of(("Down",)),
                               ThreadSpec.of(("Up",))])
    run_random(interp, world, seed=1, events=events)
    (seed_ev,) = events.snapshot("sched.seed")
    assert seed_ev["seed"] == 1
    scs = events.snapshot("interp.sc")
    assert scs and any(e["ok"] for e in scs)
    assert all("Sem" in e["addr"] for e in scs)
    switches = events.snapshot("sched.switch")
    assert switches and switches[0]["prev"] == -1


def test_interpreter_emits_cas_events():
    events = EventStream()
    interp = Interp(corpus.CAS_COUNTER, events=events)
    world = interp.make_world([ThreadSpec.of(("Inc",))])
    run_random(interp, world, seed=0, events=events)
    cas = events.snapshot("interp.cas")
    assert cas and cas[-1]["ok"] is True


def test_dynamic_checker_emits_invocations_and_verdicts():
    events = EventStream()
    interp = TracingInterp(corpus.SEMAPHORE, events=events)
    world = interp.make_world([ThreadSpec.of(("Down",)),
                               ThreadSpec.of(("Up",))])
    run_random(interp, world, seed=0, events=events)
    interp.checker.verdicts()
    invocations = events.snapshot("dyn.invocation")
    assert {e["proc"] for e in invocations} == {"Down", "Up"}
    verdicts = events.snapshot("dyn.verdict")
    assert {e["proc"] for e in verdicts} == {"Down", "Up"}
    assert all(isinstance(e["atomic"], bool) for e in verdicts)


def test_run_path_log_matches_schema():
    from repro.obs.export import PATH_STEP_SCHEMA

    interp = Interp(corpus.SEMAPHORE)
    world = interp.make_world([ThreadSpec.of(("Down",))])
    path_log: list = []
    run_random(interp, world, seed=0, path_log=path_log)
    assert path_log and path_log[0]["kind"] == "invoke"
    for step in path_log:
        assert validate(step, PATH_STEP_SCHEMA) == []
    assert any(s["kind"] == "stmt" and s["uid"] is not None
               for s in path_log)


# -- sink paths with missing parent directories ------------------------------------

def test_sink_creates_missing_parent_dirs(tmp_path):
    sink = tmp_path / "deep" / "nested" / "events.jsonl"
    with EventStream(sink=sink) as stream:
        stream.emit("sched.seed", seed=1)
    assert len(read_events(sink)) == 1


def test_write_jsonl_creates_missing_parent_dirs(tmp_path):
    stream = EventStream()
    stream.emit("mc.pop", depth=0)
    path = stream.write_jsonl(tmp_path / "a" / "b" / "events.jsonl")
    assert len(read_events(path)) == 1


def test_write_trace_creates_missing_parent_dirs(tmp_path):
    from repro.obs.chrometrace import write_trace

    stream = EventStream()
    stream.emit("mc.pop", depth=0)
    path = write_trace(tmp_path / "x" / "y" / "trace.json",
                       events=stream)
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]


def test_cli_events_and_trace_out_create_parent_dirs(tmp_path):
    from repro.cli import main

    src = tmp_path / "sem.synl"
    src.write_text(corpus.SEMAPHORE)
    events_out = tmp_path / "out" / "sub" / "events.jsonl"
    trace_out = tmp_path / "out" / "other" / "trace.json"
    code = main(["run", str(src), "Down()", "Up()",
                 "--events-out", str(events_out),
                 "--trace-out", str(trace_out)])
    assert code == 0
    assert events_out.is_file() and read_events(events_out)
    assert json.loads(trace_out.read_text())["traceEvents"]


# -- graph / deadline kinds (state-space introspection) ----------------------------

def test_deadline_events_roundtrip_jsonl(tmp_path):
    # mc.deadline is a declared kind: a sink file from a deadline-hit
    # run must load back and pass the event schema
    path = tmp_path / "ev.jsonl"
    with EventStream(sink=path) as stream:
        stream.emit("mc.deadline", states=12, deadline_s=0.5)
    events = read_events(path)
    assert [e["kind"] for e in events] == ["mc.deadline"]


def test_graph_writer_emits_mc_graph_event(tmp_path):
    from repro.obs.graph import GraphWriter

    stream = EventStream()
    writer = GraphWriter(tmp_path / "g.jsonl", mode="full", threads=1,
                         events=stream)
    Explorer(Interp(corpus.SEMAPHORE), [ThreadSpec.of(("Up",))],
             observer=writer).run()
    writer.close()
    (event,) = stream.snapshot("mc.graph")
    assert event["nodes"] == event["edges"] + 1
    assert event["path"].endswith("g.jsonl")
    assert not event["truncated"]
    # the graph event is the newest record
    assert stream.snapshot()[-1]["kind"] == "mc.graph"


def test_final_progress_beat_carries_extended_fields():
    events = EventStream()
    interp = Interp(corpus.SEMAPHORE)
    specs = [ThreadSpec.of(("Down",)), ThreadSpec.of(("Up",))]
    Explorer(interp, specs, mode="full",
             observer=observers.Heartbeat(9999, sink=lambda line: None,
                                          events=events)).run()
    beats = events.snapshot("explorer.progress")
    assert beats, "a final heartbeat must always be emitted"
    final = beats[-1]
    assert final["final"] is True
    assert 0.0 <= final["dedup_hit_rate"] <= 1.0
    assert final["mem_mb"] > 0
