"""Line-oriented records: the JSONL reader, the run path log, and the
explorer's final progress beat."""

from __future__ import annotations

import pytest

from repro import corpus
from repro.interp import Interp, ThreadSpec, run_random
from repro.mc import Explorer, observers
from repro.obs.export import PATH_STEP_SCHEMA, read_jsonl, validate


# -- the JSONL reader ---------------------------------------------------------------

def test_read_jsonl_drops_a_torn_final_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"kind": "node", "depth": 1}\n'
                    '\n'
                    '{"kind": "no')       # writer killed mid-write
    assert read_jsonl(path) == [{"kind": "node", "depth": 1}]
    # a final line that parses is kept, newline or not
    path.write_text('{"depth": 1}\n{"depth": 2}')
    assert [r["depth"] for r in read_jsonl(path)] == [1, 2]


@pytest.mark.parametrize("text, line", [
    ('{"depth": 1}\n{"dep\n{"depth": 3}\n', 2),   # corrupt mid-file
    ('{"depth": 1}\n{"dep\n', 2),                  # torn, then newline
    ('{"depth": 1}\n[1, 2]\n', 2),                 # not an object
])
def test_read_jsonl_names_file_and_line_of_a_bad_line(tmp_path, text,
                                                      line):
    path = tmp_path / "records.jsonl"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"records.jsonl:{line}:"):
        read_jsonl(path)


# -- the run path log ---------------------------------------------------------------

def test_run_path_log_matches_schema():
    interp = Interp(corpus.SEMAPHORE)
    world = interp.make_world([ThreadSpec.of(("Down",))])
    path_log: list = []
    run_random(interp, world, seed=0, path_log=path_log)
    assert path_log and path_log[0]["kind"] == "invoke"
    for step in path_log:
        assert validate(step, PATH_STEP_SCHEMA) == []
    assert any(s["kind"] == "stmt" and s["uid"] is not None
               for s in path_log)


# -- the explorer's progress beat ---------------------------------------------------

def test_final_progress_beat_carries_extended_fields():
    beats: list[str] = []
    interp = Interp(corpus.SEMAPHORE)
    specs = [ThreadSpec.of(("Down",)), ThreadSpec.of(("Up",))]
    result = Explorer(interp, specs, mode="full",
                      observer=observers.Heartbeat(
                          9999, sink=beats.append)).run()
    # a period too long to beat still ends with the final beat
    (final,) = beats
    assert final.startswith("[mc:full] done ")
    fields = dict(f.split("=", 1) for f in final.split()
                  if "=" in f)
    assert fields["states"] == str(result.states)
    assert fields["trans"] == str(result.transitions)
    assert int(fields["depth_max"]) >= 1
    assert float(fields["mem"].removesuffix("MB")) > 0
    assert fields["rate"].endswith("/s")
