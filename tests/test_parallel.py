"""The ordered fork-map behind ``--jobs`` (:mod:`repro.parallel`):
submission order, equality with a sequential map, the clamp to the
item count, worker failures raised as :class:`WorkerError`, and
``experiments section63 --jobs`` — a killed worker exits 2, and the
parallel document equals the sequential one."""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.parallel import WorkerError, fork_map

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="fork_map runs in-process")


def _square(item):
    return item * item


def _kill_self_on_truthy(item):
    if item:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


# -- fork_map ----------------------------------------------------------------------

def test_fork_map_returns_values_in_submission_order():
    items = list(range(7))
    assert fork_map(_square, items, 3) == [i * i for i in items]


@needs_fork
def test_fork_map_strides_items_across_workers():
    pids = fork_map(lambda _: os.getpid(), list(range(7)), 3)
    # worker w runs items[w::3]
    assert [pids[i] == pids[i % 3] for i in range(7)] == [True] * 7
    assert len(set(pids)) == 3 and os.getpid() not in pids


def test_fork_map_matches_sequential_map():
    items = ["a", "bb", "ccc"]
    assert fork_map(len, items, 2) == fork_map(len, items, 1) \
        == [len(i) for i in items]


def test_fork_map_clamps_jobs_to_items():
    assert fork_map(_square, [5], 4) == [25]
    # one item is one job: no fork
    assert fork_map(lambda _: os.getpid(), [0], 4) == [os.getpid()]
    assert fork_map(_square, [], 4) == []


@pytest.mark.parametrize("jobs", [0, -1])
def test_fork_map_rejects_bad_jobs(jobs):
    with pytest.raises(ValueError):
        fork_map(_square, [1], jobs)


@needs_fork
def test_fork_map_worker_exception_raises_worker_error():
    def boom(item):
        if item == 2:
            raise RuntimeError("injected failure")
        return item

    with pytest.raises(WorkerError) as err:
        fork_map(boom, [0, 1, 2, 3], 2)
    message = str(err.value)
    assert isinstance(err.value, ReproError)
    assert "worker 0 of 2" in message
    assert "RuntimeError: injected failure" in message
    assert "worker 1" not in message          # the healthy worker


@needs_fork
def test_fork_map_killed_worker_raises_worker_error():
    with pytest.raises(WorkerError,
                       match=r"worker 1 of 2 .* killed by signal 9"):
        fork_map(_kill_self_on_truthy, [0, 1], 2)


@needs_fork
def test_fork_map_nonzero_exit_raises_worker_error():
    with pytest.raises(WorkerError, match="exited with status 3"):
        fork_map(lambda _: os._exit(3), [0, 1], 2)


@needs_fork
def test_fork_map_returns_values_larger_than_a_pipe_buffer():
    big = fork_map(lambda n: "x" * n, [1 << 20, 3], 2)
    assert [len(v) for v in big] == [1 << 20, 3]


@needs_fork
def test_fork_map_removes_its_result_files(tmp_path, monkeypatch):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert fork_map(_square, [1, 2, 3], 2) == [1, 4, 9]
    with pytest.raises(WorkerError):
        fork_map(lambda _: 1 / 0, [1, 2], 2)
    assert list(tmp_path.iterdir()) == []


# -- experiments section63 --jobs -------------------------------------------------

_SECTION63 = ["experiments", "section63", "--threads", "2",
              "--max-states", "200"]


@needs_fork
def test_section63_jobs_killed_worker_exits_2(capsys, monkeypatch):
    from repro.experiments import section63

    parent = os.getpid()
    real = section63._run_one

    def run_or_die(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(section63, "_run_one", run_or_die)
    assert main(_SECTION63 + ["--jobs", "2"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "killed by signal 9" in line


@needs_fork
def test_section63_jobs_json_matches_sequential(capsys):
    argv = _SECTION63 + ["--json"]
    assert main(argv + ["--jobs", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    sequential = json.loads(capsys.readouterr().out)
    assert set(parallel) == set(sequential)
    for key in ("verdicts", "matches_paper"):
        assert parallel[key] == sequential[key], key
