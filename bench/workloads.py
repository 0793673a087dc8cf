"""The benchmark's workloads.

Each workload turns the seed into inputs and runs one discarded warm-up
task in ``setup``; ``tasks()`` then yields an endless stream of
``(label, fn)`` tasks.  A task runs the program once and checks its
output against ``expected.json``.  Seed 0 keeps the paper's thread order
and the corpus order; any other seed permutes thread order (model
checking) or program order, afresh for every pass over the corpus
(analysis, CLI).  The program sees only these inputs.

Only worker processes import this module: each workload imports the
parts of ``repro`` it drives inside ``setup``, so that cost is part of
the measured set-up time.
"""

from __future__ import annotations

import functools
import json
import random
import re
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

from gauge import interpreter_start

BENCH = Path(__file__).resolve().parent
_EXPECTED = json.loads((BENCH / "expected.json").read_text())
KNOWN = _EXPECTED["known_answers"]
PINS = _EXPECTED["seed0_pins"]

#: state cap of the --quick size and of every warm-up exploration
QUICK_CAP = 300
#: programs of the --quick size: one atomic (exit 0), one not (exit 1)
QUICK_PROGRAMS = ("GH_PROGRAM1", "BROKEN_SEMAPHORE")
#: per-layer metrics only the CLI workload measures
CLI_METRICS = ("cli.python_start_s", "cli.import_s", "cli.command_s",
               "cli.residual_s")

Task = tuple[str, Callable[[], "Outcome"]]


@dataclass
class Outcome:
    """What one task did: its work units (states, analyses or
    invocations), the first failed check, and the counts that the same
    seed must reproduce exactly."""

    units: int
    error: Optional[str] = None
    counts: Optional[dict] = None


def _verdict_error(name: str, got: dict) -> Optional[str]:
    want = KNOWN["verdicts"][name]
    if got != want:
        return f"{name}: verdicts {got} != expected {want}"
    return None


def _pin_error(pin: Optional[dict], counts: dict) -> Optional[str]:
    if pin is not None and pin != counts:
        return f"seed-0 pin {pin} != measured {counts}"
    return None


class Workload:
    name = ""
    #: what one task is, and the work ``work_per_s`` counts
    task_noun = ""
    work_noun = ""
    #: whose ``ru_maxrss`` is the workload's peak memory
    rss_of = resource.RUSAGE_SELF
    #: False when the program runs in child processes (nothing to wrap
    #: in this one)
    in_process = True

    def __init__(self, seed: int, quick: bool, tmp: Path):
        self.seed = seed
        self.quick = quick
        self.tmp = Path(tmp)
        self.rng = random.Random(seed)
        #: tasks in each phase of a traced run; set by ``setup``
        self.traced_n = 1

    def _permute(self, items: list) -> list:
        items = list(items)
        if self.seed:
            self.rng.shuffle(items)
        return items

    def setup(self) -> None:
        raise NotImplementedError

    def tasks(self) -> Iterator[Task]:
        raise NotImplementedError

    def traced_tasks(self, tracer) -> Iterator[Task]:
        """The task stream of the traced phase."""
        return self.tasks()

    def layer_metrics(self, traced: list[float]) -> dict:
        """Per-layer metrics the tracer cannot see (CLI start-up), given
        the traced tasks' wall times."""
        return dict.fromkeys(CLI_METRICS, 0.0)


class GHExplore(Workload):
    """``GH_PROGRAM1`` with threads ``Apply(1..3)``, capped at 20000
    states, in one exploration mode."""

    task_noun = "explorations"
    work_noun = "states"
    CAP = 20_000

    def __init__(self, mode: str, *args):
        super().__init__(*args)
        self.mode = mode
        self.name = f"gh-{mode}"

    def setup(self) -> None:
        from repro.corpus import GH_PROGRAM1
        from repro.interp import Interp, ThreadSpec
        from repro.mc import Explorer

        self._explorer = Explorer
        self.specs = [ThreadSpec.of(("Apply", i))
                      for i in self._permute([1, 2, 3])]
        self.interp = Interp(GH_PROGRAM1)
        self.cap = QUICK_CAP if self.quick else self.CAP
        self.pin = PINS[self.name] \
            if self.seed == 0 and not self.quick else None
        self.traced_n = 1 if self.quick else 2
        self._explore(QUICK_CAP)

    def _explore(self, cap: int):
        return self._explorer(self.interp, self.specs, mode=self.mode,
                              max_states=cap).run()

    def tasks(self) -> Iterator[Task]:
        while True:
            yield f"explore {self.mode}", self._task

    def _task(self) -> Outcome:
        r = self._explore(self.cap)
        counts = {"states": r.states, "transitions": r.transitions}
        if r.violation != KNOWN["gh_program1_violation"]:
            error = f"unexpected violation: {r.violation}"
        elif not r.capped or r.states != self.cap:
            error = (f"expected a run capped at {self.cap} states, got "
                     f"{r.states} (capped={r.capped})")
        else:
            error = _pin_error(self.pin, counts)
        return Outcome(r.states, error, counts)


class Table2(Workload):
    """Table 2's six explorations of NFQ' (drivers as in
    ``repro.experiments.table2``); one task is the whole table."""

    name = "table2-nfq"
    task_noun = "Table-2 passes"
    work_noun = "states"
    #: the cap ``experiments table2`` uses; no row reaches it
    MAX_STATES = 400_000

    def setup(self) -> None:
        from repro.corpus import NFQ_PRIME, NFQ_PRIME_BUGGY
        from repro.interp import Interp, ThreadSpec
        from repro.mc import Explorer, QueueContents, QueueShape

        self._explorer = Explorer
        self._properties = lambda: [QueueShape(), QueueContents()]
        of = ThreadSpec.of
        update = of(("UpdateTail",), repeat=True)
        add_heavy = [of(("AddNode", 1)), of(("AddNode", 2)), of(("DeqP",)),
                     update]
        deq_heavy = [of(("AddNode", 1)), of(("DeqP",)), of(("DeqP",)),
                     update]
        correct, buggy = Interp(NFQ_PRIME), Interp(NFQ_PRIME_BUGGY)
        self.rows = [
            ("unbounded AddNode", correct, self._permute(add_heavy)),
            ("unbounded DeqP", correct, self._permute(deq_heavy)),
            ("incorrect AddNode", buggy, self._permute(add_heavy)),
        ]
        self.cap = QUICK_CAP if self.quick else self.MAX_STATES
        self.pins = PINS[self.name] \
            if self.seed == 0 and not self.quick else {}
        self._table(QUICK_CAP)

    def _table(self, cap: int) -> dict:
        return {(name, mode): self._explorer(
                    interp, specs, mode=mode,
                    properties=self._properties(), max_states=cap).run()
                for name, interp, specs in self.rows
                for mode in ("full", "atomic")}

    def tasks(self) -> Iterator[Task]:
        while True:
            yield "table2", self._task

    def _task(self) -> Outcome:
        results = self._table(self.cap)
        counts = {f"{name}/{mode}": {"states": r.states,
                                     "transitions": r.transitions}
                  for (name, mode), r in results.items()}
        errors = []
        for (name, mode), r in results.items():
            if r.capped and (not self.quick or r.states != self.cap):
                errors.append(f"{name}/{mode}: capped at {r.states} states")
        t2 = KNOWN["table2"]
        for name in t2["correct_rows"]:
            full, atomic = results[(name, "full")], results[(name, "atomic")]
            for r in (full, atomic):
                if r.violation is not None:
                    errors.append(f"{name}/{r.mode}: violation {r.violation}")
            if not self.quick \
                    and full.states < t2["min_reduction"] * atomic.states:
                errors.append(f"{name}: reduction {full.states}/"
                              f"{atomic.states} below "
                              f"{t2['min_reduction']}x")
        for name in t2["buggy_rows"]:
            for mode in ("full", "atomic"):
                r = results[(name, mode)]
                if r.violation is None and not r.capped:
                    errors.append(f"{name}/{mode}: violation not found")
        for key, pin in self.pins.items():
            error = _pin_error(pin, counts[key])
            if error:
                errors.append(f"{key}: {error}")
        return Outcome(sum(r.states for r in results.values()),
                       "; ".join(errors) or None, counts)


def _corpus_programs(quick: bool) -> list[tuple[str, str]]:
    from repro import corpus

    if set(corpus.__all__) != set(KNOWN["verdicts"]):
        raise ValueError("the corpus and expected.json list different "
                         "programs")
    names = QUICK_PROGRAMS if quick else corpus.__all__
    return [(name, getattr(corpus, name)) for name in names]


class CorpusAnalyze(Workload):
    """In-process ``analyze_program`` over the whole corpus."""

    name = "corpus-analyze"
    task_noun = "analyses"
    work_noun = "analyses"
    TRACED_PASSES = 5

    def setup(self) -> None:
        from repro.analysis import analyze_program

        self._analyze_program = analyze_program
        self.programs = _corpus_programs(self.quick)
        self.traced_n = len(self.programs) * (
            1 if self.quick else self.TRACED_PASSES)
        self._analyze(*self.programs[0])

    def _analyze(self, name: str, source: str) -> Outcome:
        result = self._analyze_program(source)
        got = {proc: v.atomic for proc, v in result.verdicts.items()}
        return Outcome(1, _verdict_error(name, got))

    def tasks(self) -> Iterator[Task]:
        while True:
            for name, source in self._permute(self.programs):
                yield name, functools.partial(self._analyze, name, source)


_VERDICT_LINE = re.compile(r"^(\w+): (ATOMIC|not shown atomic)$", re.M)


class CliAnalyze(Workload):
    """Cold ``python -m repro analyze FILE`` over the corpus."""

    name = "cli-analyze"
    task_noun = "CLI calls"
    work_noun = "invocations"
    rss_of = resource.RUSAGE_CHILDREN
    in_process = False
    TRACED_CALLS = 10

    def setup(self) -> None:
        self.programs = []
        for name, source in _corpus_programs(self.quick):
            path = self.tmp / f"{name}.synl"
            path.write_text(source)
            self.programs.append((name, path))
        self.traced_n = len(self.programs) if self.quick \
            else self.TRACED_CALLS
        self._probe_times: dict[str, list[float]] = {
            "import_s": [], "command_s": []}
        # the first call after a checkout also compiles the .pyc files
        self._cli(*self.programs[0])

    def _cli(self, name: str, path: Path,
             command: Optional[list[str]] = None) -> Outcome:
        command = command or [sys.executable, "-m", "repro"]
        proc = subprocess.run(command + ["analyze", str(path)],
                              cwd=self.tmp, capture_output=True, text=True,
                              timeout=120)
        want = KNOWN["verdicts"][name]
        want_exit = 0 if all(want.values()) else 1
        if proc.returncode != want_exit:
            return Outcome(1, f"{name}: exit {proc.returncode} != "
                              f"{want_exit}: {proc.stderr[-300:]}")
        got = {proc_name: verdict == "ATOMIC"
               for proc_name, verdict in _VERDICT_LINE.findall(proc.stdout)}
        return Outcome(1, _verdict_error(name, got))

    def tasks(self) -> Iterator[Task]:
        while True:
            for name, path in self._permute(self.programs):
                yield name, functools.partial(self._cli, name, path)

    def traced_tasks(self, tracer) -> Iterator[Task]:
        for name, _fn in self.tasks():
            path = dict(self.programs)[name]
            yield name, functools.partial(self._probe, name, path, tracer)

    def _probe(self, name: str, path: Path, tracer) -> Outcome:
        """One CLI call through ``cli_probe.py``: the same command with
        the layer tracer installed in the child, which reports its
        import and command times and its layer aggregates."""
        out = self.tmp / "probe.json"
        out.unlink(missing_ok=True)
        outcome = self._cli(name, path, [sys.executable,
                                         str(BENCH / "cli_probe.py"),
                                         str(out)])
        if outcome.error is not None:
            return outcome
        doc = json.loads(out.read_text())
        tracer.merge(doc["trace"])
        for key, values in self._probe_times.items():
            values.append(doc[key])
        return outcome

    def layer_metrics(self, traced: list[float]) -> dict:
        """A traced call's wall time split into interpreter start-up
        (``python -c pass``), ``import repro.cli``, the command, and the
        rest (``-m`` dispatch, tracer set-up, interpreter teardown)."""
        starts = [interpreter_start() for _ in range(self.traced_n)]
        imports = self._probe_times["import_s"]
        commands = self._probe_times["command_s"]
        start = statistics.median(starts)
        rest = [wall - i - c for wall, i, c in zip(traced, imports, commands)]
        return {"cli.python_start_s": start,
                "cli.import_s": statistics.median(imports),
                "cli.command_s": statistics.median(commands),
                "cli.residual_s": statistics.median(rest) - start}


def make(name: str, seed: int, quick: bool, tmp: Path) -> Workload:
    if name in ("gh-full", "gh-por"):
        return GHExplore(name[3:], seed, quick, tmp)
    workloads = {cls.name: cls for cls in (Table2, CorpusAnalyze, CliAnalyze)}
    if name not in workloads:
        raise ValueError(f"unknown workload {name!r}")
    return workloads[name](seed, quick, tmp)
