"""§6.3's state-count comparison — atomicity reduction vs. a classic
partial-order reduction on Gao & Hesselink's large-object algorithm.

The paper implemented the algorithm in SPIN with "a driver with 3
threads that concurrently invoke arithmetic operations on a shared
object with 3 integer fields, each in its own group" and reports:

    no optimization                 4,069,080 states
    SPIN's partial-order reduction    452,043 states
    atomic procedure bodies            69,215 states
    both                                4,619 states

SPIN is unavailable; our model checker plays its role (DESIGN.md), with
the same driver shape.  The *ordering* no-opt ≫ POR ≫ atomic > both is
the reproduced result; absolute counts differ with the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.gao_hesselink import GH_PROGRAM1
from repro.experiments.common import Table
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer, MCResult, observers

PAPER = {
    "none": 4_069_080,
    "por": 452_043,
    "atomic": 69_215,
    "both": 4_619,
}


def commutes(a: tuple, b: tuple) -> bool:
    """Operation-commutativity oracle for the ``both`` mode: two Apply
    operations on different groups commute (each updates its own group
    and the analysis shows each whole operation atomic)."""
    return a[0] == "Apply" and b[0] == "Apply" and a[1] != b[1]


@dataclass
class Section63Result:
    results: dict[str, MCResult] = field(default_factory=dict)
    #: merged fleet telemetry doc when the grid ran with ``jobs > 1``
    fleet: dict | None = None

    def verdicts(self) -> dict[str, dict]:
        """Deterministic per-mode verdict map (``experiments
        section63 --json``).  No wall times: a parallel grid must
        match a sequential one."""
        return {mode: {"states": r.states,
                       "transitions": r.transitions,
                       "violation": r.violation,
                       "capped": r.capped}
                for mode, r in sorted(self.results.items())}

    @property
    def matches_paper(self) -> bool:
        none = self.results["none"].states
        por = self.results["por"].states
        atomic = self.results["atomic"].states
        both = self.results["both"].states
        return (none > por > atomic >= both
                and none / atomic > 100  # atomicity beats POR decisively
                and none / por < none / atomic)


def _run_one(mode: str, n_threads: int, max_states: int,
             observer=None) -> MCResult:
    interp = Interp(GH_PROGRAM1)
    specs = [ThreadSpec.of(("Apply", g + 1)) for g in range(n_threads)]
    return Explorer(interp, specs, mode={"none": "full"}.get(mode, mode),
                    commutes=commutes if mode == "both" else None,
                    max_states=max_states, observer=observer).run()


#: MCResult fields a fleet worker ships back to the parent — the
#: deterministic verdict of one grid cell plus its wall time.  The
#: state *sets* (quiescent/final) stay in the worker; the grid only
#: compares counts.
_CELL_FIELDS = ("states", "transitions", "elapsed", "violation",
                "trace", "capped", "deadline_hit")


def run(n_threads: int = 3, max_states: int = 2_000_000,
        modes: tuple = ("none", "por", "atomic", "both"),
        jobs: int = 1) -> Section63Result:
    """Run the §6.3 variant grid, one MC exploration per mode.

    With ``jobs > 1`` the modes are fanned across forked fleet workers
    (:mod:`repro.obs.fleet`); each cell is an independent state-space
    exploration, so the per-mode verdicts are identical to a
    sequential run — only the wall clock changes."""
    out = Section63Result()
    if jobs <= 1:
        for mode in modes:
            out.results[mode] = _run_one(mode, n_threads, max_states)
        return out

    from repro.obs import fleet

    def worker(mode, spool_handle):
        events = spool_handle.events
        result = _run_one(mode, n_threads, max_states, observers.compose(
            observers.Events(events),
            observers.Profile(spool_handle.profiler, events)))
        return {"mode": mode,
                **{f: getattr(result, f) for f in _CELL_FIELDS}}

    cells, merge = fleet.run_fleet(list(modes), worker, jobs=jobs,
                                   label="section63")
    for cell in cells:
        mode = cell.pop("mode")
        out.results[mode] = MCResult(
            mode={"none": "full"}.get(mode, mode), **cell)
    out.fleet = merge.doc
    return out


def main(n_threads: int = 3, max_states: int = 2_000_000,
         jobs: int = 1) -> str:
    result = run(n_threads, max_states, jobs=jobs)
    return render(result, n_threads)


def render(result: Section63Result, n_threads: int = 3) -> str:
    table = Table(
        "Section 6.3: reachable states, GH large objects "
        f"({n_threads} threads, one group each; SPIN -> our checker)",
        ["configuration", "states", "time", "paper (SPIN)"])
    names = {"none": "no optimization", "por": "partial-order reduction",
             "atomic": "atomic procedure bodies", "both": "both"}
    for mode, r in result.results.items():
        states = f">{r.states}" if r.capped else str(r.states)
        table.add(names[mode], states, f"{r.elapsed:.2f}s",
                  f"{PAPER[mode]:,}")
    table.note(f"ordering matches paper: {result.matches_paper}")
    return table.render()


if __name__ == "__main__":  # pragma: no cover
    print(main())
