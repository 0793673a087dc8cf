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
from repro.mc import Explorer, MCResult

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

    def verdicts(self) -> dict[str, dict]:
        """Deterministic per-mode verdict map (``experiments
        section63 --json``).  No wall times, so two runs of the same
        grid give the same map."""
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


def _run_one(mode: str, n_threads: int, max_states: int) -> MCResult:
    interp = Interp(GH_PROGRAM1)
    specs = [ThreadSpec.of(("Apply", g + 1)) for g in range(n_threads)]
    return Explorer(interp, specs, mode={"none": "full"}.get(mode, mode),
                    commutes=commutes if mode == "both" else None,
                    max_states=max_states).run()


def run(n_threads: int = 3,
        max_states: int = 2_000_000) -> Section63Result:
    """Run the §6.3 variant grid: one MC exploration per mode, in the
    order none, por, atomic, both."""
    out = Section63Result()
    for mode in ("none", "por", "atomic", "both"):
        out.results[mode] = _run_one(mode, n_threads, max_states)
    return out


def main(n_threads: int = 3, max_states: int = 2_000_000) -> str:
    return render(run(n_threads, max_states), n_threads)


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
