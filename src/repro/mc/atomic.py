"""Atomic-block transitions for the model checker (§1, §6.1, §6.3).

When the static analysis has shown procedures atomic, each procedure
body "can be treated as a single transition during subsequent analysis";
this module implements that reduction in two flavours:

* **run-to-commit** — execute the thread's next invocation of the
  *original* procedure to completion as one transition.  A pure spin
  (e.g. UpdateTail waiting for a lagging Tail) revisits a state inside
  the run and makes the transition *disabled* — the operation simply
  cannot complete from here, and will be retried after another thread
  moves.
* **variant mode** — execute one *exceptional variant* (§5.2) of the
  procedure per transition, straight-line under its TRUE(...)
  assumptions; a failed assumption disables that variant.  This is
  precisely the reduction Theorems 4.1/5.2 justify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AssertionViolation, InterpError
from repro.interp.interp import AssumeFailed, Interp
from repro.interp.state import Event, World
from repro.mc.canonical import state_key


@dataclass
class AtomicOutcome:
    """Result of attempting one atomic transition."""

    world: Optional[World] = None          # successor (None if disabled)
    events: list[Event] = field(default_factory=list)
    violation: Optional[str] = None
    desc: str = ""


#: steps one atomic transition may take.  A run that neither returns
#: nor revisits a state within it is an error, not a disabled
#: transition: its states grow without bound
ATOMIC_STEP_BUDGET = 10_000


def run_to_commit(interp: Interp, world: World, tid: int) -> AtomicOutcome:
    """Run thread ``tid``'s next whole invocation as one transition."""
    w = world.copy()
    name, args = w.threads[tid].current_call()
    outcome = AtomicOutcome(desc=f"t{tid}:{name}{args}")
    return _run_to_return(interp, w, tid, name, outcome)


def run_variant(original: Interp, variant_interp: Interp, world: World,
                tid: int, variant_name: str) -> AtomicOutcome:
    """Run one exceptional variant of the thread's next invocation as a
    single transition (under the variant program's CFGs)."""
    w = world.copy()
    name, args = w.threads[tid].current_call()
    outcome = AtomicOutcome(desc=f"t{tid}:{name}{args} via {variant_name}")
    variant_interp.begin_call(w, tid, variant_name, args, display=name)
    outcome.events.append(w.history[-1])
    return _run_to_return(variant_interp, w, tid, variant_name, outcome)


def _run_to_return(interp: Interp, w: World, tid: int, what: str,
                   outcome: AtomicOutcome) -> AtomicOutcome:
    """Step thread ``tid`` of ``w`` in place until its invocation of
    ``what`` returns, then set ``outcome.world``.  A failed assumption
    or a revisited state (pure spinning) leaves the transition
    disabled; a failed assertion sets ``outcome.violation``."""
    # owned by ``w``, which is never copied during the run, so this
    # stays the thread every step writes
    thread = w.own_thread(tid)
    seen = {state_key(w)}
    for _ in range(ATOMIC_STEP_BUDGET):
        try:
            event = interp.step(w, tid)
        except AssumeFailed:
            return outcome
        except AssertionViolation as exc:
            outcome.violation = f"assertion failed in {what}: {exc}"
            return outcome
        if event is not None:
            outcome.events.append(event)
        if thread.frame is None:
            outcome.world = w
            return outcome
        key = state_key(w)
        if key in seen:
            return outcome
        seen.add(key)
    raise InterpError(
        f"atomic run of {what} exceeded {ATOMIC_STEP_BUDGET} steps")
