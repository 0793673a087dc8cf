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


def run_to_commit(interp: Interp, world: World, tid: int,
                  step_budget: int = 10_000) -> AtomicOutcome:
    """Run thread ``tid``'s next whole invocation as one transition."""
    w = world.copy()
    # owned by ``w``, which is never copied during the run, so this
    # stays the thread every step writes
    thread = w.own_thread(tid)
    name, args = thread.current_call()
    outcome = AtomicOutcome(desc=f"t{tid}:{name}{args}")
    seen = {state_key(w)}
    for _ in range(step_budget):
        try:
            event = interp.step(w, tid)
        except AssumeFailed:
            return outcome  # disabled
        except AssertionViolation as exc:
            outcome.violation = f"assertion failed in {name}: {exc}"
            return outcome
        if event is not None:
            outcome.events.append(event)
        if thread.frame is None and thread.steps > 0 \
                and outcome.events and outcome.events[-1].kind == "return":
            outcome.world = w
            return outcome
        key = state_key(w)
        if key in seen:
            return outcome  # pure spinning: disabled from this state
        seen.add(key)
    raise InterpError(
        f"atomic run of {name} exceeded {step_budget} steps")


def run_variant(original: Interp, variant_interp: Interp, world: World,
                tid: int, variant_name: str,
                step_budget: int = 10_000) -> AtomicOutcome:
    """Run one exceptional variant of the thread's next invocation as a
    single transition (under the variant program's CFGs)."""
    w = world.copy()
    thread = w.own_thread(tid)  # as in run_to_commit
    name, args = thread.current_call()
    outcome = AtomicOutcome(desc=f"t{tid}:{name}{args} via {variant_name}")
    variant_interp.begin_call(w, tid, variant_name, args, display=name)
    outcome.events.append(w.history[-1])
    seen = {state_key(w)}
    for _ in range(step_budget):
        try:
            event = variant_interp.step(w, tid)
        except AssumeFailed:
            return outcome  # this variant's assumptions do not hold
        except AssertionViolation as exc:
            outcome.violation = f"assertion failed in {variant_name}: {exc}"
            return outcome
        if event is not None:
            outcome.events.append(event)
        if thread.frame is None:
            outcome.world = w
            return outcome
        key = state_key(w)
        if key in seen:
            return outcome  # residual loop spins: disabled
        seen.add(key)
    raise InterpError(
        f"atomic variant {variant_name} exceeded {step_budget} steps")
