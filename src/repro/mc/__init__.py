"""Explicit-state model checking substrate (stands in for TVLA in
Table 2 and for SPIN in §6.3 — see DESIGN.md for the substitution
rationale)."""

from repro.mc.atomic import AtomicOutcome, run_to_commit, run_variant
from repro.mc.canonical import quiescent_key, shared_key, state_key
from repro.mc.explorer import Explorer, MCResult
from repro.mc.por import SafetyCache
from repro.mc.properties import Property, QueueContents, QueueShape

__all__ = [
    "Explorer",
    "MCResult",
    "state_key",
    "quiescent_key",
    "shared_key",
    "run_to_commit",
    "run_variant",
    "AtomicOutcome",
    "SafetyCache",
    "Property",
    "QueueShape",
    "QueueContents",
]
