"""Classification provenance: *why* an action got its mover type.

Every :class:`~repro.analysis.inference.Site` accumulates a chain of
:class:`Justification` records as the §5.4 classification steps fire.
Each record names the pipeline step, the theorem it applies (3.1, 3.2,
5.1, 5.3, 5.4, 5.5, or the LL-agreement argument), the mover type it
contributed, and a human-readable detail, rendering compactly as e.g.::

    R by Thm 5.3: matching LL of a successful SC on Tail
    B by adjacency exclusion: both sides clear (Thm 5.1 x2, Thm 5.3 x1)

Step-4 records are *aggregates*: the adjacency-exclusion engine does a
case split over alias pairs and may need several theorems to close all
branches, so the per-theorem counts in the detail name every rule that
contributed marks to a successful exclusion (not a minimal proof core).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


#: theorem behind each classification rule tag
THEOREM_OF_RULE = {
    "local": "3.1",
    "acquire": "3.2",
    "release": "3.2",
    "successful-SC": "5.3",
    "successful-VL": "5.3",
    "matching-LL": "5.3",
    "matching-plain": "5.3",
    "successful-CAS": "5.4",
    "matching-CAS-read": "5.4",
    "lock": "5.1",
    "window-SC": "5.3",
    "window-CAS": "5.4",
    "condition": "5.5",
    "agreement": "LL-agreement",
}


@dataclass(frozen=True)
class Justification:
    """One link in a classification provenance chain."""

    step: str                       # 'step1' .. 'step6'
    rule: str                       # machine tag, e.g. 'matching-LL'
    mover: Optional[str] = None     # contributed atomicity letter
    theorem: Optional[str] = None   # '3.1', '5.3', ... or None
    detail: str = ""                # human-readable specifics
    counts: dict = field(default_factory=dict, compare=False)
    # per-theorem mark counts for aggregate (step-4) records

    def render(self) -> str:
        if self.theorem is not None and self.mover is not None:
            head = f"{self.mover} by Thm {self.theorem}"
        elif self.mover is not None:
            head = f"{self.mover} by {self.rule}"
        elif self.theorem is not None:
            head = f"Thm {self.theorem}"
        else:
            head = self.rule
        body = self.detail
        if self.counts:
            tally = ", ".join(f"Thm {t} x{n}" if t[0].isdigit() else
                              f"{t} x{n}"
                              for t, n in sorted(self.counts.items()))
            body = f"{body} ({tally})" if body else f"({tally})"
        return f"{head}: {body}" if body else head

    def to_dict(self) -> dict:
        out: dict = {"step": self.step, "rule": self.rule}
        if self.mover is not None:
            out["mover"] = self.mover
        if self.theorem is not None:
            out["theorem"] = self.theorem
        if self.detail:
            out["detail"] = self.detail
        if self.counts:
            # sorted, like render(): the engine fills counts from a set
            out["counts"] = dict(sorted(self.counts.items()))
        return out

    def __str__(self) -> str:
        return self.render()


def justify(step: str, rule: str, mover: Optional[str] = None,
            detail: str = "", counts: Optional[dict] = None
            ) -> Justification:
    """Build a record, filling the theorem in from the rule tag."""
    return Justification(step=step, rule=rule, mover=mover,
                         theorem=THEOREM_OF_RULE.get(rule),
                         detail=detail, counts=counts or {})
