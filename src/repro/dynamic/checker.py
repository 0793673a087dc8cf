"""A lock-based *runtime* atomicity checker (the §2 baseline).

The paper positions itself against runtime reduction checkers — Wang &
Stoller's block-based algorithm and Flanagan & Freund's Atomizer — and
notes that "all of this work focuses on locks and is not effective for
programs that use non-blocking synchronization".  This module
implements that baseline so the claim can be measured (see
``experiments/baseline_runtime.py``):

* the interpreter records, per procedure invocation, the sequence of
  shared actions with the lockset held at each;
* actions are classified by Lipton reduction *as the lock-based
  checkers do*: lock acquires are right-movers, releases left-movers; a
  shared access is a both-mover when every concurrent access to the
  same location (anywhere in the trace) holds a common lock, and
  non-mover (atomic) otherwise;
* an invocation is reduction-atomic when its sequence matches
  ``R*;(A|ε);L*`` — folded with the same §3.3 calculus.

On lock-based code this validates atomic procedures; on non-blocking
code every LL/SC/CAS access is lock-unprotected, so any procedure with
two shared accesses fails — exactly the weakness the paper's static
analysis overcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import atomicity as AT
from repro.analysis.atomicity import Atomicity


@dataclass(frozen=True)
class TraceAction:
    """One shared action observed at runtime."""

    tid: int
    op: str                 # 'read' | 'write' | 'acquire' | 'release'
    addr: tuple             # interpreter address, or lock oid
    locks: frozenset        # lock oids held while performing it
    invocation: int         # invocation index this action belongs to


@dataclass
class Invocation:
    index: int
    tid: int
    proc: str
    actions: list[TraceAction] = field(default_factory=list)


@dataclass
class RuntimeVerdict:
    proc: str
    atomic: bool
    witnesses: int                 # invocations observed
    failing: list[int] = field(default_factory=list)


class RuntimeAtomicityChecker:
    """Block-based reduction check over a recorded trace."""

    def __init__(self) -> None:
        self.trace: list[TraceAction] = []
        self.invocations: list[Invocation] = []
        #: classification depends only on (op, addr, locks, tid); cache it
        self._protected_cache: dict[tuple, bool] = {}

    # -- recording ------------------------------------------------------------
    def begin(self, tid: int, proc: str) -> int:
        inv = Invocation(len(self.invocations), tid, proc)
        self.invocations.append(inv)
        return inv.index

    def record(self, invocation: int, tid: int, op: str, addr: tuple,
               locks: frozenset) -> None:
        action = TraceAction(tid, op, addr, locks, invocation)
        self.trace.append(action)
        self.invocations[invocation].actions.append(action)

    # -- classification (locks-only, as in the baselines) -----------------------
    def _protected(self, action: TraceAction) -> bool:
        """Is every concurrent access to this location guarded by a
        common lock?  (The classic lockset argument.)"""
        key = (action.tid, action.op, action.addr, action.locks)
        cached = self._protected_cache.get(key)
        if cached is not None:
            return cached
        out = True
        for other in self.trace:
            if other.tid == action.tid or other.addr != action.addr:
                continue
            if "write" not in (other.op, action.op):
                continue  # read/read never conflicts
            if not (other.locks & action.locks):
                out = False
                break
        self._protected_cache[key] = out
        return out

    def classify(self, action: TraceAction) -> Atomicity:
        if action.op == "acquire":
            return AT.R
        if action.op == "release":
            return AT.L
        return AT.B if self._protected(action) else AT.A

    # -- verdicts --------------------------------------------------------------
    def check_invocation(self, inv: Invocation) -> bool:
        seq = [self.classify(a) for a in inv.actions]
        return AT.is_atomic(AT.seq_all(seq))

    def verdicts(self) -> dict[str, RuntimeVerdict]:
        out: dict[str, RuntimeVerdict] = {}
        for inv in self.invocations:
            verdict = out.setdefault(
                inv.proc, RuntimeVerdict(inv.proc, True, 0))
            verdict.witnesses += 1
            if not self.check_invocation(inv):
                verdict.atomic = False
                verdict.failing.append(inv.index)
        return out
