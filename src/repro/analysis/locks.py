"""Lockset analysis (Theorem 5.1).

Computes, for every CFG node, the set of locks *certainly held* while it
executes (a forward must-analysis over ACQUIRE/RELEASE nodes).  Two
expressions inside synchronized statements on the same lock cannot
execute adjacently (Theorem 5.1); step 4 of the inference uses
``common_lock`` to discharge adjacency queries.

Lock identities are syntactic :class:`~repro.analysis.actions.Target`
descriptors; two locks are "the same" when the alias analysis says the
descriptors must alias (for globals: same name).
"""

from __future__ import annotations

from repro.analysis.actions import Target, _lock_target
from repro.analysis.alias import AliasAnalysis
from repro.cfg.dataflow import Problem, Solution, intersection_meet, solve
from repro.cfg.graph import CFGNode, NodeKind, ProcCFG


class LocksetResult:
    def __init__(self, sol: Solution):
        self._sol = sol

    def held_at(self, node: CFGNode) -> frozenset[Target]:
        """Locks held while ``node``'s actions execute.  For an ACQUIRE
        node the acquired lock is *not* yet counted (the acquire itself
        is the boundary); for a RELEASE node the released lock still is."""
        return self._sol.before[node]


def lockset_analysis(cfg: ProcCFG) -> LocksetResult:
    all_locks: set[Target] = set()
    for node in cfg.nodes:
        if node.kind is NodeKind.ACQUIRE:
            all_locks.add(_lock_target(node.expr))
    top = frozenset(all_locks)

    def transfer(node: CFGNode, fact: frozenset) -> frozenset:
        if node.kind is NodeKind.ACQUIRE:
            return fact | {_lock_target(node.expr)}
        if node.kind is NodeKind.RELEASE:
            return fact - {_lock_target(node.expr)}
        return fact

    problem: Problem[frozenset] = Problem(
        boundary=frozenset(),
        init=top,
        meet=intersection_meet,
        transfer=transfer,
    )
    return LocksetResult(solve(cfg, problem))


def common_lock(aliases: AliasAnalysis, held_a: frozenset[Target],
                held_b: frozenset[Target]) -> bool:
    """Do the two locksets certainly share a lock?  (Uses must-alias:
    a shared *name* guarantees the same lock object for globals.)"""
    for la in held_a:
        for lb in held_b:
            if aliases.must_alias(la, lb):
                return True
    return False
