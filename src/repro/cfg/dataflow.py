"""A small generic worklist dataflow framework over :class:`ProcCFG`.

Analyses are forward problems described by a :class:`Problem`: the
entry fact, initial values, a meet over predecessor facts, and a
per-node transfer function.  Facts can be any values with a
well-defined equality; the solver iterates to a fixpoint.  This powers
the escape analysis (:mod:`repro.analysis.escape`) and the must-held
locksets (:mod:`repro.analysis.locks`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Generic, Optional, TypeVar

from repro.cfg.graph import CFGNode, Edge, ProcCFG

Fact = TypeVar("Fact")


@dataclass
class Problem(Generic[Fact]):
    """A forward dataflow problem.

    ``transfer(node, fact_in)`` returns the fact below the node;
    ``meet(facts)`` combines facts from multiple incoming CFG edges (it
    is called with at least one fact); ``boundary`` is the fact at the
    entry node; ``init`` is the initial fact for all other nodes
    (typically the lattice top for must-analyses or bottom for
    may-analyses).

    ``edge_transfer(edge, fact)``, when given, refines the fact flowing
    along a specific CFG edge — used for branch-sensitive facts such as
    "freshness survives the failure edge of an SC" in the escape
    analysis.
    """

    boundary: Fact
    init: Fact
    meet: Callable[[list[Fact]], Fact]
    transfer: Callable[[CFGNode, Fact], Fact]
    edge_transfer: Optional[Callable[[Edge, Fact], Fact]] = None


class Solution(Generic[Fact]):
    """Fixpoint facts: ``before[n]`` is the fact above node ``n`` and
    ``after[n]`` the fact below it."""

    def __init__(self) -> None:
        self.before: dict[CFGNode, Fact] = {}
        self.after: dict[CFGNode, Fact] = {}


def solve(cfg: ProcCFG, problem: Problem[Fact]) -> Solution[Fact]:
    """Iterate ``problem`` forward to a fixpoint over ``cfg``."""
    start = cfg.entry
    sol: Solution[Fact] = Solution()
    for node in cfg.nodes:
        sol.before[node] = problem.init
        sol.after[node] = problem.init
    sol.before[start] = problem.boundary
    sol.after[start] = problem.transfer(start, problem.boundary)

    work: deque[CFGNode] = deque(cfg.nodes)
    in_queue = set(cfg.nodes)
    while work:
        node = work.popleft()
        in_queue.discard(node)
        edges = cfg.in_edges(node)
        if node is start:
            fact_in = problem.boundary
        elif edges:
            incoming = []
            for edge in edges:
                fact = sol.after[edge.src]
                if problem.edge_transfer is not None:
                    fact = problem.edge_transfer(edge, fact)
                incoming.append(fact)
            fact_in = problem.meet(incoming)
        else:
            fact_in = problem.init
        fact_out = problem.transfer(node, fact_in)
        sol.before[node] = fact_in
        if fact_out != sol.after[node]:
            sol.after[node] = fact_out
            for nxt in cfg.successors(node):
                if nxt not in in_queue:
                    in_queue.add(nxt)
                    work.append(nxt)
    return sol


def intersection_meet(facts: list[frozenset]) -> frozenset:
    out = facts[0]
    for f in facts[1:]:
        out = out & f
    return out
