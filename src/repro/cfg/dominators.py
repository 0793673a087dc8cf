"""Dominator and postdominator sets for :class:`ProcCFG`.

Used by the window rules (§5.2, Theorems 5.3/5.4): an action is
*inside* the window of a successful SC/VL when the matching LL dominates
it and the successful operation postdominates it.

The CFGs here are tiny (tens of nodes), so the classic iterative set
algorithm is plenty fast.
"""

from __future__ import annotations

from repro.cfg.graph import CFGNode, ProcCFG


def _iterate(cfg: ProcCFG, start: CFGNode,
             preds_fn) -> dict[CFGNode, set[CFGNode]]:
    all_nodes = set(cfg.nodes)
    dom: dict[CFGNode, set[CFGNode]] = {n: set(all_nodes) for n in cfg.nodes}
    dom[start] = {start}
    changed = True
    while changed:
        changed = False
        for node in cfg.nodes:
            if node is start:
                continue
            preds = list(preds_fn(node))
            if preds:
                new = set.intersection(*(dom[p] for p in preds)) | {node}
            else:
                new = {node}  # unreachable: only itself
            if new != dom[node]:
                dom[node] = new
                changed = True
    return dom


class Dominators:
    """Forward dominators (from entry) and postdominators (from exit)."""

    def __init__(self, cfg: ProcCFG):
        self.cfg = cfg
        self._dom = _iterate(cfg, cfg.entry, cfg.predecessors)
        self._postdom = _iterate(cfg, cfg.exit, cfg.successors)

    def dominates(self, a: CFGNode, b: CFGNode) -> bool:
        """Every path entry→b passes through a."""
        return a in self._dom[b]

    def postdominates(self, a: CFGNode, b: CFGNode) -> bool:
        """Every path b→exit passes through a."""
        return a in self._postdom[b]
