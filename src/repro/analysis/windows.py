"""LL–SC windows within exceptional variants (Theorems 5.3/5.4).

A *window* on variable ``v`` is the span from a matching ``LL(v)`` to a
later *successful* ``SC(v, ·)`` or ``VL(v)`` (in variants, successful
operations are those wrapped in ``TRUE(...)``).  By Theorem 5.3 no
successful SC on ``v`` by another thread can execute inside the window;
by Theorem 5.4 neither can any part of a competing LL-SC block on ``v``
(from its matching LL to its successful SC, inclusive).

Positions are computed with dominators: an action is inside the window
when the matching LL dominates it and the successful operation
postdominates it.  The *before* side of the LL itself and the *after*
side of the final operation fall outside the window.

The CAS analogue (matching read ↔ matching LL) is valid only under the
modification-counter discipline (§5.2); CAS windows are built only for
regions the program declares ``versioned``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.actions import Target, location_target
from repro.analysis.matching import matching_lls, matching_reads
from repro.analysis.purity import Region, target_region
from repro.cfg.dominators import Dominators
from repro.cfg.graph import CFGNode, NodeKind, ProcCFG
from repro.synl import ast as A


@dataclass
class Window:
    root: Target            # the variable v
    region: Region
    ll_node: CFGNode        # matching LL (or matching read, for CAS)
    end_node: CFGNode       # the successful SC/VL/CAS node
    kind: str               # 'SC' | 'VL' | 'CAS'
    #: the binding introduced by the matching LL's bind node, if any
    ll_binding: int | None = None


@dataclass
class WindowDiagnostic:
    message: str
    node: CFGNode


def _positive_sync_exprs(cond: A.Expr):
    """SC/VL/CAS expressions asserted positively by a TRUE(...) condition."""
    if isinstance(cond, (A.SCExpr, A.VLExpr, A.CASExpr)):
        yield cond
    elif isinstance(cond, A.Binary) and cond.op == "&&":
        yield from _positive_sync_exprs(cond.left)
        yield from _positive_sync_exprs(cond.right)


class WindowIndex:
    """All windows of one variant CFG, with position queries."""

    def __init__(self, cfg: ProcCFG, dom: Dominators,
                 cas_root_ok=lambda root: False):
        self.cfg = cfg
        self.dom = dom
        self.windows: list[Window] = []
        self.diagnostics: list[WindowDiagnostic] = []
        self._build(cas_root_ok)

    def _build(self, cas_root_ok) -> None:
        for node in self.cfg.nodes:
            stmt = node.stmt
            if node.kind is not NodeKind.STMT or not isinstance(
                    stmt, A.Assume):
                continue
            for op in _positive_sync_exprs(stmt.cond):
                if not A.is_location(op.loc):
                    continue
                root = location_target(op.loc)
                region = target_region(root)
                if isinstance(op, A.CASExpr):
                    if not cas_root_ok(root):
                        continue
                    matches = matching_reads(self.cfg, node, op)
                    kind = "CAS"
                else:
                    matches = matching_lls(self.cfg, node, root)
                    kind = "SC" if isinstance(op, A.SCExpr) else "VL"
                if len(matches) != 1:
                    # A CAS may legitimately succeed without a matching
                    # read (§5.2) — it just gets no window.  An SC
                    # without a matching LL must fail; multiple matches
                    # violate the paper's uniqueness assumption.
                    if not (kind == "CAS" and not matches):
                        self.diagnostics.append(WindowDiagnostic(
                            f"{kind} on {root} has {len(matches)} "
                            f"matching "
                            f"{'reads' if kind == 'CAS' else 'LLs'} "
                            f"(the analysis assumes exactly one)", node))
                    continue
                ll_node = next(iter(matches))
                binding = None
                if ll_node.kind is NodeKind.BIND and isinstance(
                        ll_node.stmt, A.LocalDecl):
                    binding = ll_node.stmt.binding
                self.windows.append(Window(root, region, ll_node, node,
                                           kind, binding))

    # -- position queries ---------------------------------------------------
    def inside(self, w: Window, node: CFGNode) -> bool:
        """Node lies between the matching LL and the successful op
        (inclusive of both endpoints)."""
        return self.dom.dominates(w.ll_node, node) \
            and self.dom.postdominates(w.end_node, node)

    def protected(self, w: Window, node: CFGNode, side: str) -> bool:
        """Is the adjacent slot on ``side`` of ``node`` inside the
        window?  (before the LL / after the final op are outside)."""
        if not self.inside(w, node):
            return False
        if side == "before":
            return node is not w.ll_node
        return node is not w.end_node

    def windows_protecting(self, node: CFGNode, side: str) -> list[Window]:
        return [w for w in self.windows if self.protected(w, node, side)]

    def windows_containing(self, node: CFGNode) -> list[Window]:
        return [w for w in self.windows if self.inside(w, node)]

    def sc_block_memberships(self, node: CFGNode) -> list[Window]:
        """Windows ending in a successful SC/CAS that contain the node —
        the 'competing block' memberships used by Theorem 5.4."""
        return [w for w in self.windows
                if w.kind in ("SC", "CAS") and self.inside(w, node)]
