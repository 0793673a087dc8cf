"""Control-flow graph data structures.

A :class:`ProcCFG` is built per procedure (and for the program's ``init`` /
``threadinit`` blocks) by :mod:`repro.cfg.builder`.  Nodes are small
objects carrying a kind tag and a reference back into the AST; edges carry
an optional label (``True``/``False`` for branch edges, ``"back"`` for
loop back edges).

The purity analysis (§4 of the paper) relies on the loop structure
recorded here: each :class:`LoopInfo` knows its head, body nodes, the
sources of *normal-termination* back edges, and its *exceptional* exits
(``break`` / ``return`` nodes, §5.2).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.synl import ast as A

_CFG_NODE_ID = itertools.count(1)


class NodeKind(enum.Enum):
    ENTRY = "entry"
    EXIT = "exit"
    STMT = "stmt"          # Assign / Assume / Assert / ExprStmt / Skip
    BIND = "bind"          # the binding part of ``local x = e in s``
    BRANCH = "branch"      # condition of an ``if``
    LOOP_HEAD = "loop_head"
    BREAK = "break"
    CONTINUE = "continue"
    RETURN = "return"
    ACQUIRE = "acquire"    # synchronized entry
    RELEASE = "release"    # synchronized exit (explicit or implicit)


#: kinds of pure control flow: nodes that carry no action
CONTROL_KINDS = frozenset({NodeKind.ENTRY, NodeKind.EXIT, NodeKind.LOOP_HEAD,
                           NodeKind.BREAK, NodeKind.CONTINUE})


@dataclass(eq=False)
class CFGNode:
    kind: NodeKind
    stmt: Optional[A.Node] = None   # the AST node this was lowered from
    expr: Optional[A.Expr] = None   # branch condition / bind initializer
    uid: int = field(default=0, init=False)
    #: innermost enclosing Loop AST node (None outside loops)
    loop: Optional[A.Loop] = field(default=None, init=False)
    #: creation order; used for deterministic iteration
    index: int = field(default=0, init=False)
    #: the node's actions, kept by :func:`repro.analysis.actions.node_actions`
    #: on its first call (None until then)
    actions: Optional[list] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.uid = next(_CFG_NODE_ID)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        desc = ""
        if self.expr is not None:
            from repro.synl.printer import pretty_expr

            desc = f" {pretty_expr(self.expr)}"
        elif self.stmt is not None:
            desc = f" {type(self.stmt).__name__}"
        return f"<{self.kind.value}#{self.uid}{desc}>"


@dataclass(eq=False)
class Edge:
    src: CFGNode
    dst: CFGNode
    label: object = None  # None | True | False | "back"


@dataclass(eq=False)
class LoopInfo:
    """Structure of one ``loop`` statement within a procedure CFG."""

    loop: A.Loop                      # the AST node
    head: CFGNode                     # the LOOP_HEAD node
    body_nodes: list[CFGNode] = field(default_factory=list)
    #: nodes with a normal-termination edge back to ``head``
    back_sources: list[CFGNode] = field(default_factory=list)
    #: BREAK / RETURN nodes inside this loop's body (exceptional exits, §5.2)
    exceptional_exits: list[CFGNode] = field(default_factory=list)
    parent: Optional["LoopInfo"] = None

    def contains(self, node: CFGNode) -> bool:
        return node is self.head or node in self._body_set

    @property
    def _body_set(self) -> set[CFGNode]:
        cached = getattr(self, "_body_cache", None)
        if cached is None or len(cached) != len(self.body_nodes):
            cached = set(self.body_nodes)
            self._body_cache = cached
        return cached


class ProcCFG:
    """Control-flow graph of one procedure body."""

    def __init__(self, name: str, proc: Optional[A.Procedure] = None):
        self.name = name
        self.proc = proc
        self.nodes: list[CFGNode] = []
        self.entry = self.add_node(NodeKind.ENTRY)
        self.exit = self.add_node(NodeKind.EXIT)
        self.succ: dict[CFGNode, list[Edge]] = {self.entry: [], self.exit: []}
        self.pred: dict[CFGNode, list[Edge]] = {self.entry: [], self.exit: []}
        self.loops: list[LoopInfo] = []

    # -- construction -------------------------------------------------------
    def add_node(self, kind: NodeKind, stmt: Optional[A.Node] = None,
                 expr: Optional[A.Expr] = None) -> CFGNode:
        node = CFGNode(kind, stmt, expr)
        node.index = len(self.nodes)
        self.nodes.append(node)
        if not hasattr(self, "succ"):
            return node  # entry/exit created before dicts exist
        self.succ.setdefault(node, [])
        self.pred.setdefault(node, [])
        return node

    def add_edge(self, src: CFGNode, dst: CFGNode, label: object = None) -> Edge:
        edge = Edge(src, dst, label)
        self.succ.setdefault(src, []).append(edge)
        self.pred.setdefault(dst, []).append(edge)
        return edge

    # -- queries --------------------------------------------------------------
    def successors(self, node: CFGNode) -> Iterator[CFGNode]:
        for edge in self.succ.get(node, []):
            yield edge.dst

    def predecessors(self, node: CFGNode) -> Iterator[CFGNode]:
        for edge in self.pred.get(node, []):
            yield edge.src

    def out_edges(self, node: CFGNode) -> list[Edge]:
        return self.succ.get(node, [])

    def in_edges(self, node: CFGNode) -> list[Edge]:
        return self.pred.get(node, [])

    def loop_info(self, loop: A.Loop) -> LoopInfo:
        for info in self.loops:
            if info.loop is loop:
                return info
        raise KeyError(f"loop {loop!r} not in CFG of {self.name}")

    def reachable_from(self, start: CFGNode,
                       within: Optional[set[CFGNode]] = None,
                       avoid: Optional[set[CFGNode]] = None) -> set[CFGNode]:
        """Forward reachability.  ``within`` restricts the node set
        (start is always included); ``avoid`` nodes block traversal
        (they are not expanded, though they can be *reached*)."""
        seen: set[CFGNode] = {start}
        stack = [start]
        avoid = avoid or set()
        while stack:
            node = stack.pop()
            if node in avoid and node is not start:
                continue
            for nxt in self.successors(node):
                if nxt in seen:
                    continue
                if within is not None and nxt not in within:
                    continue
                seen.add(nxt)
                stack.append(nxt)
        return seen

    def reaches(self, start: CFGNode, goal: CFGNode,
                within: Optional[set[CFGNode]] = None,
                avoid: Optional[set[CFGNode]] = None) -> bool:
        return goal in self.reachable_from(start, within, avoid)

    def backward_reachable(self, starts: list[CFGNode],
                           stop: Optional[set[CFGNode]] = None) -> set[CFGNode]:
        """Nodes from which some start node is reachable.  Nodes in
        ``stop`` are included when hit but not expanded past (they
        block the backward walk)."""
        stop = stop or set()
        seen: set[CFGNode] = set(starts)
        stack = list(starts)
        while stack:
            node = stack.pop()
            if node in stop:
                continue
            for prev in self.predecessors(node):
                if prev not in seen:
                    seen.add(prev)
                    stack.append(prev)
        return seen

    def ordered(self, nodes: set[CFGNode]) -> list[CFGNode]:
        """Deterministic (creation-order) listing of a node set."""
        return sorted(nodes, key=lambda n: n.index)
