"""Pure-loop detection (§4 of the paper).

A loop is *pure* if every action that can occur in a **normally
terminating** iteration of its body is a pure action with respect to the
loop:

(i)   a global action that performs no update, or
(ii)  a local action that performs no update, or updates a variable
      ``v`` such that (ii.a) on every path from the end of the loop body
      to a procedure exit the next access to ``v`` is a write, and
      (ii.b) if ``v`` is unaccessed on some such path, ``v`` is
      procedure-local;
(iii) for each ``LL(v)`` executable under normal termination, every
      ``SC(v, ·)`` that can match it is inside the loop, with an
      ``LL(v)`` on every path from loop entry to that SC.

Special case (§4): an SC/CAS used as an ``if`` condition whose success
branch cannot reach a normal termination is treated as a (failing) read.

For array element regions (``p.fd[i]``), plain element writes are weak
(they protect nothing); condition (ii.a) is instead discharged by a
*covering write loop* — the counting-loop idiom of Gao & Hesselink's
algorithm (Fig. 5), whose normal exit guarantees the whole region was
rewritten.  The recognizer and its assumptions are documented on
:func:`find_covering_loops`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.actions import RawAction, Target, node_actions
from repro.analysis.escape import EscapeResult
from repro.cfg.builder import normal_iteration_nodes
from repro.cfg.graph import CFGNode, LoopInfo, NodeKind, ProcCFG
from repro.synl import ast as A

# -- regions -----------------------------------------------------------------

Region = tuple  # ('var', b) | ('field', b, fd) | ('elem', b, fd) | ('global', name)


def target_region(t: Target) -> Region:
    if t.kind == "global":
        return ("global", t.name)
    if t.kind == "var":
        return ("var", t.binding)
    if t.kind == "field":
        if t.binding is None:
            return ("global", f"{t.name}.{t.field}")
        return ("field", t.binding, t.field)
    if t.kind == "elem":
        if t.binding is None:
            return ("global", f"{t.name}.{t.field}[]")
        return ("elem", t.binding, t.field)
    raise ValueError(t.kind)


def binding_kinds(program: A.Program) -> dict[int, A.VarKind]:
    """Map binding id -> storage class, derived from the resolved AST."""
    kinds: dict[int, A.VarKind] = {}
    for node in program.walk():
        if isinstance(node, A.LocalDecl) and node.binding is not None:
            kinds[node.binding] = A.VarKind.LOCAL
        elif isinstance(node, A.Procedure):
            for b in node.param_bindings.values():
                kinds[b] = A.VarKind.PARAM
        elif isinstance(node, A.Var) and node.binding is not None \
                and node.kind is not None:
            kinds.setdefault(node.binding, node.kind)
    return kinds


# -- covering write loops ------------------------------------------------------

@dataclass
class CoveringLoop:
    """A counting loop that rewrites a whole array region on normal exit.

    Recognized idiom (assumptions documented in the module docstring)::

        local i = c in ... loop { if (i > bound) break;
                                   ...; p.fd[i] = e; ...; i = i + 1; }

    * ``i`` is a procedure-local initialized to a constant and only ever
      incremented by 1 inside the loop;
    * ``bound`` is a constant, named constant, or variable unwritten in
      the loop;
    * every normal iteration writes ``p.fd[i]`` and increments ``i``.

    Passing through the loop's counting exit (its BREAK node) then
    guarantees elements ``c..bound`` — the whole region, by the indexing
    convention of the analyzed programs — have been rewritten, so the
    BREAK acts as a strong write barrier for the region in the
    first-access queries of condition (ii.a).
    """

    info: LoopInfo
    region: Region
    barrier: CFGNode  # the BREAK node of the counting exit
    counter: int      # binding of i


def _const_like(e: A.Expr, body_writes: set[int]) -> bool:
    if isinstance(e, A.Const):
        return True
    if isinstance(e, A.Var):
        if e.kind is A.VarKind.CONST:
            return True
        return e.binding is not None and e.binding not in body_writes
    return False


def _written_bindings(cfg: ProcCFG, nodes: set[CFGNode]) -> set[int]:
    out: set[int] = set()
    for n in nodes:
        for a in node_actions(n):
            if a.op == "write" and a.target is not None \
                    and a.target.kind == "var":
                out.add(a.target.binding)
    return out


def _every_normal_path_hits(cfg: ProcCFG, info: LoopInfo,
                            required: set[CFGNode]) -> bool:
    """Does every head→head path within the loop body pass through a
    node in ``required``?"""
    body = set(info.body_nodes) | {info.head}
    reachable = cfg.reachable_from(info.head, within=body, avoid=required)
    for src in info.back_sources:
        if src in reachable and src not in required:
            return False
    return True


def find_covering_loops(cfg: ProcCFG) -> list[CoveringLoop]:
    out: list[CoveringLoop] = []
    for info in cfg.loops:
        body = set(info.body_nodes)
        body_writes = _written_bindings(cfg, body)
        # counting exits: BRANCH `i > bound` whose true edge is a BREAK
        # leaving exactly this loop
        for br in body:
            if br.kind is not NodeKind.BRANCH:
                continue
            cond = br.expr
            if not (isinstance(cond, A.Binary)
                    and cond.op in (">", ">=", "==")
                    and isinstance(cond.left, A.Var)
                    and cond.left.binding is not None):
                continue
            counter = cond.left.binding
            if not _const_like(cond.right,
                               body_writes - {counter}):
                continue
            true_targets = [e.dst for e in cfg.out_edges(br)
                            if e.label is True]
            if len(true_targets) != 1 \
                    or true_targets[0].kind is not NodeKind.BREAK:
                continue
            brk = true_targets[0]
            if getattr(brk, "jump_target", None) is not info.loop:
                continue
            # counter discipline: declared with a constant initializer,
            # written only by i = i + 1 inside the loop
            decl_ok = False
            for node in cfg.nodes:
                if node.kind is NodeKind.BIND \
                        and isinstance(node.stmt, A.LocalDecl) \
                        and node.stmt.binding == counter:
                    decl_ok = isinstance(node.stmt.init, A.Const)
            incs: set[CFGNode] = set()
            counter_ok = decl_ok
            for node in cfg.nodes:
                if node.kind is NodeKind.STMT \
                        and isinstance(node.stmt, A.Assign) \
                        and isinstance(node.stmt.target, A.Var) \
                        and node.stmt.target.binding == counter:
                    v = node.stmt.value
                    if (node in body and isinstance(v, A.Binary)
                            and v.op == "+"
                            and isinstance(v.left, A.Var)
                            and v.left.binding == counter
                            and isinstance(v.right, A.Const)
                            and v.right.value == 1):
                        incs.add(node)
                    else:
                        counter_ok = False
            if not counter_ok or not incs:
                continue
            # element writes p.fd[i] on every normal path
            regions: dict[Region, set[CFGNode]] = {}
            for node in body:
                if node.kind is NodeKind.STMT \
                        and isinstance(node.stmt, A.Assign) \
                        and isinstance(node.stmt.target, A.Index):
                    idx = node.stmt.target.index
                    if isinstance(idx, A.Var) and idx.binding == counter:
                        from repro.analysis.actions import location_target

                        region = target_region(
                            location_target(node.stmt.target))
                        regions.setdefault(region, set()).add(node)
            for region, writers in regions.items():
                if region[0] != "elem":
                    continue
                if _every_normal_path_hits(cfg, info, writers) \
                        and _every_normal_path_hits(cfg, info, incs):
                    out.append(CoveringLoop(info, region, brk, counter))
    return out


# -- SC/CAS used as a failing read ---------------------------------------------

def _branch_sc(node: CFGNode) -> tuple[A.Expr | None, bool]:
    """If ``node`` is a branch whose condition is SC/CAS (possibly
    negated), return (the SC/CAS expr, success_edge_label)."""
    if node.kind is not NodeKind.BRANCH:
        return None, True
    cond = node.expr
    if isinstance(cond, (A.SCExpr, A.CASExpr)):
        return cond, True
    if isinstance(cond, A.Unary) and cond.op == "!" \
            and isinstance(cond.operand, (A.SCExpr, A.CASExpr)):
        return cond.operand, False
    return None, True


def sc_treated_as_read(cfg: ProcCFG, info: LoopInfo,
                       node: CFGNode) -> bool:
    """§4 special case: the SC/CAS branch condition is treated as a read
    when its success branch cannot reach a normal termination of the
    loop body."""
    sc, success_label = _branch_sc(node)
    if sc is None:
        return False
    body = set(info.body_nodes) | {info.head}
    # collect success-edge targets (a branch that ends the loop body keeps
    # its boolean label on the edge back to the head)
    for edge in cfg.out_edges(node):
        if edge.label is success_label:
            target = edge.dst
            if target is info.head:
                return False  # success immediately re-enters: normal
            if target in body and info.head in cfg.reachable_from(
                    target, within=body):
                return False
    return True


# -- the purity analysis ----------------------------------------------------------

@dataclass
class PurityInfo:
    loop: A.Loop
    info: LoopInfo
    pure: bool
    reasons: list[str] = field(default_factory=list)
    normal_nodes: set[CFGNode] = field(default_factory=set)


class PurityAnalysis:
    """Checks every loop of one procedure CFG for purity.

    ``kinds`` is :func:`binding_kinds` of the whole program.  Computing
    it walks the program, so a caller that checks several procedures
    computes it once and passes the same map to each."""

    def __init__(self, cfg: ProcCFG, kinds: dict[int, A.VarKind],
                 escape: EscapeResult, unique_bindings: set[int]):
        self.cfg = cfg
        self.kinds = kinds
        self.escape = escape
        self.unique = unique_bindings
        self.coverings = find_covering_loops(cfg)
        self.reachable = cfg.reachable_from(cfg.entry)

    # -- local/global classification -------------------------------------------
    def is_local_action(self, node: CFGNode, target: Target) -> bool:
        """Local actions (§3.3): unshared variable accesses, and field
        accesses through unique or not-yet-escaped references."""
        if target.kind == "var":
            return True  # variable cells are thread-private in SYNL
        if target.kind in ("field", "elem"):
            if target.binding is None:
                return False
            if target.binding in self.unique:
                return True
            return self.escape.is_fresh(node, target.binding)
        return False

    # -- first-access queries (condition ii) ------------------------------------
    def _first_access(self, node: CFGNode, region: Region) -> str | None:
        for action in node_actions(node):
            if action.target is None or action.op not in ("read", "write"):
                continue
            if target_region(action.target) == region:
                return action.op
        return None

    def _strong_barriers(self, region: Region) -> set[CFGNode]:
        barriers: set[CFGNode] = set()
        for node in self.reachable:
            first = self._first_access(node, region)
            if first == "write" and region[0] != "elem":
                barriers.add(node)
        for cov in self.coverings:
            if cov.region == region:
                barriers.add(cov.barrier)
        return barriers

    def _check_local_update(self, info: LoopInfo, node: CFGNode,
                            target: Target) -> str | None:
        """Condition (ii); returns a reason string when violated."""
        region = target_region(target)
        if region[0] == "var":
            binding = region[1]
            # a local scoped entirely inside the loop body is trivially
            # dead at the end of the body
            for bind_node in self.cfg.nodes:
                if bind_node.kind is NodeKind.BIND \
                        and isinstance(bind_node.stmt, A.LocalDecl) \
                        and bind_node.stmt.binding == binding \
                        and bind_node in set(info.body_nodes):
                    return None
        head = info.head
        barriers = self._strong_barriers(region)
        read_first = {n for n in self.reachable
                      if self._first_access(n, region) == "read"}
        bad = self.cfg.backward_reachable(list(read_first), stop=barriers)
        if head in bad:
            return (f"update to {target} may be read before rewritten "
                    f"(condition ii.a)")
        # (ii.b): an access-free path to exit requires a procedure-local v
        accesses = {n for n in self.reachable
                    if self._first_access(n, region) is not None}
        free = self.cfg.backward_reachable([self.cfg.exit], stop=accesses)
        if head in free:
            binding = region[1]
            kind = self.kinds.get(binding)
            if kind not in (A.VarKind.LOCAL, A.VarKind.PARAM):
                return (f"updated {target} can leave the procedure "
                        f"unaccessed but is not procedure-local "
                        f"(condition ii.b)")
        return None

    # -- condition (iii) ------------------------------------------------------------
    def _check_ll(self, info: LoopInfo, node: CFGNode,
                  action: RawAction) -> str | None:
        from repro.analysis.matching import matching_lls

        body = set(info.body_nodes)
        target = action.target
        for sc_node in self.reachable:
            for sc_action in node_actions(sc_node):
                if sc_action.via != "SC" or sc_action.op != "write":
                    continue
                if target_region(sc_action.target) != target_region(target):
                    continue
                matches = matching_lls(self.cfg, sc_node, sc_action.target)
                if node not in matches:
                    continue
                if sc_node not in body:
                    return (f"LL({target}) can match an SC outside the "
                            f"loop (condition iii)")
                lls = {n for n in self.reachable
                       if any(a.via == "LL" and a.op == "read"
                              and target_region(a.target)
                              == target_region(target)
                              for a in node_actions(n))}
                avoid = self.cfg.backward_reachable([sc_node],
                                                    stop=lls - {sc_node})
                if info.head in avoid and sc_node is not info.head:
                    return (f"no LL({target}) on every path from loop "
                            f"entry to its SC (condition iii)")
        return None

    # -- the per-loop check ---------------------------------------------------------
    def check_loop(self, info: LoopInfo) -> PurityInfo:
        normal = normal_iteration_nodes(self.cfg, info) & self.reachable
        result = PurityInfo(info.loop, info, True, normal_nodes=normal)
        for node in self.cfg.ordered(normal):
            as_read = sc_treated_as_read(self.cfg, info, node)
            failing: list = []
            if node.kind is NodeKind.STMT and isinstance(
                    node.stmt, A.Assume):
                from repro.analysis.inference import _failing_sync_exprs

                failing = list(_failing_sync_exprs(node.stmt.cond))
            for action in node_actions(node):
                if action.op == "write" and action.expr is not None \
                        and action.expr in failing:
                    continue  # an SC/CAS asserted to fail writes nothing
                reason = self._check_action(info, node, action, as_read)
                if reason is not None:
                    result.pure = False
                    result.reasons.append(reason)
        return result

    def _check_action(self, info: LoopInfo, node: CFGNode,
                      action: RawAction, sc_as_read: bool) -> str | None:
        if action.op in ("acquire", "release", "alloc"):
            # the SYNL syntax guarantees matched acquire/release pairs
            # inside an iteration (Theorem 4.1); allocations of objects
            # that stay local are invisible
            return None
        if action.op == "read":
            if action.via == "LL":
                return self._check_ll(info, node, action)
            return None
        # writes
        if action.via in ("SC", "CAS"):
            if sc_as_read:
                return None
            return (f"{action.via}({action.target}) can update in a "
                    f"normally terminating iteration")
        if self.is_local_action(node, action.target):
            return self._check_local_update(info, node, action.target)
        return (f"global write to {action.target} in a normally "
                f"terminating iteration")

    def run(self) -> dict[A.Loop, PurityInfo]:
        return {info.loop: self.check_loop(info) for info in self.cfg.loops}


def pure_loops(cfg: ProcCFG, kinds: dict[int, A.VarKind],
               escape: EscapeResult, unique_bindings: set[int]
               ) -> dict[A.Loop, PurityInfo]:
    """Run the purity analysis on every loop of the CFG.  ``kinds`` is
    :func:`binding_kinds` of the whole program, computed once by the
    caller for all its procedures."""
    return PurityAnalysis(cfg, kinds, escape, unique_bindings).run()
