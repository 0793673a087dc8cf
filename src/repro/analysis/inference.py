"""The atomicity inference algorithm (§5.4, steps 1–7).

Pipeline
--------
1. Parse/resolve the program; build CFGs; run escape, uniqueness and
   purity analyses on the original procedures.
2. Replace each procedure by its exceptional variants (§5.2,
   :mod:`repro.analysis.variants`).
3. On the variant program: re-run escape/uniqueness, infer classes,
   build locksets, dominators, windows (Thm 5.3/5.4) and local-condition
   blocks (Thm 5.5).
4. Classify every action:

   * **step 1** — local actions are B (Thm 3.1); acquires R, releases L
     (Thm 3.2);
   * **step 2** — successful SC/VL on SC-only variables are L, their
     matching LLs are R (Thm 5.3); CAS analogues under the versioned
     (ABA-free) discipline;
   * **steps 3–4** — for each global read/write, search all variants for
     conflicting accesses and test whether each can occur immediately
     before/after it.  Adjacency is *excluded* by: a common lock
     (Thm 5.1), the window rules (Thm 5.3/5.4), the local-condition rule
     (Thm 5.5), or — in the not-aliased branch of a case split — the
     LL-agreement argument (two overlapping windows on the same variable
     read the same value, so their bindings must alias; this is the
     paper's "t_a ≠ t_u implies the SC would fail" reasoning for a6).
     The engine does a case split on alias pairs (§5.4) and combines a
     per-step-4 mover type with earlier steps by taking the minimum;
   * **step 5** — unclassified global actions are A;
   * **step 6** — propagate through the AST with the §3.3 calculus;
   * **step 7** — a procedure is atomic iff all its exceptional variants
     have body atomicity ≤ A (Thm 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import atomicity as AT
from repro.analysis.actions import RawAction, Target, node_actions
from repro.analysis.alias import AliasAnalysis
from repro.analysis.atomicity import Atomicity
from repro.analysis.conditions import (BlockInfo, blocks_of_program,
                                       condition_excludes)
from repro.analysis.escape import EscapeResult, escape_analysis
from repro.analysis.locks import LocksetResult, common_lock, lockset_analysis
from repro.analysis.purity import PurityInfo, pure_loops, target_region
from repro.analysis.typing import ClassEnv, infer_classes
from repro.analysis.uniqueness import UniquenessResult, uniqueness_analysis
from repro.analysis.variants import Variant, VariantSet, make_variants
from repro.analysis.windows import Window, WindowIndex
from repro.cfg.builder import build_cfg
from repro.cfg.dominators import Dominators
from repro.cfg.graph import CFGNode, NodeKind, ProcCFG
from repro.obs.profile import NULL_PROFILER, Profiler
from repro.obs.provenance import justify
from repro.synl import ast as A
from repro.synl.resolve import load_program


@dataclass
class InferenceOptions:
    """Feature switches (used by the ablation benchmarks)."""

    enable_purity: bool = True       # §4: pure loops + variants
    enable_uniqueness: bool = True   # working-copy uniqueness (Thm 3.1)
    enable_windows: bool = True      # Thm 5.3 / 5.4 window rules
    enable_conditions: bool = True   # Thm 5.5 local-condition rule
    enable_locks: bool = True        # Thm 5.1
    enable_agreement: bool = True    # LL-agreement case split
    enable_lint: bool = True         # discipline linter + downgrades


#: sentinel pair key for the conflict pair itself (see ``_excluded``)
_P0 = ("#conflict",)


@dataclass
class Site:
    """One action occurrence in one variant."""

    ctx: "VariantContext"
    node: CFGNode
    action: RawAction
    is_local: bool = False
    atomicity: Atomicity = Atomicity.A
    steps: list[str] = field(default_factory=list)  # which rules fired
    #: structured counterpart of ``steps``: one
    #: :class:`~repro.obs.provenance.Justification` per rule firing,
    #: naming the theorem behind the classification
    provenance: list = field(default_factory=list)


class VariantContext:
    """Per-variant analysis state."""

    def __init__(self, variant: Variant, cfg: ProcCFG,
                 escape: EscapeResult, lockset: LocksetResult,
                 dom: Dominators, windows: WindowIndex,
                 blocks: list[BlockInfo]):
        self.variant = variant
        self.name = variant.name
        self.cfg = cfg
        self.escape = escape
        self.lockset = lockset
        self.dom = dom
        self.windows = windows
        self.blocks = blocks
        self.sites: list[Site] = []
        self.stmt_nodes: dict[int, list[CFGNode]] = {}
        for node in cfg.nodes:
            if node.stmt is not None:
                self.stmt_nodes.setdefault(node.stmt.nid, []).append(node)
        self._block_nodes: dict[int, set[CFGNode]] = {}
        self._block_bind: dict[int, CFGNode | None] = {}
        self._block_sc: dict[int, CFGNode | None] = {}
        for b in blocks:
            members = {n for n in cfg.nodes
                       if n.stmt is not None
                       and n.stmt.nid in b.member_nids}
            self._block_nodes[b.decl.nid] = members
            bind = next((n for n in members if n.kind is NodeKind.BIND
                         and n.stmt is b.decl), None)
            self._block_bind[b.decl.nid] = bind
            sc_node = None
            if b.sc_exprs:
                sc_nids = {e.nid for e in b.sc_exprs}
                for n in members:
                    if isinstance(n.stmt, A.Assume) and any(
                            x.nid in sc_nids for x in n.stmt.cond.walk()):
                        sc_node = n
                        break
            self._block_sc[b.decl.nid] = sc_node
            if b.kind == "llsc" and bind is not None \
                    and sc_node is not None:
                # Theorem 5.5's protection for an LL-SC block spans from
                # the LL to its successful SC: after the SC, svar has
                # changed and p(svar) may no longer hold.
                members = {n for n in members
                           if dom.dominates(bind, n)
                           and dom.postdominates(sc_node, n)}
                self._block_nodes[b.decl.nid] = members

    def block_nodes(self, b: BlockInfo) -> set[CFGNode]:
        return self._block_nodes[b.decl.nid]

    def node_in_block(self, b: BlockInfo, node: CFGNode) -> bool:
        return node in self._block_nodes[b.decl.nid]

    def adjacency_inside_block(self, b: BlockInfo, node: CFGNode,
                               side: str) -> bool:
        """Is the adjacent execution slot on ``side`` of ``node`` still
        inside block ``b``?  The slot before the block's first transition
        (the bind) is outside; for LL-SC blocks the slot after the
        successful SC is outside; for plain local blocks the slots after
        its last transitions are outside."""
        members = self._block_nodes[b.decl.nid]
        if node not in members:
            return False
        if side == "before":
            return node is not self._block_bind[b.decl.nid]
        if b.kind == "llsc":
            return node is not self._block_sc[b.decl.nid]
        # after: inside unless control can leave the block right after
        return all(succ in members for succ in self.cfg.successors(node))


@dataclass
class VariantReport:
    variant: Variant
    ctx: VariantContext
    body_atomicity: Atomicity
    stmt_atoms: dict[int, Atomicity]
    #: True when the variant performs no visible update (no writes to
    #: globals, shared heap, or thread-local variables).  Such variants
    #: are exempt from the Theorem 5.2 requirement: a read-only
    #: completion leaves the global and persistent thread state
    #: untouched, so — under the state-based atomicity definition of
    #: §3.2, where the atomic witness execution may use a different set
    #: of environment invocations — the invocation can be dropped the
    #: same way Theorem 4.1 drops normally-terminating pure iterations.
    #: This covers the failure branch of a bare ``SC(v, e);`` statement
    #: (e.g. UpdateTail's SC), which the paper's Fig. 3 silently treats
    #: as successful.
    read_only: bool = False


@dataclass
class ProcVerdict:
    name: str
    atomic: bool
    variants: list[VariantReport]


@dataclass
class AnalysisResult:
    program: A.Program
    options: InferenceOptions
    purity: dict[str, dict[A.Loop, PurityInfo]]
    variant_set: VariantSet
    verdicts: dict[str, ProcVerdict]
    contexts: dict[str, VariantContext]
    uniqueness: UniquenessResult
    diagnostics: list[str] = field(default_factory=list)
    #: flat ``{name: count}`` tallies, keys sorted (variant/site
    #: counts, per-theorem exclusion tallies, mover distribution, plus
    #: the ``lint.*`` counts of the embedded lint pass)
    metrics: dict[str, int] = field(default_factory=dict)
    #: span tree (``Profiler.spans``) when the analysis ran with a
    #: profiler, else empty
    trace: list = field(default_factory=list)
    #: discipline-lint findings for the source program
    #: (:class:`repro.analysis.lint.LintResult`), None when disabled
    lint: object = None
    #: structured notes about theorem applications suppressed because
    #: lint found the discipline they assume violated:
    #: ``{"theorem", "region", "rules", "detail"}``
    downgrades: list[dict] = field(default_factory=list)
    #: ranked hotspot document (``Profiler.to_dict`` shape) when the
    #: analysis ran with a profiler, else empty
    profile: dict = field(default_factory=dict)

    def to_dict(self, include_provenance: bool = True) -> dict:
        from repro.obs.export import analysis_to_dict

        return analysis_to_dict(self, include_provenance)

    def is_atomic(self, proc_name: str) -> bool:
        return self.verdicts[proc_name].atomic

    @property
    def all_atomic(self) -> bool:
        return all(v.atomic for v in self.verdicts.values())

    def atomic_procedures(self) -> list[str]:
        return [n for n, v in self.verdicts.items() if v.atomic]


# -- helpers --------------------------------------------------------------------

def _failing_sync_exprs(cond: A.Expr, negated: bool = False):
    """SC/CAS expressions asserted to FAIL by a TRUE(...) condition."""
    if isinstance(cond, (A.SCExpr, A.CASExpr)):
        if negated:
            yield cond
    elif isinstance(cond, A.Unary) and cond.op == "!":
        yield from _failing_sync_exprs(cond.operand, not negated)
    elif isinstance(cond, A.Binary) and cond.op == "&&":
        yield from _failing_sync_exprs(cond.left, negated)
        yield from _failing_sync_exprs(cond.right, negated)


class AtomicityChecker:
    """Run the full inference on a SYNL program (source text or AST)."""

    def __init__(self, program: A.Program | str,
                 options: InferenceOptions | None = None,
                 profiler: Profiler | None = None,
                 source_text: str | None = None):
        self.profiler = profiler or NULL_PROFILER
        #: the ``analysis.*`` tallies plus the lint pass's ``lint.*``
        #: counts, reported as ``result.metrics``
        self._counts: dict[str, int] = {}
        if isinstance(program, str):
            #: original text, so the embedded lint pass can read
            #: ``// lint: ignore[...]`` suppression comments
            source_text = program if source_text is None else source_text
            with self.profiler.region("analysis.parse_resolve"):
                program = load_program(program)
        self.source_text = source_text
        self.program = program
        self.options = options or InferenceOptions()
        self.diagnostics: list[str] = []

    def _tally(self, name: str, n: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + n

    # -- pipeline -----------------------------------------------------------
    def _purity_of(self, program: A.Program,
                   cfgs: dict[str, ProcCFG]
                   ) -> dict[str, dict[A.Loop, PurityInfo]]:
        with self.profiler.region("analysis.purity"):
            escapes = {name: escape_analysis(cfg)
                       for name, cfg in cfgs.items()}
            unique = uniqueness_analysis(program, cfgs) \
                if self.options.enable_uniqueness else UniquenessResult()
            purity: dict[str, dict[A.Loop, PurityInfo]] = {}
            for proc in program.procs:
                if self.options.enable_purity:
                    purity[proc.name] = pure_loops(
                        cfgs[proc.name], program, escapes[proc.name],
                        unique.unique_bindings())
                else:
                    purity[proc.name] = {}
            return purity

    def _expand_variants(self) -> tuple[
            VariantSet, dict[str, dict[A.Loop, PurityInfo]]]:
        """Iterate variant expansion until no pure loops remain —
        needed when pure loops nest (e.g. the allocator's anchor-pop
        CAS loop inside the credit-reservation CAS loop)."""
        current = self.program
        purity0: dict[str, dict[A.Loop, PurityInfo]] | None = None
        source_of: dict[str, str] | None = None
        for _ in range(10):
            cfgs = {p.name: build_cfg(p) for p in current.procs}
            purity = self._purity_of(current, cfgs)
            if purity0 is None:
                purity0 = purity
            vs = make_variants(current, cfgs, purity)
            if source_of is None:
                source_of = {v.name: v.source for v in vs.variants}
            else:
                prev = {v.name: v for v in final_vs.variants}
                for v in vs.variants:
                    # carry exit selections across expansion rounds
                    v.exits = {**prev[v.source].exits, **v.exits}
                source_of = {v.name: source_of[v.source]
                             for v in vs.variants}
            final_vs = vs
            if not any(info.pure for per in purity.values()
                       for info in per.values()):
                break
            current = vs.program
        else:
            self.diagnostics.append(
                "variant expansion did not converge in 10 rounds")
        for v in final_vs.variants:
            v.source = source_of[v.name]
        by_source: dict[str, list[Variant]] = {}
        for v in final_vs.variants:
            by_source.setdefault(v.source, []).append(v)
        final_vs.by_source = by_source
        assert purity0 is not None
        return final_vs, purity0

    #: lint error rules that void a mover theorem's side condition on
    #: the affected region (llsc → Thm 5.3 windows, aba → Thm 5.4)
    _DOWNGRADE_RULES = {
        "llsc.multi-ll": "5.3",
        "llsc.nested-ll": "5.3",
        "llsc.plain-write": "5.3",
        "aba.unversioned-cas": "5.4",
        "aba.plain-write-versioned": "5.4",
    }

    def _run_lint(self) -> None:
        """Run the discipline linter over the source program, attach
        its findings, and derive the theorem-downgrade taint: regions
        whose discipline a lint *error* refutes get no Thm 5.3/5.4
        windows, and the suppression is recorded in ``downgrades`` /
        ``diagnostics`` instead of being silently assumed."""
        self.lint = None
        self.downgrades: list[dict] = []
        self._lint_taint: dict[tuple, dict[str, set[str]]] = {}
        if not self.options.enable_lint:
            return
        from repro.analysis.lint import Severity, lint_counts, lint_program
        with self.profiler.region("analysis.lint"):
            self.lint = lint_program(self.program,
                                     source_text=self.source_text,
                                     profiler=self.profiler)
        self._counts.update(lint_counts([self.lint]))
        noted: dict[tuple, set[str]] = {}
        for diag in self.lint.findings:
            theorem = self._DOWNGRADE_RULES.get(diag.rule)
            if theorem is None or diag.severity is not Severity.ERROR \
                    or diag.region_key is None:
                continue
            per_region = self._lint_taint.setdefault(diag.region_key, {})
            per_region.setdefault(theorem, set()).add(diag.rule)
            noted.setdefault((theorem, diag.region), set()).add(diag.rule)
        for (theorem, region), rules in sorted(noted.items()):
            ids = ", ".join(sorted(rules))
            self.downgrades.append({
                "theorem": theorem,
                "region": region,
                "rules": sorted(rules),
                "detail": f"Thm {theorem} windows on {region} are "
                          f"suppressed: lint refutes the discipline "
                          f"they assume ({ids})",
            })
            self.diagnostics.append(
                f"lint: downgraded Thm {theorem} applications on "
                f"{region} ({ids})")

    def _lint_vetoes(self, root: Target, theorem: str) -> bool:
        if not getattr(self, "_lint_taint", None):
            return False
        from repro.analysis.lint import region_key
        key = region_key(root)
        return key is not None \
            and theorem in self._lint_taint.get(key, {})

    def run(self) -> AnalysisResult:
        opts = self.options
        prof = self.profiler
        with prof.region("analysis.run"):
            self._run_lint()
            with prof.region("analysis.variants"):
                variant_set, purity = self._expand_variants()
            vprog = variant_set.program
            with prof.region("analysis.classes_alias"):
                self.env: ClassEnv = infer_classes(vprog)
                self.alias = AliasAnalysis(vprog, self.env)
            with prof.region("analysis.escape_uniqueness"):
                v_cfgs = {p.name: build_cfg(p) for p in vprog.procs}
                self.unique = uniqueness_analysis(vprog, v_cfgs) \
                    if opts.enable_uniqueness else UniquenessResult()
                blocks = blocks_of_program(vprog) \
                    if opts.enable_conditions else {}

            with prof.region("analysis.lockset_windows"):
                self.contexts: dict[str, VariantContext] = {}
                for variant in variant_set.variants:
                    cfg = v_cfgs[variant.name]
                    dom = Dominators(cfg)
                    windows = WindowIndex(cfg, dom, self._cas_root_ok)
                    if not opts.enable_windows:
                        windows.windows = []
                    ctx = VariantContext(
                        variant, cfg, escape_analysis(cfg),
                        lockset_analysis(cfg), dom, windows,
                        blocks.get(variant.name, []))
                    for diag in windows.diagnostics:
                        self.diagnostics.append(
                            f"{variant.name}: {diag.message}")
                    self.contexts[variant.name] = ctx

            with prof.region("analysis.collect_sites"):
                self._collect_sites()
            with prof.region("analysis.classify"):
                self._classify_sites()
            with prof.region("analysis.propagate_verdicts"):
                verdicts = self._verdicts(variant_set)

        self._tally("analysis.variants", len(variant_set.variants))
        self._tally("analysis.sites",
                    sum(len(c.sites) for c in self.contexts.values()))
        self._tally("analysis.windows",
                    sum(len(c.windows.windows)
                        for c in self.contexts.values()))
        self._tally("analysis.condition_blocks",
                    sum(len(c.blocks) for c in self.contexts.values()))
        if prof.enabled:
            # per-theorem attribution, derived once from the tallies so
            # the hot paths pay nothing: direct applications (steps 1–2,
            # ``analysis.steps.thmX``) and adjacency exclusions
            # (``analysis.exclusions.thmX`` / ``.agreement``) both count
            # as deterministic work units on ``theorem.X``
            for key, n in self._counts.items():
                for marker in ("analysis.steps.thm",
                               "analysis.exclusions.thm"):
                    if key.startswith(marker):
                        prof.add("theorem." + key[len(marker):], n)
            agree = self._counts.get("analysis.exclusions.agreement", 0)
            prof.add("theorem.agreement", agree)
        return AnalysisResult(
            program=self.program, options=opts, purity=purity,
            variant_set=variant_set, verdicts=verdicts,
            contexts=self.contexts, uniqueness=self.unique,
            diagnostics=self.diagnostics,
            metrics=dict(sorted(self._counts.items())),
            trace=prof.spans() if prof.enabled else [],
            lint=self.lint, downgrades=self.downgrades,
            profile=prof.to_dict() if prof.enabled else {})

    # -- discipline queries ---------------------------------------------------
    def _versioned(self, target: Target) -> bool:
        if target.kind == "global" or target.binding is None:
            # plain global, or an element/field of an object named
            # directly by a global: use the global's declaration flag
            for decl in self.program.globals:
                if decl.name == target.name:
                    return decl.versioned
            return False
        if target.kind in ("field", "elem") and target.binding is not None:
            classes = self.env.of_binding(target.binding)
            if not classes:
                return False
            for cname in classes:
                cls = self._class_decl(cname)
                if cls is None or target.field not in cls.versioned_fields:
                    return False
            return True
        return False

    def _class_decl(self, name: str):
        for c in self.program.classes:
            if c.name == name:
                return c
        return None

    def _cas_root_ok(self, root: Target) -> bool:
        """CAS windows are built only for declared-versioned roots; the
        CAS-only-writes half of the discipline is re-checked lazily in
        :meth:`_window_valid` (sites do not exist yet at build time).
        Regions whose ABA discipline lint refuted get no windows."""
        if self._lint_vetoes(root, "5.4"):
            return False
        return self._versioned(root)

    # -- site collection --------------------------------------------------------
    def _collect_sites(self) -> None:
        for ctx in self.contexts.values():
            reachable = ctx.cfg.reachable_from(ctx.cfg.entry)
            for node in ctx.cfg.ordered(reachable):
                failing: list[A.Expr] = []
                if node.kind is NodeKind.STMT \
                        and isinstance(node.stmt, A.Assume):
                    failing = list(_failing_sync_exprs(node.stmt.cond))
                for action in node_actions(node):
                    if action.expr is not None and action.expr in failing \
                            and action.op == "write":
                        # an SC/CAS asserted to fail writes nothing
                        action = RawAction("read", action.target,
                                           via=action.via, expr=action.expr,
                                           node=node)
                    site = Site(ctx, node, action)
                    site.is_local = self._is_local(ctx, node, action)
                    ctx.sites.append(site)

    def _is_local(self, ctx: VariantContext, node: CFGNode,
                  action: RawAction) -> bool:
        if action.op == "alloc":
            return True
        t = action.target
        if t is None:
            return True
        if t.kind == "var":
            return True
        if t.kind in ("field", "elem"):
            if t.binding is None:
                return False
            if self.unique.is_unique(t.binding):
                return True
            return ctx.escape.is_fresh(node, t.binding)
        return False

    def _all_sites(self):
        for ctx in self.contexts.values():
            yield from ctx.sites

    # -- classification -------------------------------------------------------------
    def _sc_only(self, target: Target) -> bool:
        for site in self._all_sites():
            if site.action.op != "write" or site.is_local:
                continue
            if self.alias.may_alias(site.action.target, target) \
                    and site.action.via != "SC":
                return False
        return True

    def _cas_discipline(self, target: Target) -> bool:
        if not self._versioned(target):
            return False
        for site in self._all_sites():
            if site.action.op != "write" or site.is_local:
                continue
            if self.alias.may_alias(site.action.target, target) \
                    and site.action.via != "CAS":
                return False
        return True

    def _window_valid(self, w: Window) -> bool:
        theorem = "5.4" if w.kind == "CAS" else "5.3"
        if self._lint_vetoes(w.root, theorem):
            return False
        if w.kind == "CAS":
            return self._cas_discipline(w.root)
        return True

    def _step2_types(self, ctx: VariantContext) -> dict[tuple, tuple]:
        """(node uid, region, slot) -> (L/R, window kind) from
        Theorem 5.3 (SC/VL windows) and 5.4 (CAS windows), step 2."""
        out: dict[tuple, tuple] = {}
        for w in ctx.windows.windows:
            if w.kind in ("SC", "VL") and (
                    not self._sc_only(w.root)
                    or self._lint_vetoes(w.root, "5.3")):
                continue
            if w.kind == "CAS" and (
                    not self._cas_discipline(w.root)
                    or self._lint_vetoes(w.root, "5.4")):
                continue
            region = target_region(w.root)
            out[(w.end_node.uid, region, "end")] = (AT.L, w.kind)
            out[(w.ll_node.uid, region, "ll")] = (AT.R, w.kind)
        return out

    def _classify_sites(self) -> None:
        step2: dict[str, dict] = {
            name: self._step2_types(ctx)
            for name, ctx in self.contexts.items()}
        for ctx in self.contexts.values():
            for site in ctx.sites:
                site.atomicity = self._site_atomicity(site,
                                                      step2[ctx.name])
                self._tally(f"analysis.movers.{site.atomicity}")

    def _site_atomicity(self, site: Site, step2: dict) -> Atomicity:
        action = site.action
        if site.is_local or action.op == "alloc":
            self._tally("analysis.steps.thm3.1")
            site.steps.append("step1:local")
            site.provenance.append(justify(
                "step1", "local", mover="B",
                detail="allocation" if action.op == "alloc"
                else f"local action on {action.target}"))
            return AT.B
        if action.op == "acquire":
            self._tally("analysis.steps.thm3.2")
            site.steps.append("step1:acquire")
            site.provenance.append(justify(
                "step1", "acquire", mover="R",
                detail=f"lock acquire of {action.target}"))
            return AT.R
        if action.op == "release":
            self._tally("analysis.steps.thm3.2")
            site.steps.append("step1:release")
            site.provenance.append(justify(
                "step1", "release", mover="L",
                detail=f"lock release of {action.target}"))
            return AT.L
        region = target_region(action.target)
        candidates: list[Atomicity] = []
        if action.op == "write" and action.via in ("SC", "CAS"):
            hit = step2.get((site.node.uid, region, "end"))
            if hit is not None:
                t2, _kind = hit
                self._tally("analysis.steps.thm5.4" if _kind == "CAS"
                            else "analysis.steps.thm5.3")
                candidates.append(t2)
                site.steps.append("step2:successful-" + action.via)
                site.provenance.append(justify(
                    "step2", "successful-" + action.via, mover=str(t2),
                    detail=f"successful {action.via} on {action.target}"))
        if action.op == "read":
            if action.via in ("LL", "plain"):
                hit = step2.get((site.node.uid, region, "ll"))
                if hit is not None:
                    t2, kind = hit
                    self._tally("analysis.steps.thm5.4" if kind == "CAS"
                                else "analysis.steps.thm5.3")
                    candidates.append(t2)
                    site.steps.append("step2:matching-" + action.via)
                    rule = "matching-CAS-read" if kind == "CAS" \
                        else "matching-" + action.via
                    what = "successful CAS" if kind == "CAS" \
                        else f"successful {kind}"
                    site.provenance.append(justify(
                        "step2", rule, mover=str(t2),
                        detail=f"matching {action.via} of a {what} "
                               f"on {action.target}"))
            if action.via == "VL":
                hit = step2.get((site.node.uid, region, "end"))
                if hit is not None:
                    t2, _kind = hit
                    self._tally("analysis.steps.thm5.4" if _kind == "CAS"
                                else "analysis.steps.thm5.3")
                    candidates.append(t2)
                    site.steps.append("step2:successful-VL")
                    site.provenance.append(justify(
                        "step2", "successful-VL", mover=str(t2),
                        detail=f"successful VL on {action.target}"))
        mover, reasons = self._step4_mover(site)
        if mover is not None:
            candidates.append(mover)
            site.steps.append(f"step4:{mover}")
            sides = {AT.B: "no conflicting access can occur adjacently",
                     AT.L: "no conflicting access can occur "
                           "immediately before",
                     AT.R: "no conflicting access can occur "
                           "immediately after"}
            site.provenance.append(justify(
                "step4", "adjacency-exclusion", mover=str(mover),
                detail=sides[mover], counts=reasons))
        if not candidates:
            site.steps.append("step5:default-A")
            site.provenance.append(justify(
                "step5", "default", mover="A",
                detail=f"unclassified global action on {action.target}"))
            self._tally("analysis.movers.A-default")
            return AT.A
        out = candidates[0]
        for c in candidates[1:]:
            out = AT.meet(out, c)
        return out

    # -- step 4: mover computation ------------------------------------------------
    def _conflicts(self, site: Site) -> list[Site]:
        """Global actions of (potentially) other threads that conflict
        with this one (Theorem 3.3)."""
        a = site.action
        out = []
        for other in self._all_sites():
            b = other.action
            if other.is_local or b.op not in ("read", "write"):
                continue
            if a.op == "read" and b.op != "write":
                continue
            if b.target is None or a.target is None:
                continue
            if not self.alias.may_alias(a.target, b.target):
                continue
            out.append(other)
        return out

    def _step4_mover(self, site: Site
                     ) -> tuple[Atomicity | None, dict[str, int]]:
        """The step-3/4 mover for a global access, plus a tally of the
        theorems whose exclusions closed the successful side(s)."""
        if site.action.op not in ("read", "write"):
            return None, {}
        conflicts = self._conflicts(site)
        self._tally("analysis.conflict_pairs", len(conflicts))
        left_r: dict[str, int] = {}
        right_r: dict[str, int] = {}
        left = all(self._excluded(site, other, "before", left_r)
                   for other in conflicts)
        right = all(self._excluded(site, other, "after", right_r)
                    for other in conflicts)
        if left and right:
            merged = dict(left_r)
            for tag, n in right_r.items():
                merged[tag] = merged.get(tag, 0) + n
            return AT.B, merged
        if left:
            return AT.L, left_r
        if right:
            return AT.R, right_r
        return None, {}

    # -- the adjacency-exclusion engine ----------------------------------------------
    def _excluded(self, a: Site, b: Site, side: str,
                  reasons: dict[str, int] | None = None) -> bool:
        """Can action ``b`` (from another thread) be shown NOT to occur
        immediately ``side`` (before/after) action ``a``?

        When ``reasons`` is given and the exclusion succeeds, the tags
        of every rule that contributed a mark (``5.1``, ``5.3``,
        ``5.4``, ``5.5``, ``agreement``) are tallied into it — an
        aggregate attribution over the alias case split, not a minimal
        proof core (see :mod:`repro.obs.provenance`)."""
        opts = self.options
        self._unconditional = False
        self._fired: set[str] = set()
        pair_flags: dict[tuple, list[bool]] = {}

        def mark(pair: tuple, aliased: bool, tag: str | None = None
                 ) -> None:
            flags = pair_flags.setdefault(pair, [False, False])
            flags[0 if aliased else 1] = True
            if tag is not None:
                self._fired.add(tag)

        # conflict-pair case split: when the two locations are distinct
        # cells (heap cells via different bindings, or different elements
        # of a global array), the not-aliased branch removes the
        # conflict entirely.  ``_P0`` is the conflict pair itself.
        ta, tb = a.action.target, b.action.target
        conflict_must = ta.kind == "global" and tb.kind == "global" \
            and ta.name == tb.name
        self._conflict_regions = (target_region(ta), target_region(tb))
        if not conflict_must:
            mark(_P0, aliased=False)
            if ta.binding is not None and tb.binding is not None:
                mark((ta.binding, tb.binding), aliased=False)

        # Theorem 5.1: common lock
        if opts.enable_locks and common_lock(
                self.alias, a.ctx.lockset.held_at(a.node),
                b.ctx.lockset.held_at(b.node)):
            return self._conclude(True, {"5.1"}, reasons)

        if opts.enable_windows:
            self._window_rules(a, b, side, mark, pair_flags)
        if opts.enable_conditions:
            self._condition_rule(a, b, side, mark)
        if opts.enable_agreement and side == "after":
            self._agreement_rule(a, b, mark)

        if any(pair is not _P0 for pair in pair_flags):
            self._tally("analysis.case_splits")
        excluded = self._unconditional or any(
            flags[0] and flags[1] for flags in pair_flags.values())
        return self._conclude(excluded, self._fired, reasons)

    def _conclude(self, excluded: bool, fired: set[str],
                  reasons: dict[str, int] | None) -> bool:
        if excluded:
            for tag in fired:
                self._tally(f"analysis.exclusions.thm{tag}"
                            if tag[0].isdigit()
                            else f"analysis.exclusions.{tag}")
                if reasons is not None:
                    reasons[tag] = reasons.get(tag, 0) + 1
        return excluded

    def _window_rules(self, a: Site, b: Site, side: str, mark,
                      pair_flags) -> None:
        """Theorems 5.3 (W1) and 5.4 (W2)."""
        for w in a.ctx.windows.windows_protecting(a.node, side):
            if not self._window_valid(w):
                continue
            family = ("SC",) if w.kind in ("SC", "VL") else ("CAS",)
            tag = "5.3" if family == ("SC",) else "5.4"
            # W1: a successful SC on v cannot occur inside the window
            if b.action.op == "write" and b.action.via in family:
                self._mark_alias(w.root, b.action.target, a, b, mark,
                                 a_side_target=w.root, tag=tag)
            # W2: nothing from a competing SC-block on v can occur inside
            for wb in b.ctx.windows.sc_block_memberships(b.node):
                if not self._window_valid(wb):
                    continue
                if wb.kind not in family:
                    continue
                self._mark_alias(w.root, wb.root, a, b, mark,
                                 a_side_target=w.root,
                                 b_side_target=wb.root, tag=tag)
        # symmetric: b protected in its own window against a
        flip = "after" if side == "before" else "before"
        for wb in b.ctx.windows.windows_protecting(b.node, flip):
            if not self._window_valid(wb):
                continue
            family = ("SC",) if wb.kind in ("SC", "VL") else ("CAS",)
            tag = "5.3" if family == ("SC",) else "5.4"
            if a.action.op == "write" and a.action.via in family:
                self._mark_alias(wb.root, a.action.target, a, b, mark,
                                 b_side_target=wb.root,
                                 swap=True, tag=tag)
            for wa in a.ctx.windows.sc_block_memberships(a.node):
                if not self._window_valid(wa) or wa.kind not in family:
                    continue
                self._mark_alias(wb.root, wa.root, a, b, mark,
                                 a_side_target=wa.root,
                                 b_side_target=wb.root, tag=tag)

    _unconditional = False

    def _mark_alias(self, v: Target, u: Target, a: Site, b: Site, mark,
                    a_side_target: Target | None = None,
                    b_side_target: Target | None = None,
                    swap: bool = False,
                    tag: str | None = None) -> None:
        """Record an exclusion that holds when u and v denote the same
        cell: unconditional for same-named globals; an aliased-case mark
        on the (a-side binding, b-side binding) pair for heap cells; and
        an aliased-case mark on the conflict pair itself when the rule
        pair covers the conflicting locations' regions (then "not
        aliased" already means "no conflict").  ``tag`` names the
        theorem the mark came from, for provenance."""
        if v.kind == "global" and u.kind == "global":
            if v.name == u.name:
                self._unconditional = True
                if tag is not None:
                    self._fired.add(tag)
            return
        if v.kind != u.kind or v.field != u.field:
            return
        if not self.alias.may_alias(v, u):
            return
        a_target = a_side_target if a_side_target is not None \
            else (u if swap else v)
        b_target = b_side_target if b_side_target is not None \
            else (v if swap else u)
        if a_target.binding is not None and b_target.binding is not None:
            mark((a_target.binding, b_target.binding), aliased=True,
                 tag=tag)
        regions = getattr(self, "_conflict_regions", None)
        if regions is not None \
                and target_region(a_target) == regions[0] \
                and target_region(b_target) == regions[1]:
            mark(_P0, aliased=True, tag=tag)

    def _condition_rule(self, a: Site, b: Site, side: str, mark) -> None:
        """Theorem 5.5: an LL-SC block with condition p and a local block
        with condition implying !p on the same variable exclude each
        other's transitions."""
        for first, second, fside in ((a, b, side),
                                     (b, a,
                                      "after" if side == "before"
                                      else "before")):
            # first inside the LL-SC block, second inside the local block
            for b1 in first.ctx.blocks:
                if b1.kind != "llsc" \
                        or not first.ctx.node_in_block(b1, first.node):
                    continue
                if not self._sc_only(b1.svar):
                    continue
                if not self._uniform_condition(b1):
                    continue
                for b2 in second.ctx.blocks:
                    if not second.ctx.node_in_block(b2, second.node):
                        continue
                    if b2 is b1 and first.ctx is second.ctx:
                        continue
                    if not self.alias.may_alias(b1.svar, b2.svar):
                        continue
                    if not condition_excludes(b2.condition, b1.condition):
                        continue
                    inside = (
                        first.ctx.adjacency_inside_block(
                            b1, first.node, fside)
                        or second.ctx.adjacency_inside_block(
                            b2, second.node,
                            "after" if fside == "before" else "before"))
                    if not inside:
                        continue
                    if b1.svar.kind == "global" \
                            and b2.svar.kind == "global":
                        if b1.svar.name == b2.svar.name:
                            self._unconditional = True
                            self._fired.add("5.5")
                        continue
                    a_svar = b1.svar if first is a else b2.svar
                    b_svar = b2.svar if first is a else b1.svar
                    if a_svar.binding is not None \
                            and b_svar.binding is not None:
                        mark((a_svar.binding, b_svar.binding),
                             aliased=True, tag="5.5")
                    regions = getattr(self, "_conflict_regions", None)
                    if regions is not None \
                            and target_region(a_svar) == regions[0] \
                            and target_region(b_svar) == regions[1]:
                        mark(_P0, aliased=True, tag="5.5")

    def _uniform_condition(self, b1: BlockInfo) -> bool:
        """All LL-SC blocks on (aliases of) b1.svar share one condition."""
        for ctx in self.contexts.values():
            for other in ctx.blocks:
                if other.kind != "llsc":
                    continue
                if not self.alias.may_alias(other.svar, b1.svar):
                    continue
                if other.condition != b1.condition:
                    return False
        return True

    def _agreement_rule(self, a: Site, b: Site, mark) -> None:
        """LL-agreement: if ``a`` sits in a window on global ``v`` and a
        successful SC(v) of another thread lands immediately after it,
        the two windows on ``v`` overlap, so both threads read the same
        value of ``v`` — their LL bindings must alias.  This closes the
        not-aliased branch of case splits whose pair bindings are the
        two windows' LL bindings (the paper's reasoning for a6)."""
        if b.action.op != "write" or b.action.via not in ("SC", "CAS"):
            return
        # b must be a successful SC: the end of one of its own windows
        b_windows = [w for w in b.ctx.windows.windows
                     if w.end_node is b.node and self._window_valid(w)]
        for w in a.ctx.windows.windows_containing(a.node):
            if not self._window_valid(w):
                continue
            if w.root.kind != "global":
                continue
            for wb in b_windows:
                if wb.root.kind != "global" \
                        or wb.root.name != w.root.name:
                    continue
                if w.ll_binding is None or wb.ll_binding is None:
                    continue
                mark((w.ll_binding, wb.ll_binding), aliased=False,
                     tag="agreement")

    # -- steps 6/7: propagation and verdicts --------------------------------------------
    def _node_atom(self, ctx: VariantContext, node: CFGNode) -> Atomicity:
        atoms = [s.atomicity for s in ctx.sites if s.node is node]
        return AT.seq_all(atoms)

    def stmt_atomicity(self, ctx: VariantContext, s: A.Stmt) -> Atomicity:
        nodes = ctx.stmt_nodes.get(s.nid, [])
        if isinstance(s, A.Block):
            return AT.seq_all([self.stmt_atomicity(ctx, x)
                               for x in s.stmts])
        if isinstance(s, A.LocalDecl):
            bind = [n for n in nodes if n.kind is NodeKind.BIND]
            head = self._node_atom(ctx, bind[0]) if bind else AT.B
            return AT.seq(head, self.stmt_atomicity(ctx, s.body))
        if isinstance(s, A.If):
            branch = [n for n in nodes if n.kind is NodeKind.BRANCH]
            cond = self._node_atom(ctx, branch[0]) if branch else AT.B
            then = self.stmt_atomicity(ctx, s.then)
            els = self.stmt_atomicity(ctx, s.els) \
                if s.els is not None else AT.B
            return AT.seq(cond, AT.join(then, els))
        if isinstance(s, A.Loop):
            return AT.iter_closure(self.stmt_atomicity(ctx, s.body))
        if isinstance(s, A.Synchronized):
            acq = [n for n in nodes if n.kind is NodeKind.ACQUIRE]
            rel = [n for n in nodes if n.kind is NodeKind.RELEASE]
            inner = self.stmt_atomicity(ctx, s.body)
            head = self._node_atom(ctx, acq[0]) if acq else AT.R
            tail = self._node_atom(ctx, rel[0]) if rel else AT.L
            return AT.seq(AT.seq(head, inner), tail)
        # simple statements: compose their node actions
        return AT.seq_all([self._node_atom(ctx, n) for n in nodes])

    def _variant_read_only(self, ctx: VariantContext) -> bool:
        from repro.analysis.purity import binding_kinds

        kinds = binding_kinds(ctx.variant.proc)
        for site in ctx.sites:
            if site.action.op != "write":
                continue
            t = site.action.target
            if t is not None and t.kind == "var":
                kind = kinds.get(t.binding)
                if kind in (A.VarKind.LOCAL, A.VarKind.PARAM):
                    continue  # procedure-local scratch
                return False  # thread-local update persists
            if not site.is_local:
                return False  # visible global/heap write
            # heap write through a unique reference persists across the
            # invocation (e.g. prv.data): not read-only
            if t is not None and t.kind in ("field", "elem") \
                    and self.unique.is_unique(t.binding):
                return False
        return True

    def _verdicts(self, variant_set: VariantSet) -> dict[str, ProcVerdict]:
        verdicts: dict[str, ProcVerdict] = {}
        for proc in self.program.procs:
            reports = []
            for variant in variant_set.of(proc.name):
                ctx = self.contexts[variant.name]
                stmt_atoms: dict[int, Atomicity] = {}
                for node in variant.proc.body.walk():
                    if isinstance(node, A.Stmt):
                        stmt_atoms[node.nid] = self.stmt_atomicity(
                            ctx, node)
                body = self.stmt_atomicity(ctx, variant.proc.body)
                reports.append(VariantReport(
                    variant, ctx, body, stmt_atoms,
                    read_only=self._variant_read_only(ctx)))
            atomic = all(AT.is_atomic(r.body_atomicity)
                         for r in reports if not r.read_only)
            verdicts[proc.name] = ProcVerdict(proc.name, atomic, reports)
        return verdicts


def analyze_program(source: A.Program | str,
                    options: InferenceOptions | None = None,
                    profiler: Profiler | None = None,
                    source_text: str | None = None
                    ) -> AnalysisResult:
    """Convenience entry point: run the full inference."""
    return AtomicityChecker(source, options, profiler=profiler,
                            source_text=source_text).run()
