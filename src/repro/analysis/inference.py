"""The atomicity inference algorithm (§5.4, steps 1–7).

Pipeline
--------
1. Parse/resolve the program (procedure calls are inlined by
   :func:`~repro.synl.resolve.load_program`); build its fact base
   (:class:`ProgramFacts`), which lint reads; run purity on it.
2. Replace each procedure by its exceptional variants (§5.2,
   :mod:`repro.analysis.variants`), round after round until a round
   slices no loop; a round that changes nothing returns its input
   program, so its fact base carries over.
3. On the variant program, from that last round's fact base: escape,
   uniqueness, classes and aliases, locksets; then dominators, windows
   (Thm 5.3/5.4) and local-condition blocks (Thm 5.5).
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

The exclusion engine
--------------------
Each adjacency query (:meth:`AtomicityChecker._excluded`) owns one
:class:`_CaseSplit`, which holds the query's alias pairs and dies with
it; every rule records "excluded when these two targets are the same
cell" through its one :meth:`_CaseSplit.same_cell`.  The window and
condition rules are written for one role (a site protected against
the other) and applied with each site in turn in that role.  Step 2
is one lookup from an action's ``(op, via)`` to the window slot it
fills (:data:`_STEP2_SLOT`).  Each discipline condition is tested in
one place: a CAS window is built only for a versioned root (the query
:func:`repro.analysis.typing.versioned`, shared with lint) whose
Thm 5.4 discipline lint does not refute; :meth:`_window_valid` adds
the CAS-only writes of a CAS window and the lint veto of an SC/VL
window; step 2 adds the SC-only writes of an SC/VL window.

Cost
----
Whole-program facts are computed once where they are fixed, not once
per query: a program's CFGs and its escape, lockset, uniqueness,
class, alias and binding-kind facts once per :class:`ProgramFacts`
(one for the source program, shared by lint and the first expansion
round, and one per later round, the last of which the classification
reads), the CAS/SC write discipline of a root once
per run (sites, their locality and the alias analysis do not change
after site collection), and each variant's node and statement
atomicities in one bottom-up pass after classification.  Every memo
lives on one :class:`AtomicityChecker` or its :class:`VariantContext`
objects and dies with it; nothing is cached across runs, so a changed
analysis can never replay a verdict computed by an older one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.analysis import atomicity as AT
from repro.analysis.actions import RawAction, Target, node_actions
from repro.analysis.alias import AliasAnalysis
from repro.analysis.atomicity import Atomicity
from repro.analysis.conditions import (BlockInfo, blocks_of_program,
                                       condition_excludes)
from repro.analysis.escape import EscapeResult, escape_analysis
from repro.analysis.locks import LocksetResult, common_lock, lockset_analysis
from repro.analysis.purity import (PurityInfo, binding_kinds, pure_loops,
                                   target_region)
from repro.analysis.typing import ClassEnv, infer_classes, versioned
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


#: sentinel pair key for the conflict pair itself (see :class:`_CaseSplit`)
_P0 = ("#conflict",)

#: step 2 (Thms 5.3/5.4): the window slot an action may fill, by
#: ``(op, via)`` — a successful SC/CAS/VL ends a window, an LL (or the
#: plain read a CAS matches) opens one
_STEP2_SLOT = {("write", "SC"): "end", ("write", "CAS"): "end",
               ("read", "VL"): "end", ("read", "LL"): "ll",
               ("read", "plain"): "ll"}

_FLIP = {"before": "after", "after": "before"}


def _as_is(mine, theirs):
    return mine, theirs


def _swapped(mine, theirs):
    return theirs, mine


class _CaseSplit:
    """One adjacency query's alias case split (§5.4).

    A rule that excludes the adjacency only in one branch of an alias
    question marks the pair of bindings it depends on, a-side binding
    first, as closed in that branch: ``aliased`` (both denote one cell)
    or not.  The query excludes the adjacency when some pair has both
    branches closed, or when a rule needs no case split (two same-named
    globals are one cell).  :data:`_P0` stands for the conflict pair
    itself: when the two conflicting locations may be distinct cells,
    their not-aliased branch has no conflict and is closed from the
    start."""

    def __init__(self, alias: AliasAnalysis, ta: Target, tb: Target):
        self.alias = alias
        self.regions = (target_region(ta), target_region(tb))
        self.flags: dict[tuple, list[bool]] = {}
        self.unconditional = False
        #: tags of the rules whose marks count towards an exclusion
        self.fired: set[str] = set()
        if not (ta.kind == "global" and tb.kind == "global"
                and ta.name == tb.name):
            self.mark(_P0, aliased=False)
            if ta.binding is not None and tb.binding is not None:
                self.mark((ta.binding, tb.binding), aliased=False)

    def mark(self, pair: tuple, aliased: bool,
             tag: str | None = None) -> None:
        self.flags.setdefault(pair, [False, False])[
            0 if aliased else 1] = True
        if tag is not None:
            self.fired.add(tag)

    def same_cell(self, ta: Target, tb: Target, tag: str) -> None:
        """Record an exclusion (theorem ``tag``) that holds when the
        a-side target ``ta`` and the b-side target ``tb`` denote the
        same cell: unconditional for same-named globals; an aliased
        mark on the pair of their bindings for heap cells; and an
        aliased mark on the conflict pair itself when the two targets'
        regions are the conflicting locations' (then "not aliased"
        already means "no conflict")."""
        if ta.kind == "global" and tb.kind == "global":
            if ta.name == tb.name:
                self.unconditional = True
                self.fired.add(tag)
            return
        if not self.alias.may_alias(ta, tb):
            return
        if ta.binding is not None and tb.binding is not None:
            self.mark((ta.binding, tb.binding), aliased=True, tag=tag)
        if (target_region(ta), target_region(tb)) == self.regions:
            self.mark(_P0, aliased=True, tag=tag)

    def has_pairs(self) -> bool:
        """Did the query split on a binding pair?"""
        return any(pair is not _P0 for pair in self.flags)

    def excluded(self) -> bool:
        return self.unconditional or any(
            aliased and not_aliased
            for aliased, not_aliased in self.flags.values())


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
        #: node -> sequential composition of its classified sites'
        #: atomicities; filled once, after classification (step 6)
        self.node_atoms: dict[CFGNode, Atomicity] = {}
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

    def node_atom(self, node: CFGNode) -> Atomicity:
        """The atomicity of a CFG node's actions, composed in site
        order (B for a node without sites)."""
        return self.node_atoms.get(node, AT.B)

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
    #: discipline-lint findings for the source program
    #: (:class:`repro.analysis.lint.LintResult`), None when disabled
    lint: object = None
    #: structured notes about theorem applications suppressed because
    #: lint found the discipline they assume violated:
    #: ``{"theorem", "region", "rules", "detail"}``
    downgrades: list[dict] = field(default_factory=list)

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


class ProgramFacts:
    """One program's CFGs and the facts the analyses derive from them.

    The CFGs are built with the fact base; every other fact is computed
    at most once, when something first reads it: per procedure its
    escape result and lockset, per program the uniqueness result, the
    class environment and alias analysis, and the binding kinds.  The
    checker builds one for the source program (read by lint and by the
    first expansion round) and one for each later round's input
    program; the last round's is the variant program's."""

    def __init__(self, program: A.Program):
        self.program = program
        self.cfgs: dict[str, ProcCFG] = {p.name: build_cfg(p)
                                         for p in program.procs}
        self._escape: dict[str, EscapeResult] = {}
        self._locks: dict[str, LocksetResult] = {}

    def escape(self, proc: str) -> EscapeResult:
        result = self._escape.get(proc)
        if result is None:
            result = self._escape[proc] = escape_analysis(self.cfgs[proc])
        return result

    def lockset(self, proc: str) -> LocksetResult:
        result = self._locks.get(proc)
        if result is None:
            result = self._locks[proc] = lockset_analysis(self.cfgs[proc])
        return result

    @cached_property
    def uniqueness(self) -> UniquenessResult:
        return uniqueness_analysis(self.program, self.cfgs)

    @cached_property
    def env(self) -> ClassEnv:
        return infer_classes(self.program)

    @cached_property
    def alias(self) -> AliasAnalysis:
        return AliasAnalysis(self.program, self.env)

    @cached_property
    def kinds(self) -> dict[int, A.VarKind]:
        return binding_kinds(self.program)


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
    def _purity_of(self, facts: ProgramFacts
                   ) -> dict[str, dict[A.Loop, PurityInfo]]:
        with self.profiler.region("analysis.purity"):
            program = facts.program
            if not self.options.enable_purity:
                return {proc.name: {} for proc in program.procs}
            unique = facts.uniqueness if self.options.enable_uniqueness \
                else UniquenessResult()
            unique_bindings = unique.unique_bindings()
            return {proc.name: pure_loops(facts.cfgs[proc.name],
                                          facts.kinds,
                                          facts.escape(proc.name),
                                          unique_bindings)
                    for proc in program.procs}

    def _expand_variants(self, facts: ProgramFacts) -> tuple[
            VariantSet, dict[str, dict[A.Loop, PurityInfo]],
            ProgramFacts]:
        """Iterate variant expansion from the source program's facts
        until a round slices no loop — needed when pure loops nest
        (e.g. the allocator's anchor-pop CAS loop inside the
        credit-reservation CAS loop).  A pure loop inside a kept
        non-pure loop is never sliced, so it does not hold the
        iteration open.  Each slice removes its loop and adds none
        (:func:`~repro.analysis.slices.exceptional_slice`), so every
        variant a round changes has fewer loops than its parent, and
        the round cap is only a guard.  Returns the variants, the
        source program's purity and the variant program's facts."""
        purity0: dict[str, dict[A.Loop, PurityInfo]] | None = None
        source_of: dict[str, str] | None = None
        for _ in range(10):
            purity = self._purity_of(facts)
            if purity0 is None:
                purity0 = purity
            vs = make_variants(facts.program, facts.cfgs, purity)
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
            if vs.program is not facts.program:
                facts = ProgramFacts(vs.program)
            if not vs.sliced:
                break
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
        return final_vs, purity0, facts

    #: lint error rules that void a mover theorem's side condition on
    #: the affected region (llsc → Thm 5.3 windows, aba → Thm 5.4)
    _DOWNGRADE_RULES = {
        "llsc.multi-ll": "5.3",
        "llsc.nested-ll": "5.3",
        "llsc.plain-write": "5.3",
        "aba.unversioned-cas": "5.4",
        "aba.plain-write-versioned": "5.4",
    }

    def _run_lint(self, facts: ProgramFacts) -> None:
        """Run the discipline linter over the source program's facts,
        attach its findings, and derive the theorem-downgrade taint: regions
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
            self.lint = lint_program(facts,
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
        if not self._lint_taint:
            return False
        from repro.analysis.lint import region_key
        key = region_key(root)
        return key is not None \
            and theorem in self._lint_taint.get(key, {})

    def run(self) -> AnalysisResult:
        opts = self.options
        prof = self.profiler
        with prof.region("analysis.run"):
            facts = ProgramFacts(self.program)
            self._run_lint(facts)
            with prof.region("analysis.variants"):
                variant_set, purity, facts = self._expand_variants(facts)
            #: the variant program's facts
            self.facts = facts
            with prof.region("analysis.classes_alias"):
                self.env: ClassEnv = facts.env
                self.alias = facts.alias
            with prof.region("analysis.escape_uniqueness"):
                self.unique = facts.uniqueness \
                    if opts.enable_uniqueness else UniquenessResult()
                blocks = blocks_of_program(variant_set.program) \
                    if opts.enable_conditions else {}

            with prof.region("analysis.lockset_windows"):
                self.contexts: dict[str, VariantContext] = {}
                for variant in variant_set.variants:
                    cfg = facts.cfgs[variant.name]
                    dom = Dominators(cfg)
                    windows = WindowIndex(cfg, dom, self._cas_root_ok)
                    if not opts.enable_windows:
                        windows.windows = []
                    ctx = VariantContext(
                        variant, cfg, facts.escape(variant.name),
                        facts.lockset(variant.name), dom, windows,
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
            lint=self.lint, downgrades=self.downgrades)

    # -- discipline queries ---------------------------------------------------
    def _cas_root_ok(self, root: Target) -> bool:
        """CAS windows are built only for declared-versioned roots whose
        ABA discipline lint does not refute (Thm 5.4); the CAS-only
        writes half of the discipline needs the sites, so
        :meth:`_window_valid` checks it once they exist."""
        return not self._lint_vetoes(root, "5.4") \
            and versioned(self.program, self.env, root)

    # -- site collection --------------------------------------------------------
    def _collect_sites(self) -> None:
        #: root -> :meth:`_write_vias`, valid for this site set only
        self._root_vias: dict[Target, frozenset[str]] = {}
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
    def _write_vias(self, root: Target) -> frozenset[str]:
        """How the global writes that may alias ``root`` are made: the
        set of their ``via`` tags (``plain``, ``SC``, ``CAS``).  The
        sites, their locality and the alias analysis are fixed once
        :meth:`_collect_sites` returns, so each distinct root is
        scanned once per run."""
        vias = self._root_vias.get(root)
        if vias is None:
            vias = frozenset(
                site.action.via for site in self._all_sites()
                if site.action.op == "write" and not site.is_local
                and self.alias.may_alias(site.action.target, root))
            self._root_vias[root] = vias
        return vias

    def _sc_only(self, target: Target) -> bool:
        return self._write_vias(target) <= {"SC"}

    def _cas_only(self, target: Target) -> bool:
        """The CAS-only-writes half of the Thm 5.4 discipline (the
        versioned half is :meth:`_cas_root_ok`'s)."""
        return self._write_vias(target) <= {"CAS"}

    def _window_valid(self, w: Window) -> bool:
        """The window's discipline, as far as window build could not
        check it: a CAS window needs CAS-only writes to its root, an
        SC/VL window a Thm 5.3 discipline that lint does not refute."""
        if w.kind == "CAS":
            return self._cas_only(w.root)
        return not self._lint_vetoes(w.root, "5.3")

    def _step2_types(self, ctx: VariantContext) -> dict[tuple, tuple]:
        """(node uid, region, slot) -> (L/R, window kind) from
        Theorem 5.3 (SC/VL windows on SC-only roots) and 5.4 (CAS
        windows), step 2."""
        out: dict[tuple, tuple] = {}
        for w in ctx.windows.windows:
            if not self._window_valid(w) \
                    or w.kind != "CAS" and not self._sc_only(w.root):
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
        if action.op in ("acquire", "release"):
            mover = AT.R if action.op == "acquire" else AT.L
            self._tally("analysis.steps.thm3.2")
            site.steps.append(f"step1:{action.op}")
            site.provenance.append(justify(
                "step1", action.op, mover=str(mover),
                detail=f"lock {action.op} of {action.target}"))
            return mover
        candidates: list[Atomicity] = []
        slot = _STEP2_SLOT.get((action.op, action.via))
        hit = step2.get((site.node.uid, target_region(action.target),
                         slot)) if slot is not None else None
        if hit is not None:
            mover, kind = hit
            via = action.via
            self._tally("analysis.steps.thm5.4" if kind == "CAS"
                        else "analysis.steps.thm5.3")
            candidates.append(mover)
            if slot == "end":
                step = rule = f"successful-{via}"
                detail = f"successful {via}"
            else:
                step = f"matching-{via}"
                rule = "matching-CAS-read" if kind == "CAS" else step
                detail = f"matching {via} of a successful {kind}"
            site.steps.append(f"step2:{step}")
            site.provenance.append(justify(
                "step2", rule, mover=str(mover),
                detail=f"{detail} on {action.target}"))
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

        The window and condition rules are each written for one role,
        a site ("mine") against the other ("theirs"), and applied with
        each site in turn as "mine"; ``orient`` puts a (mine, theirs)
        pair back in (a, b) order for the :class:`_CaseSplit`.

        When ``reasons`` is given and the exclusion succeeds, the tags
        of every rule that contributed a mark (``5.1``, ``5.3``,
        ``5.4``, ``5.5``, ``agreement``) are tallied into it — an
        aggregate attribution over the alias case split, not a minimal
        proof core (see :mod:`repro.obs.provenance`)."""
        opts = self.options
        # Theorem 5.1: common lock
        if opts.enable_locks and common_lock(
                self.alias, a.ctx.lockset.held_at(a.node),
                b.ctx.lockset.held_at(b.node)):
            return self._conclude(True, {"5.1"}, reasons)
        split = _CaseSplit(self.alias, a.action.target, b.action.target)
        roles = ((a, b, side, _as_is),
                 (b, a, _FLIP[side], _swapped))
        for enabled, rule in ((opts.enable_windows, self._window_rule),
                              (opts.enable_conditions,
                               self._condition_rule)):
            if enabled:
                for role in roles:
                    rule(split, *role)
        if opts.enable_agreement and side == "after":
            self._agreement_rule(split, a, b)
        if split.has_pairs():
            self._tally("analysis.case_splits")
        return self._conclude(split.excluded(), split.fired, reasons)

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

    def _window_rule(self, split: "_CaseSplit", mine: Site, theirs: Site,
                     side: str, orient) -> None:
        """Theorems 5.3 (W1) and 5.4 (W2) for ``mine`` inside a window
        that protects its ``side`` slot."""
        act = theirs.action
        for w in mine.ctx.windows.windows_protecting(mine.node, side):
            if not self._window_valid(w):
                continue
            family = "CAS" if w.kind == "CAS" else "SC"
            tag = "5.4" if family == "CAS" else "5.3"
            # W1: a successful SC on v cannot occur inside the window
            if act.op == "write" and act.via == family:
                split.same_cell(*orient(w.root, act.target), tag)
            # W2: nothing from a competing SC-block on v can occur inside
            for wt in theirs.ctx.windows.sc_block_memberships(theirs.node):
                if wt.kind == family and self._window_valid(wt):
                    split.same_cell(*orient(w.root, wt.root), tag)

    def _condition_rule(self, split: "_CaseSplit", mine: Site,
                        theirs: Site, side: str, orient) -> None:
        """Theorem 5.5 for ``mine`` inside an LL-SC block with
        condition p and ``theirs`` inside a local block whose condition
        implies !p on the same variable: neither can run adjacent to
        the other inside its block."""
        for b1 in mine.ctx.blocks:
            if b1.kind != "llsc" \
                    or not mine.ctx.node_in_block(b1, mine.node) \
                    or not self._sc_only(b1.svar) \
                    or not self._uniform_condition(b1):
                continue
            for b2 in theirs.ctx.blocks:
                if not theirs.ctx.node_in_block(b2, theirs.node) \
                        or b2 is b1 and mine.ctx is theirs.ctx \
                        or not condition_excludes(b2.condition,
                                                  b1.condition):
                    continue
                if mine.ctx.adjacency_inside_block(b1, mine.node, side) \
                        or theirs.ctx.adjacency_inside_block(
                            b2, theirs.node, _FLIP[side]):
                    split.same_cell(*orient(b1.svar, b2.svar), "5.5")

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

    def _agreement_rule(self, split: "_CaseSplit", a: Site,
                        b: Site) -> None:
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
                split.mark((w.ll_binding, wb.ll_binding), aliased=False,
                           tag="agreement")

    # -- steps 6/7: propagation and verdicts --------------------------------------------
    @staticmethod
    def _index_node_atoms(ctx: VariantContext) -> None:
        """Fold each node's classified sites, in site order, into
        ``ctx.node_atoms``."""
        per_node: dict[CFGNode, list[Atomicity]] = {}
        for site in ctx.sites:
            per_node.setdefault(site.node, []).append(site.atomicity)
        ctx.node_atoms = {node: AT.seq_all(atoms)
                          for node, atoms in per_node.items()}

    @staticmethod
    def _stmt_atoms(ctx: VariantContext, body: A.Stmt
                    ) -> dict[int, Atomicity]:
        """Step 6: the §3.3 atomicity of every statement under ``body``,
        keyed by nid, from one bottom-up pass over the tree."""
        atoms: dict[int, Atomicity] = {}

        def kind_atom(s: A.Stmt, kind: NodeKind, default: Atomicity
                    ) -> Atomicity:
            for n in ctx.stmt_nodes.get(s.nid, ()):
                if n.kind is kind:
                    return ctx.node_atom(n)
            return default

        def visit(s: A.Stmt) -> Atomicity:
            if isinstance(s, A.Block):
                atom = AT.seq_all([visit(x) for x in s.stmts])
            elif isinstance(s, A.LocalDecl):
                atom = AT.seq(kind_atom(s, NodeKind.BIND, AT.B),
                              visit(s.body))
            elif isinstance(s, A.If):
                then = visit(s.then)
                els = visit(s.els) if s.els is not None else AT.B
                atom = AT.seq(kind_atom(s, NodeKind.BRANCH, AT.B),
                              AT.join(then, els))
            elif isinstance(s, A.Loop):
                atom = AT.iter_closure(visit(s.body))
            elif isinstance(s, A.Synchronized):
                inner = visit(s.body)
                atom = AT.seq(AT.seq(kind_atom(s, NodeKind.ACQUIRE, AT.R),
                                     inner),
                              kind_atom(s, NodeKind.RELEASE, AT.L))
            else:
                # simple statements: compose their node actions
                atom = AT.seq_all([ctx.node_atom(n)
                                   for n in ctx.stmt_nodes.get(s.nid, ())])
            atoms[s.nid] = atom
            return atom

        visit(body)
        return atoms

    def _variant_read_only(self, ctx: VariantContext) -> bool:
        kinds = self.facts.kinds
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
                self._index_node_atoms(ctx)
                body = variant.proc.body
                stmt_atoms = self._stmt_atoms(ctx, body)
                reports.append(VariantReport(
                    variant, ctx, stmt_atoms[body.nid], stmt_atoms,
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
