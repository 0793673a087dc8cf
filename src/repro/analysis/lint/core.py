"""Core of the discipline linter: rule registry, diagnostics,
suppressions, and the shared analysis context.

The linter checks the *side conditions* the mover theorems of the
paper assume rather than verify: unique matching LLs per SC/VL
(§5.2), the modification-counter ABA discipline behind the CAS
windows of Theorem 5.4, the working-copy uniqueness idiom (§4), and
— for shared data outside the LL/SC regime — a lockset-style race
pass in the style of Eraser.  Rules are registered by
:mod:`repro.analysis.lint.rules` and :mod:`repro.analysis.lint.race`;
:func:`lint_program` runs every registered checker over one program
and returns a :class:`LintResult`.

Findings can be suppressed in source with a trailing or preceding
comment ``// lint: ignore[rule.id]``.  The bracket list is
comma-separated; an entry matches a finding when it equals the rule
id, equals its family prefix (``llsc`` matches ``llsc.multi-ll``),
or is ``*``.  A directive applies to findings on its own line and on
the following line, so a comment-only line above a statement works.
Suppressed findings are retained separately (they still appear in
``--json`` output under ``suppressed``).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.analysis.actions import RawAction, Target, node_actions
from repro.analysis.alias import AliasAnalysis
from repro.analysis.escape import EscapeResult, escape_analysis
from repro.analysis.locks import LocksetResult, lockset_analysis
from repro.analysis.matching import matching_reads
from repro.analysis.typing import ClassEnv, infer_classes
from repro.analysis.uniqueness import UniquenessResult, uniqueness_analysis
from repro.cfg.builder import build_cfg
from repro.cfg.graph import CFGNode, NodeKind, ProcCFG
from repro.synl import ast as A
from repro.synl.resolve import load_program

#: version of the JSON shape produced by :meth:`LintResult.to_dict`
#: (mirrored by ``repro.obs.export.LINT_SCHEMA``)
LINT_VERSION = 1


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering is by increasing gravity so
    results sort errors first with ``-severity``."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Span:
    """1-based source span (0 = unknown).  ``end_*`` is the start of
    the last positioned node in the subtree — an anchor, not a
    precise closing column."""

    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0

    @classmethod
    def of(cls, node: Union[A.Node, CFGNode, None]) -> "Span":
        if node is None:
            return cls()
        ast = node.stmt if isinstance(node, CFGNode) else node
        if ast is None:
            return cls()
        start, end = ast.span()
        if start is None:
            return cls()
        assert end is not None
        return cls(start.line, start.col, end.line, end.col)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}" if self.line else "?"


@dataclass
class Diagnostic:
    """One lint finding.  ``region_key`` is the machine-readable
    region identity (see :func:`region_key`) used by the inference
    integration to downgrade theorem applications."""

    rule: str
    severity: Severity
    message: str
    proc: Optional[str] = None
    span: Span = dc_field(default_factory=Span)
    fix: Optional[str] = None
    region: Optional[str] = None
    region_key: Optional[tuple] = None

    def to_dict(self) -> dict:
        out: dict = {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "line": self.span.line,
            "col": self.span.col,
            "end_line": self.span.end_line,
            "end_col": self.span.end_col,
        }
        if self.proc is not None:
            out["proc"] = self.proc
        if self.fix is not None:
            out["fix"] = self.fix
        if self.region is not None:
            out["region"] = self.region
        return out

    def render(self) -> str:
        where = self.proc or "<program>"
        if self.span.line:
            where += f":{self.span}"
        text = f"{self.severity}[{self.rule}] {where}: {self.message}"
        if self.fix:
            text += f"\n    fix: {self.fix}"
        return text


@dataclass(frozen=True)
class Rule:
    """Registered rule metadata (the check logic lives in checker
    functions, several of which may emit several rule ids)."""

    id: str
    severity: Severity
    summary: str
    theorem: Optional[str] = None  # paper citation, e.g. "Thm 5.4"
    fix: Optional[str] = None      # default fix hint


RULES: dict[str, Rule] = {}
CHECKERS: list[Callable[["LintContext"], None]] = []


def declare(rule_id: str, severity: Severity, summary: str, *,
            theorem: Optional[str] = None,
            fix: Optional[str] = None) -> None:
    if rule_id in RULES:
        raise ValueError(f"duplicate lint rule id {rule_id!r}")
    RULES[rule_id] = Rule(rule_id, severity, summary, theorem, fix)


def checker(fn: Callable[["LintContext"], None]):
    """Register a checker pass; it receives the :class:`LintContext`
    and reports findings through :meth:`LintContext.report`."""
    CHECKERS.append(fn)
    return fn


# -- region identity -----------------------------------------------------------

def region_key(target: Target) -> Optional[tuple]:
    """Cross-procedure region identity for a target.  Binding-based
    heap regions collapse to ``(kind, field)`` — coarser than
    ``purity.target_region`` (which is per-binding) so keys survive
    variant renumbering; global-rooted regions mirror its naming."""
    if target.kind == "global":
        return ("global", target.name)
    if target.kind == "var":
        return None  # thread-private storage has no shared region
    if target.binding is None:
        suffix = "[]" if target.kind == "elem" else ""
        name = target.name
        if target.field is not None:
            name += f".{target.field}"
        return ("global", f"{name}{suffix}")
    return ("heap", target.kind, target.field)


def pretty_target(target: Target) -> str:
    """Human-readable label for a target, e.g. ``Top`` or
    ``t.ANext``."""
    if target.kind in ("global", "var"):
        return target.name
    label = target.name
    if target.field is not None:
        label += f".{target.field}"
    if target.kind == "elem":
        label += "[...]"
    return label


def region_label(target: Target) -> str:
    """Human-readable label for the *region* of a target: globals by
    name, heap regions by field (class-agnostic, matching the
    granularity of :func:`region_key`)."""
    key = region_key(target)
    if key is None:
        return target.name
    if key[0] == "global":
        return key[1]
    _, kind, fld = key
    return f"*.{fld}" + ("[]" if kind == "elem" else "")


# -- analysis context ----------------------------------------------------------

class LintContext:
    """Shared per-program analyses plus the findings accumulator."""

    def __init__(self, program: A.Program,
                 source_text: Optional[str] = None):
        self.program = program
        self.source = source_text
        self.cfgs: dict[str, ProcCFG] = {
            p.name: build_cfg(p) for p in program.procs}
        self.escape: dict[str, EscapeResult] = {
            n: escape_analysis(c) for n, c in self.cfgs.items()}
        self.locks: dict[str, LocksetResult] = {
            n: lockset_analysis(c) for n, c in self.cfgs.items()}
        self.uniqueness: UniquenessResult = uniqueness_analysis(
            program, self.cfgs)
        self.env: ClassEnv = infer_classes(program)
        self.alias = AliasAnalysis(program, self.env)
        self.findings: list[Diagnostic] = []
        self._actions: dict[str, list[tuple[CFGNode, RawAction]]] = {
            name: [(node, a) for node in cfg.nodes
                   for a in node_actions(node)]
            for name, cfg in self.cfgs.items()}
        # region indices over procedure code (init/threadinit excluded:
        # they run before/at thread start, outside the concurrent phase)
        self.llsc_regions: set[tuple] = set()
        self.cas_regions: set[tuple] = set()
        self.proc_llsc_regions: dict[str, set[tuple]] = {}
        for name, _cfg, _node, action in self.actions():
            if action.target is None:
                continue
            key = region_key(action.target)
            if key is None:
                continue
            if action.via in ("LL", "SC", "VL"):
                self.llsc_regions.add(key)
                self.proc_llsc_regions.setdefault(name, set()).add(key)
            elif action.via == "CAS":
                self.cas_regions.add(key)
        self._cas_read_nodes: Optional[set[tuple[str, CFGNode]]] = None

    def actions(self) -> Iterator[
            tuple[str, ProcCFG, CFGNode, RawAction]]:
        for name, pairs in self._actions.items():
            cfg = self.cfgs[name]
            for node, action in pairs:
                yield name, cfg, node, action

    def versioned(self, target: Target) -> bool:
        """Mirror of the inference engine's discipline query: is the
        region of ``target`` covered by a modification counter?"""
        if target.kind == "global" or target.binding is None:
            for decl in self.program.globals:
                if decl.name == target.name:
                    return decl.versioned
            return False
        if target.kind in ("field", "elem"):
            classes = self.env.of_binding(target.binding)
            if not classes:
                return False
            for cname in classes:
                cls = self.program.class_decl(cname)
                if cls is None or target.field not in cls.versioned_fields:
                    return False
            return True
        return False

    def is_private(self, proc: str, node: CFGNode,
                   target: Target) -> bool:
        """Is the access through a binding the analyses certify as
        thread-private at this point (fresh or working-copy unique)?"""
        if target.binding is None:
            return False
        if self.uniqueness.is_unique(target.binding):
            return True
        return self.escape[proc].is_fresh(node, target.binding)

    def cas_read_nodes(self) -> set[tuple[str, CFGNode]]:
        """(proc, node) pairs acting as the matching read of some CAS
        — exempt from plain-access rules (the read *is* the idiom)."""
        if self._cas_read_nodes is None:
            out: set[tuple[str, CFGNode]] = set()
            for name, cfg, node, action in self.actions():
                if action.via != "CAS" or action.op != "write":
                    continue
                assert isinstance(action.expr, A.CASExpr)
                for read in matching_reads(cfg, node, action.expr):
                    out.add((name, read))
            self._cas_read_nodes = out
        return self._cas_read_nodes

    def report(self, rule_id: str, message: str, *,
               proc: Optional[str] = None,
               node: Union[A.Node, CFGNode, None] = None,
               span: Optional[Span] = None,
               fix: Optional[str] = None,
               target: Optional[Target] = None) -> Diagnostic:
        rule = RULES[rule_id]
        diag = Diagnostic(
            rule=rule_id,
            severity=rule.severity,
            message=message,
            proc=proc,
            span=span if span is not None else Span.of(node),
            fix=fix if fix is not None else rule.fix,
            region=region_label(target) if target is not None else None,
            region_key=region_key(target) if target is not None else None,
        )
        self.findings.append(diag)
        return diag


# -- suppressions --------------------------------------------------------------

_SUPPRESS_RE = re.compile(r"//\s*lint:\s*ignore\[([^\]]*)\]")


def suppressions(source: Optional[str]) -> dict[int, set[str]]:
    """Map 1-based line number -> suppression entries on that line."""
    out: dict[int, set[str]] = {}
    if not source:
        return out
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            entries = {e.strip() for e in match.group(1).split(",")
                       if e.strip()}
            if entries:
                out[lineno] = entries
    return out


def _entry_matches(entry: str, rule_id: str) -> bool:
    return entry == "*" or entry == rule_id \
        or rule_id.startswith(entry + ".")


def is_suppressed(diag: Diagnostic,
                  supp: dict[int, set[str]]) -> bool:
    if not supp or not diag.span.line:
        return False
    for lineno in (diag.span.line, diag.span.line - 1):
        for entry in supp.get(lineno, ()):
            if _entry_matches(entry, diag.rule):
                return True
    return False


# -- results -------------------------------------------------------------------

@dataclass
class LintResult:
    """All findings for one program, suppressions applied."""

    target: str
    findings: list[Diagnostic]
    suppressed: list[Diagnostic] = dc_field(default_factory=list)

    def _count(self, severity: Severity) -> int:
        return sum(1 for d in self.findings if d.severity is severity)

    @property
    def errors(self) -> int:
        return self._count(Severity.ERROR)

    @property
    def warnings(self) -> int:
        return self._count(Severity.WARNING)

    @property
    def infos(self) -> int:
        return self._count(Severity.INFO)

    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for d in self.findings:
            out[d.rule] = out.get(d.rule, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict:
        return {
            "v": LINT_VERSION,
            "target": self.target,
            "findings": [d.to_dict() for d in self.findings],
            "summary": {
                "errors": self.errors,
                "warnings": self.warnings,
                "infos": self.infos,
                "suppressed": len(self.suppressed),
            },
        }

    def render(self) -> str:
        lines = [d.render() for d in self.findings]
        lines.append(
            f"{self.target}: {self.errors} error(s), "
            f"{self.warnings} warning(s), {self.infos} info(s)"
            + (f", {len(self.suppressed)} suppressed"
               if self.suppressed else ""))
        return "\n".join(lines)


def lint_counts(results: Iterable[LintResult]) -> dict[str, int]:
    """The ``lint.*`` counters over one or more lint runs, keys
    sorted: ``lint.runs``, the kept findings per severity
    (``lint.findings.error|warning|info``), the suppressed ones
    (``lint.findings.suppressed``) and the kept ones per rule
    (``lint.rule.<id>``).  The severity and suppression counts are
    present even when zero."""
    counts = {"lint.runs": 0, "lint.findings.error": 0,
              "lint.findings.warning": 0, "lint.findings.info": 0,
              "lint.findings.suppressed": 0}
    for result in results:
        counts["lint.runs"] += 1
        counts["lint.findings.error"] += result.errors
        counts["lint.findings.warning"] += result.warnings
        counts["lint.findings.info"] += result.infos
        counts["lint.findings.suppressed"] += len(result.suppressed)
        for rule_id, n in result.counts_by_rule().items():
            key = f"lint.rule.{rule_id}"
            counts[key] = counts.get(key, 0) + n
    return dict(sorted(counts.items()))


def _sort_key(d: Diagnostic) -> tuple:
    return (-int(d.severity), d.proc or "", d.span.line, d.span.col,
            d.rule, d.message)


def lint_program(source: Union[str, A.Program], *,
                 label: Optional[str] = None,
                 source_text: Optional[str] = None,
                 rules: Optional[list[str]] = None,
                 profiler=None) -> LintResult:
    """Run every registered checker over a program (source text or a
    resolved AST).  ``rules`` optionally restricts output to the given
    rule ids / family prefixes (the ``lint.*`` counters come from
    :func:`lint_counts` over the results); ``profiler`` (a
    :class:`~repro.obs.profile.Profiler`) gets a timed
    ``lint.checker.<name>`` region per checker pass and per-rule
    firing counts as ``lint.rule.<id>`` work units."""
    # Checkers live in sibling modules registered on package import;
    # import them here too so calling core directly also works.
    from repro.analysis.lint import race as _race  # noqa: F401
    from repro.analysis.lint import rules as _rules  # noqa: F401

    if profiler is None:
        from repro.obs.profile import NULL_PROFILER
        profiler = NULL_PROFILER
    if isinstance(source, str):
        program = load_program(source)
        if source_text is None:
            source_text = source
    else:
        program = source
    with profiler.region("lint.context"):
        ctx = LintContext(program, source_text)
    for check in CHECKERS:
        with profiler.region(f"lint.checker.{check.__name__}"):
            check(ctx)
    findings = ctx.findings
    if rules:
        findings = [d for d in findings
                    if any(_entry_matches(r, d.rule) for r in rules)]
    supp = suppressions(source_text)
    kept: list[Diagnostic] = []
    silenced: list[Diagnostic] = []
    for diag in findings:
        (silenced if is_suppressed(diag, supp) else kept).append(diag)
    kept.sort(key=_sort_key)
    silenced.sort(key=_sort_key)
    result = LintResult(label or "<program>", kept, silenced)
    for rule_id, count in result.counts_by_rule().items():
        profiler.add(f"lint.rule.{rule_id}", count)
    return result
