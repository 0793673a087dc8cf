"""Canonical procedure hashing and dependency digests.

The incremental engine needs two keys per procedure:

* a **content hash** over a canonicalized AST — parameter and
  procedure-local binders are replaced by scope-ordinal indices (a de
  Bruijn-style numbering over the resolver's binding ids), so renaming
  a local or a parameter does not invalidate the summary, while
  *shared* names (globals, thread-locals, consts, field and class
  names, loop-label structure) stay literal so two procedures that
  differ only in which shared variable they touch can never collide;
* a **dependency digest** over everything the procedure's verdict can
  observe: its own content (with the transitive callee closure folded
  in — calls are inlined before analysis, so a callee edit must flip
  every caller), the program's declaration surface (globals with their
  ``versioned`` flags, thread-locals, consts, classes, ``init`` /
  ``threadinit``), the analysis options, the lint suppressions inside
  the procedure's source span, and the *interference set*: the other
  procedures whose shared-region footprint (again with the callee
  closure folded in — inlining makes a caller touch everything its
  callees touch) overlaps this one's.  The
  classification steps are whole-program (stability of a mover is
  judged against every other access in the program), so a procedure's
  verdict may change when an interfering procedure changes even if no
  call connects them.
"""

from __future__ import annotations

import hashlib
import string

from repro.synl import ast as A

# Binder kinds that are canonicalized to scope ordinals; everything
# else (globals, thread-locals, consts) keeps its literal name.
_LOCAL_KINDS = (A.VarKind.PARAM, A.VarKind.LOCAL)


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def digest(obj) -> str:
    """Short content digest (sha256 of the canonical repr, 16 hex
    chars)."""
    return _sha(obj)[:16]


# -- canonical AST keys --------------------------------------------------------

def _canon(node: A.Node, env: dict[int, int],
           labels: dict[str, int]) -> tuple:
    """Canonical structural key of ``node``.

    ``env`` maps resolver binding ids of PARAM/LOCAL binders to their
    ordinal of appearance; ``labels`` does the same for loop labels.
    Mirrors :meth:`repro.synl.ast.Node.key` otherwise (including the
    singleton-Block collapse)."""
    if isinstance(node, A.Block) and len(node.stmts) == 1:
        return _canon(node.stmts[0], env, labels)
    if isinstance(node, A.Var):
        kind = node.kind
        tag = kind.name if kind is not None else "?"
        if kind in _LOCAL_KINDS and node.binding in env:
            return ("Var", tag, env[node.binding])
        return ("Var", tag, node.name)
    if isinstance(node, A.LocalDecl):
        init = _canon(node.init, env, labels)
        if node.binding is not None:
            env[node.binding] = len(env)
        return ("LocalDecl", init, _canon(node.body, env, labels))
    if isinstance(node, A.Loop):
        if node.label is not None:
            labels[node.label] = len(labels)
        ordinal = labels.get(node.label) if node.label is not None else None
        return ("Loop", ordinal, _canon(node.body, env, labels))
    if isinstance(node, (A.Break, A.Continue)):
        ordinal = (labels.get(node.label)
                   if node.label is not None else None)
        return (type(node).__name__, ordinal)
    parts: list = [type(node).__name__]
    for _, value in node._fields():
        if isinstance(value, A.Node):
            parts.append(_canon(value, env, labels))
        elif isinstance(value, list):
            parts.append(tuple(
                _canon(v, env, labels) if isinstance(v, A.Node) else v
                for v in value))
        else:
            parts.append(value)
    return tuple(parts)


def canonical_key(proc: A.Procedure) -> tuple:
    """Rename-tolerant structural key of a *resolved* procedure."""
    env: dict[int, int] = {}
    for binding in proc.param_bindings.values():
        env[binding] = len(env)
    return ("Procedure", len(proc.params), _canon(proc.body, env, {}))


def proc_content_hash(proc: A.Procedure) -> str:
    """Full sha256 over the canonical key of ``proc``."""
    return _sha(canonical_key(proc))


# -- call graph ----------------------------------------------------------------

def call_graph(program: A.Program) -> dict[str, set[str]]:
    """Pre-inline call graph: a call is a ``PrimCall`` whose name
    matches a declared procedure (the same convention
    :mod:`repro.synl.inline` lowers)."""
    names = {p.name for p in program.procs}
    graph: dict[str, set[str]] = {}
    for proc in program.procs:
        graph[proc.name] = {
            n.name for n in proc.body.walk()
            if isinstance(n, A.PrimCall) and n.name in names}
    return graph


def callee_closure(graph: dict[str, set[str]], name: str) -> set[str]:
    """Transitive callees of ``name`` (excluding ``name`` itself unless
    it is reachable through a cycle)."""
    seen: set[str] = set()
    stack = list(graph.get(name, ()))
    while stack:
        callee = stack.pop()
        if callee in seen:
            continue
        seen.add(callee)
        stack.extend(graph.get(callee, ()))
    return seen


# -- interference footprints ---------------------------------------------------

def shared_footprint(proc: A.Procedure) -> frozenset[tuple[str, str]]:
    """Coarse shared-region footprint of a procedure: the global
    variables it names, the object fields it accesses, and an element
    marker for any array indexing.  Two procedures with disjoint
    footprints cannot change each other's stability judgements."""
    regions: set[tuple[str, str]] = set()
    for node in proc.body.walk():
        if isinstance(node, A.Var) and node.kind is A.VarKind.GLOBAL:
            regions.add(("global", node.name))
        elif isinstance(node, A.Field):
            regions.add(("field", node.name))
        elif isinstance(node, A.Index):
            regions.add(("elem", "[]"))
    return frozenset(regions)


# -- program-level digests -----------------------------------------------------

def decl_digest(program: A.Program) -> str:
    """Digest of the whole declaration surface a verdict can observe:
    consts, globals (with ``versioned`` flags and initializers),
    thread-locals, classes (fields + versioned fields), ``init`` /
    ``threadinit`` bodies, and the procedure name order (output
    ordering and call resolution depend on it)."""
    parts: list = [
        tuple(d.key() for d in program.consts),
        tuple(d.key() for d in program.globals),
        tuple(d.key() for d in program.threadlocals),
        tuple(d.key() for d in program.classes),
        program.init.key() if program.init is not None else None,
        (program.threadinit.key()
         if program.threadinit is not None else None),
        tuple(p.name for p in program.procs),
    ]
    return digest(("decls", tuple(parts)))


def options_digest(options) -> str:
    # repr, not bool(): coercion would collapse distinct non-bool
    # option values (e.g. a future int threshold) into one digest
    return digest(("options", tuple(sorted(
        (k, repr(v)) for k, v in vars(options).items()))))


def suppression_slice(source_text: str | None,
                      proc: A.Procedure) -> tuple:
    """The lint suppressions (``// lint: ignore[...]``) that fall inside
    ``proc``'s source span, keyed by line offset from the span start so
    edits elsewhere in the file don't shift them."""
    if not source_text:
        return ()
    from repro.analysis.lint.core import suppressions

    supp = suppressions(source_text)
    if not supp:
        return ()
    start, end = proc.span()
    if start is None or end is None:
        return ()
    return tuple(sorted(
        (line - start.line, tuple(sorted(rules)))
        for line, rules in supp.items()
        if start.line <= line <= end.line))


# -- per-procedure dependency digests ------------------------------------------

def effective_hashes(program: A.Program,
                     graph: dict[str, set[str]] | None = None,
                     ) -> dict[str, str]:
    """Per-procedure hash folding in the transitive callee closure:
    ``H(own content, sorted closure content hashes)``.  A callee edit
    flips every (transitive) caller's effective hash."""
    if graph is None:
        graph = call_graph(program)
    own = {p.name: proc_content_hash(p) for p in program.procs}
    effective: dict[str, str] = {}
    for proc in program.procs:
        closure = sorted(own[c] for c in callee_closure(graph, proc.name))
        effective[proc.name] = _sha((own[proc.name], tuple(closure)))
    return effective


def effective_footprints(program: A.Program,
                         graph: dict[str, set[str]] | None = None,
                         ) -> dict[str, frozenset[tuple[str, str]]]:
    """Per-procedure shared footprint with the transitive callee
    closure folded in.  Calls are inlined before analysis, so a caller
    inherits every shared region its callees touch — interference must
    be judged on this effective footprint, not the pre-inline body
    alone (a procedure that reaches global ``g`` only through a callee
    still interferes with every other procedure touching ``g``)."""
    if graph is None:
        graph = call_graph(program)
    own = {p.name: shared_footprint(p) for p in program.procs}
    effective: dict[str, frozenset[tuple[str, str]]] = {}
    for proc in program.procs:
        regions = set(own[proc.name])
        for callee in callee_closure(graph, proc.name):
            regions |= own.get(callee, frozenset())
        effective[proc.name] = frozenset(regions)
    return effective


def dependency_digests(program: A.Program, options,
                       source_text: str | None = None,
                       schema_version: int | None = None,
                       ) -> dict[str, str]:
    """The per-procedure summary keys (16 hex chars).

    Key material per procedure: the summary schema version, the
    procedure name, its effective content hash (callee closure folded
    in), the declaration digest, the options digest, its
    lint-suppression slice, and the sorted effective hashes of every
    *other* procedure whose effective shared footprint (callee closure
    folded in on both sides) overlaps its own."""
    if schema_version is None:
        from repro.analysis.summaries.store import SCHEMA_VERSION
        schema_version = SCHEMA_VERSION
    graph = call_graph(program)
    effective = effective_hashes(program, graph)
    footprints = effective_footprints(program, graph)
    decls = decl_digest(program)
    opts = options_digest(options)
    keys: dict[str, str] = {}
    for proc in program.procs:
        mine = footprints[proc.name]
        interference = tuple(sorted(
            effective[other.name] for other in program.procs
            if other.name != proc.name
            and footprints[other.name] & mine))
        keys[proc.name] = digest((
            "proc-summary", schema_version, proc.name,
            effective[proc.name], decls, opts,
            suppression_slice(source_text, proc), interference))
    return keys


def program_key(source_text: str, options,
                schema_version: int | None = None) -> str:
    """Key of the whole-program record: exact source text (lint
    findings carry absolute source positions) + options + schema."""
    if schema_version is None:
        from repro.analysis.summaries.store import SCHEMA_VERSION
        schema_version = SCHEMA_VERSION
    return digest(("program-summary", schema_version, source_text,
                   options_digest(options)))


def reletter_variant(lines: list[dict], index: int) -> list[dict]:
    """Re-letter a stored/exported variant's line labels to a
    per-procedure alphabet (variant ``index`` → prefix 'a'+index), so
    slices compare stably regardless of where the procedure sits in the
    program-wide prefix sequence of
    :func:`repro.obs.export.analysis_to_dict`."""
    prefix = string.ascii_lowercase[min(index, 25)]
    out = []
    for entry in lines:
        entry = dict(entry)
        label = entry.get("label", "")
        entry["label"] = prefix + label.lstrip(string.ascii_lowercase)
        out.append(entry)
    return out
