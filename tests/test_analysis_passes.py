"""Each §5.4 pass does its work once per run: whole-program facts are
computed once per expansion round or once per variant, not once per
query, and the results stay those of the per-query definitions."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import corpus
from repro.analysis import analyze_program
from repro.analysis import atomicity as AT
from repro.analysis import (actions, escape, inference, lint, purity,
                            uniqueness, variants)
from repro.analysis.inference import AtomicityChecker
from repro.analysis.report import variant_lines
from repro.cfg import builder
from repro.cfg.graph import NodeKind
from repro.synl import ast as A


def test_binding_kinds_once_per_expansion_round(monkeypatch):
    rounds = []
    program_walks = []
    real_kinds = purity.binding_kinds
    real_purity_of = AtomicityChecker._purity_of

    def counting_kinds(node):
        if isinstance(node, A.Program):
            program_walks.append(node)
        return real_kinds(node)

    def counting_purity_of(self, facts):
        rounds.append(facts.program)
        return real_purity_of(self, facts)

    monkeypatch.setattr(purity, "binding_kinds", counting_kinds)
    monkeypatch.setattr(inference, "binding_kinds", counting_kinds,
                        raising=False)
    monkeypatch.setattr(AtomicityChecker, "_purity_of", counting_purity_of)
    analyze_program(corpus.ALLOCATOR)
    assert len(rounds) >= 2  # the allocator's pure loops nest
    assert len(program_walks) <= len(rounds)


def _count_calls(monkeypatch, module, name: str) -> list:
    """Record the calls of ``module.name`` made through every ``repro``
    module that binds it."""
    real = getattr(module, name)
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") \
                and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_nfq_prime_derives_each_fact_once(monkeypatch):
    """Lint and expansion round 1 share the source program's facts (3
    procedures), and the classification reads the last round's (5
    variants): 8 CFGs and escape results, 2 uniqueness results."""
    cfgs = _count_calls(monkeypatch, builder, "build_cfg")
    escapes = _count_calls(monkeypatch, escape, "escape_analysis")
    unique = _count_calls(monkeypatch, uniqueness, "uniqueness_analysis")
    result = analyze_program(corpus.NFQ_PRIME)
    assert len(result.variant_set.variants) == 5
    assert (len(cfgs), len(escapes), len(unique)) == (8, 8, 2)


def test_allocator_builds_each_cfg_once(monkeypatch):
    cfgs = _count_calls(monkeypatch, builder, "build_cfg")
    analyze_program(corpus.ALLOCATOR)
    assert len(cfgs) == 45


def test_node_actions_are_extracted_once_per_node(monkeypatch):
    extracted = _count_calls(monkeypatch, actions, "_extract_actions")
    result = analyze_program(corpus.NFQ_PRIME)
    nodes = [node for (node,) in extracted]
    assert nodes and len(nodes) == len(set(nodes))
    ctx = next(iter(result.contexts.values()))
    node = ctx.cfg.nodes[0]
    assert actions.node_actions(node) is actions.node_actions(node)


def test_lint_and_the_first_expansion_round_read_one_fact_base(
        monkeypatch):
    linted, rounds = [], []
    real_lint = lint.lint_program
    real_purity_of = AtomicityChecker._purity_of

    def lint_program(source, **kwargs):
        linted.append(source)
        return real_lint(source, **kwargs)

    def purity_of(self, facts):
        rounds.append(facts)
        return real_purity_of(self, facts)

    monkeypatch.setattr(lint, "lint_program", lint_program)
    monkeypatch.setattr(AtomicityChecker, "_purity_of", purity_of)
    analyze_program(corpus.NFQ_PRIME)
    assert len(linted) == 1 and len(rounds) == 2
    assert linted[0] is rounds[0]


def test_a_round_that_changes_nothing_returns_its_input_program(
        monkeypatch):
    rounds = _count_calls(monkeypatch, variants, "make_variants")
    result = analyze_program(corpus.NFQ_PRIME)
    *_changed, (last, _cfgs, _purity) = rounds
    assert _changed and result.variant_set.program is last
    # with no pure loop the source program is its own variant program
    result = analyze_program(corpus.LOCKED_REGISTER)
    assert result.variant_set.program is result.program
    assert [v.proc for v in result.variant_set.variants] \
        == result.program.procs
    # dropping the statements after a return is a change, as before
    result = analyze_program("global G; proc P() { return 0; G = 1; }")
    (variant,) = result.variant_set.variants
    assert variant.proc.body.key() == A.Return(A.Const(0)).key()


def test_discipline_scans_sites_once_per_root(monkeypatch):
    """``_sc_only`` and ``_cas_only`` share one scan of the sites
    per distinct root.  Besides them only ``_conflicts`` (once per
    call) iterates ``_all_sites``, so the discipline scans are the
    ``_all_sites`` calls that ``_conflicts`` did not make."""
    calls = {"all_sites": 0, "conflicts": 0}
    roots = set()
    real = {name: getattr(AtomicityChecker, name)
            for name in ("_all_sites", "_conflicts", "_sc_only",
                         "_cas_only")}

    def all_sites(self):
        calls["all_sites"] += 1
        return real["_all_sites"](self)

    def conflicts(self, site):
        calls["conflicts"] += 1
        return real["_conflicts"](self, site)

    def sc_only(self, target):
        roots.add(target)
        return real["_sc_only"](self, target)

    def cas_only(self, target):
        roots.add(target)
        return real["_cas_only"](self, target)

    for name, fn in (("_all_sites", all_sites), ("_conflicts", conflicts),
                     ("_sc_only", sc_only),
                     ("_cas_only", cas_only)):
        monkeypatch.setattr(AtomicityChecker, name, fn)
    analyze_program(corpus.ALLOCATOR)
    assert roots
    assert calls["all_sites"] - calls["conflicts"] <= len(roots)


def _reference_stmt_atom(ctx, s):
    """The per-query definition of step 6: recurse over the subtree and
    compose each node's sites, scanning the variant's sites per node."""
    def node_atom(node):
        return AT.seq_all([x.atomicity for x in ctx.sites
                           if x.node is node])

    def first(kind, default):
        nodes = [n for n in ctx.stmt_nodes.get(s.nid, [])
                 if n.kind is kind]
        return node_atom(nodes[0]) if nodes else default

    if isinstance(s, A.Block):
        return AT.seq_all([_reference_stmt_atom(ctx, x) for x in s.stmts])
    if isinstance(s, A.LocalDecl):
        return AT.seq(first(NodeKind.BIND, AT.B),
                      _reference_stmt_atom(ctx, s.body))
    if isinstance(s, A.If):
        els = _reference_stmt_atom(ctx, s.els) if s.els is not None \
            else AT.B
        return AT.seq(first(NodeKind.BRANCH, AT.B),
                      AT.join(_reference_stmt_atom(ctx, s.then), els))
    if isinstance(s, A.Loop):
        return AT.iter_closure(_reference_stmt_atom(ctx, s.body))
    if isinstance(s, A.Synchronized):
        return AT.seq(AT.seq(first(NodeKind.ACQUIRE, AT.R),
                             _reference_stmt_atom(ctx, s.body)),
                      first(NodeKind.RELEASE, AT.L))
    return AT.seq_all([node_atom(n) for n in ctx.stmt_nodes.get(s.nid, [])])


@pytest.mark.parametrize("name", corpus.__all__)
def test_stmt_atoms_and_report_lines_match_the_per_query_definition(name):
    result = analyze_program(getattr(corpus, name))
    for verdict in result.verdicts.values():
        for report in verdict.variants:
            ctx = report.ctx
            body = report.variant.proc.body
            stmts = [s for s in body.walk() if isinstance(s, A.Stmt)]
            assert set(report.stmt_atoms) == {s.nid for s in stmts}
            for s in stmts:
                assert report.stmt_atoms[s.nid] \
                    == _reference_stmt_atom(ctx, s), (report.variant.name,
                                                      s)
            assert report.body_atomicity == report.stmt_atoms[body.nid]
            for line in variant_lines(report, "x"):
                s = line.stmt
                if isinstance(s, A.LocalDecl):
                    bind = [n for n in ctx.stmt_nodes[s.nid]
                            if n.kind is NodeKind.BIND]
                    want = AT.seq_all([x.atomicity for x in ctx.sites
                                       if x.node is bind[0]])
                else:
                    want = report.stmt_atoms[s.nid]
                assert line.atomicity == want, (report.variant.name,
                                                line.text)


def test_analyze_json_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Step-4 provenance ``counts`` are filled from a set; the document
    must not inherit its iteration order.  (Seeds 1, 3 and 4 give
    three different orders when it does; 1 and 2 happen to agree.)"""
    path = tmp_path / "nfq_prime.synl"
    path.write_text(corpus.NFQ_PRIME)
    src = str(Path(repro.__file__).resolve().parents[1])
    docs = []
    for seed in ("1", "3", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", "--json",
             str(path)],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        doc.pop("run_meta")
        docs.append(json.dumps(doc))
    assert '"counts"' in docs[0]
    assert docs[1:] == docs[:1] * 2
