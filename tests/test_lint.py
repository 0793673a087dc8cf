"""The discipline linter: rule units, spans, suppression, severity
ordering, JSON schemas, and observability hooks (docs/LINT.md)."""

import pytest

from repro import corpus
from repro.analysis import analyze_program
from repro.analysis.lint import (LINT_VERSION, RULES, Severity,
                                 lint_counts, lint_program)
from repro.obs.export import (LINT_REPORT_SCHEMA, LINT_SCHEMA,
                              validate)


def rules_of(result):
    return {d.rule for d in result.findings}


# -- registry sanity -----------------------------------------------------------

EXPECTED_RULES = {
    "llsc.multi-ll": Severity.ERROR,
    "llsc.no-ll": Severity.WARNING,
    "llsc.ll-gap": Severity.WARNING,
    "llsc.nested-ll": Severity.ERROR,
    "llsc.plain-read": Severity.WARNING,
    "llsc.plain-write": Severity.ERROR,
    "aba.unversioned-cas": Severity.ERROR,
    "aba.cas-no-read": Severity.INFO,
    "aba.multi-read": Severity.WARNING,
    "aba.plain-write-versioned": Severity.ERROR,
    "unique.escape": Severity.WARNING,
    "unique.broken-swap": Severity.WARNING,
    "race.unlocked": Severity.ERROR,
}


def test_registry_declares_every_documented_rule():
    assert {r: RULES[r].severity for r in RULES} == EXPECTED_RULES
    for rule in RULES.values():
        assert rule.summary
        assert rule.theorem


# -- llsc.* --------------------------------------------------------------------

def test_multi_ll_and_nested_ll_on_double_ll_down():
    result = lint_program(corpus.DOUBLE_LL_DOWN)
    assert rules_of(result) == {"llsc.multi-ll", "llsc.nested-ll"}
    assert result.errors == 2


def test_sc_without_ll_warns_no_ll():
    result = lint_program("""
        global G;
        proc P(v) { SC(G, v); }
    """)
    assert rules_of(result) == {"llsc.no-ll"}
    assert result.errors == 0 and result.warnings == 1


def test_ll_gap_when_a_path_skips_the_ll():
    result = lint_program("""
        global G;
        proc P(v) {
          if (v == 0) {
            local t = LL(G) in { skip; }
          }
          SC(G, v);
        }
    """)
    assert "llsc.ll-gap" in rules_of(result)


def test_retry_loop_is_clean():
    result = lint_program(corpus.SEMAPHORE)
    assert result.findings == []


def test_plain_write_to_llsc_region_is_error():
    result = lint_program("""
        global G;
        proc P(v) {
          loop {
            local t = LL(G) in {
              if (SC(G, t + 1)) { return; }
            }
          }
        }
        proc Reset() { G = 0; }
    """)
    assert "llsc.plain-write" in rules_of(result)
    (diag,) = [d for d in result.findings
               if d.rule == "llsc.plain-write"]
    assert diag.proc == "Reset"
    assert diag.severity is Severity.ERROR


def test_plain_read_in_reserving_proc_warns():
    result = lint_program(corpus.BROKEN_SEMAPHORE)
    assert rules_of(result) == {"llsc.plain-read"}
    (diag,) = result.findings
    assert diag.proc == "DownBad"
    # the stale read is `local tmp = Sem in {` on source line 7
    assert "Sem" in diag.message
    assert diag.span.line > 0 and diag.span.col > 0


def test_read_only_consumer_proc_is_exempt():
    result = lint_program("""
        global G;
        proc P(v) {
          loop {
            local t = LL(G) in {
              if (SC(G, t + 1)) { return; }
            }
          }
        }
        proc Peek() { local t = G in { return t; } }
    """)
    assert "llsc.plain-read" not in rules_of(result)


# -- aba.* ---------------------------------------------------------------------

def test_unversioned_cas_with_matching_read_is_error():
    result = lint_program("""
        global C;
        proc Inc() {
          loop {
            local c = C in {
              if (CAS(C, c, c + 1)) { return; }
            }
          }
        }
    """)
    assert "aba.unversioned-cas" in rules_of(result)
    (diag,) = [d for d in result.findings
               if d.rule == "aba.unversioned-cas"]
    assert "versioned C" in (diag.fix or "")


def test_versioned_cas_is_clean():
    result = lint_program(corpus.CAS_COUNTER)
    assert result.errors == 0


def test_cas_without_matching_read_is_info_only():
    result = lint_program("""
        global versioned C;
        proc Claim() { if (CAS(C, 0, 1)) { return 1; } return 0; }
    """)
    assert rules_of(result) == {"aba.cas-no-read"}
    assert result.errors == 0 and result.warnings == 0
    assert result.infos == 1


def test_cas_with_two_matching_reads_warns():
    result = lint_program("""
        global versioned C;
        proc P(v) {
          local c = 0 in {
            if (v == 0) { c = C; } else { c = C; }
            if (CAS(C, c, c + 1)) { return; }
          }
        }
    """)
    assert "aba.multi-read" in rules_of(result)


def test_plain_write_to_versioned_region_is_error():
    result = lint_program("""
        global versioned C;
        proc Inc() {
          loop {
            local c = C in {
              if (CAS(C, c, c + 1)) { return; }
            }
          }
        }
        proc Reset() { C = 0; }
    """)
    assert "aba.plain-write-versioned" in rules_of(result)


# -- race.* --------------------------------------------------------------------

def test_unlocked_shared_write_races():
    result = lint_program("""
        global V;
        proc Store(x) { V = x; }
        proc Load() { local t = V in { return t; } }
    """)
    assert rules_of(result) == {"race.unlocked"}
    (diag,) = result.findings
    assert diag.proc == "Store"
    assert "Store" in diag.message and "Load" in diag.message


def test_common_lock_silences_race():
    result = lint_program(corpus.LOCKED_REGISTER)
    assert result.findings == []


def test_read_only_region_does_not_race():
    result = lint_program("""
        global V;
        proc Load() { local t = V in { return t; } }
        proc Load2() { local t = V in { return t; } }
    """)
    assert result.findings == []


# -- spans and ordering --------------------------------------------------------

def test_spans_point_into_the_source():
    src = corpus.DOUBLE_LL_DOWN
    result = lint_program(src)
    lines = src.splitlines()
    for diag in result.findings:
        assert 1 <= diag.span.line <= len(lines)
        text = lines[diag.span.line - 1]
        assert "LL(Sem)" in text or "SC(Sem" in text


def test_findings_sorted_errors_first_then_position():
    result = lint_program(corpus.ABA_STACK)
    sevs = [int(d.severity) for d in result.findings]
    assert sevs == sorted(sevs, reverse=True)


# -- suppression ---------------------------------------------------------------

SUPPRESSIBLE = """
global G;
proc P(v) { SC(G, v); }
"""


def test_suppress_exact_rule_on_previous_line():
    src = SUPPRESSIBLE.replace(
        "proc P(v) { SC(G, v); }",
        "// lint: ignore[llsc.no-ll]\nproc P(v) { SC(G, v); }")
    result = lint_program(src)
    assert result.findings == []
    assert [d.rule for d in result.suppressed] == ["llsc.no-ll"]


def test_suppress_family_prefix_and_star():
    for entry in ("llsc", "*"):
        src = SUPPRESSIBLE.replace(
            "proc P(v) { SC(G, v); }",
            f"proc P(v) {{ SC(G, v); }} // lint: ignore[{entry}]")
        result = lint_program(src)
        assert result.findings == []
        assert len(result.suppressed) == 1


def test_unrelated_suppression_keeps_finding():
    src = SUPPRESSIBLE.replace(
        "proc P(v) { SC(G, v); }",
        "// lint: ignore[race.unlocked]\nproc P(v) { SC(G, v); }")
    result = lint_program(src)
    assert [d.rule for d in result.findings] == ["llsc.no-ll"]
    assert result.suppressed == []


def test_suppression_demo_example_file():
    with open("examples/synl/suppressed_semaphore.synl") as fh:
        src = fh.read()
    result = lint_program(src, label="suppressed_semaphore")
    assert result.findings == []
    assert [d.rule for d in result.suppressed] == ["llsc.plain-read"]


# -- rules filter --------------------------------------------------------------

def test_rules_filter_restricts_output():
    result = lint_program(corpus.ABA_STACK, rules=["race.unlocked"])
    assert rules_of(result) == {"race.unlocked"}
    result = lint_program(corpus.ABA_STACK, rules=["aba"])
    assert rules_of(result) <= {"aba.unversioned-cas",
                                "aba.cas-no-read", "aba.multi-read",
                                "aba.plain-write-versioned"}


# -- output formats ------------------------------------------------------------

def test_render_mentions_rule_and_fix():
    result = lint_program(corpus.ABA_STACK, label="aba")
    text = result.render()
    assert "error[aba.unversioned-cas]" in text
    assert "fix: declare the global as `global versioned Top;`" in text
    assert text.endswith("aba: 5 error(s), 0 warning(s), 1 info(s)")


def test_to_dict_validates_against_lint_schema():
    result = lint_program(corpus.ABA_STACK, label="aba")
    doc = result.to_dict()
    assert validate(doc, LINT_SCHEMA) == []
    assert doc["v"] == LINT_VERSION
    assert doc["summary"] == {"errors": 5, "warnings": 0, "infos": 1,
                              "suppressed": 0}
    report = {"v": 1, "targets": [doc]}
    assert validate(report, LINT_REPORT_SCHEMA) == []


def test_report_schema_rejects_bad_severity():
    result = lint_program(corpus.ABA_STACK, label="aba")
    doc = result.to_dict()
    doc["findings"][0]["severity"] = "fatal"
    assert validate(doc, LINT_SCHEMA) != []


# -- CLI surface ---------------------------------------------------------------

def test_cli_lint_json_and_exit_codes(tmp_path, capsys):
    import json

    from repro import cli

    clean = tmp_path / "clean.synl"
    clean.write_text(corpus.SEMAPHORE)
    bad = tmp_path / "bad.synl"
    bad.write_text(corpus.DOUBLE_LL_DOWN)

    assert cli.main(["lint", str(clean)]) == 0
    capsys.readouterr()
    assert cli.main(["lint", "--json", str(bad)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert validate(doc, LINT_REPORT_SCHEMA) == []
    (target,) = doc["targets"]
    assert target["summary"]["errors"] == 2


def test_cli_lint_manifest_gate(capsys):
    from repro import cli

    assert cli.main(["lint", "--corpus",
                     "examples/synl/aba_stack.synl",
                     "examples/synl/double_ll_down.synl",
                     "examples/synl/suppressed_semaphore.synl",
                     "--manifest", "tests/lint_manifest.json"]) == 0
    out = capsys.readouterr().out
    assert "manifest ok: 22 target(s)" in out


def test_cli_lint_manifest_reports_deviation(tmp_path, capsys):
    import json

    from repro import cli

    manifest = {"v": 1, "expected": {"DOUBLE_LL_DOWN": {},
                                     "GHOST": {"race.unlocked": 1}}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    bad = tmp_path / "bad.synl"
    bad.write_text(corpus.DOUBLE_LL_DOWN)
    code = cli.main(["lint", str(bad), "--manifest", str(path)])
    assert code == 1
    out = capsys.readouterr().out
    # unexpected findings, lost expected findings, and unlinted
    # manifest entries all surface
    assert f"MISMATCH {bad}" in out
    assert "GHOST: listed in manifest but not linted" in out


# -- observability hooks -------------------------------------------------------

def test_metrics_counters():
    counts = lint_counts([lint_program(corpus.ABA_STACK)])
    assert counts["lint.runs"] == 1
    assert counts["lint.findings.error"] == 5
    assert counts["lint.findings.info"] == 1
    assert counts["lint.findings.suppressed"] == 0
    assert counts["lint.rule.aba.unversioned-cas"] == 3
    assert list(counts) == sorted(counts)
    # counts over several runs add up per key
    twice = lint_counts([lint_program(corpus.ABA_STACK)] * 2)
    assert twice == {k: 2 * v for k, v in counts.items()}


@pytest.mark.parametrize("name", corpus.__all__)
def test_analysis_lint_counts_match_lint_program(name):
    source = getattr(corpus, name)
    metrics = analyze_program(source).metrics
    lint_keys = {k: v for k, v in metrics.items()
                 if k.startswith("lint.")}
    assert lint_keys == lint_counts([lint_program(source)])


def test_lint_result_counts_findings():
    result = lint_program(corpus.DOUBLE_LL_DOWN, label="dll")
    by_rule = result.counts_by_rule()
    assert set(by_rule) == {"llsc.multi-ll", "llsc.nested-ll"}
    assert result.target == "dll" and result.errors == 2
    assert sum(by_rule.values()) == len(result.findings) \
        == result.errors + result.warnings + result.infos


def test_suppressions_apply_in_every_command(capsys):
    """Every command that analyzes a file gives the analysis the file's
    text, so its embedded lint pass honours the same suppressions."""
    import argparse
    import json

    from repro import cli

    path = "examples/synl/suppressed_semaphore.synl"
    counts = {}
    for command in ("analyze", "blocks", "variants"):
        cli.main([command, path, "--json"])
        doc = json.loads(capsys.readouterr().out)
        counts[command] = {k: v for k, v in doc["metrics"].items()
                           if k.startswith("lint.")}
    # the analysis that annotates `run`/`mc` output
    counts["mc"] = {k: v for k, v in cli._analysis(
        argparse.Namespace(file=path)).metrics.items()
        if k.startswith("lint.")}
    assert counts["analyze"]["lint.findings.suppressed"] == 1
    assert counts["analyze"]["lint.findings.warning"] == 0
    assert counts["blocks"] == counts["variants"] == counts["mc"] \
        == counts["analyze"]
