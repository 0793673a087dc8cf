"""The observability layer: the profiler's span tree, the progress-rate
estimator, JSON schema round-trips, classification provenance, and the
CLI surfacing (--trace/--metrics/--profile/--json/--explain, exit
codes)."""

from __future__ import annotations

import json

import pytest

from repro import cli, corpus
from repro.analysis import analyze_program
from repro.analysis.report import (line_provenance, render_figure,
                                   variant_lines)
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer, observers
from repro.mc.observers import EwmaRate
from repro.obs import Profiler
from repro.obs.export import (ANALYSIS_SCHEMA, MC_SCHEMA, PROFILE_SCHEMA,
                              analysis_to_dict, mc_to_dict, validate)


# -- span tree ------------------------------------------------------------------

def test_span_nesting_and_timing_monotonicity():
    prof = Profiler()
    with prof.region("outer", key="v"):
        with prof.region("inner-1"):
            pass
        with prof.region("inner-2"):
            with prof.region("leaf"):
                pass
    assert len(prof.roots) == 1
    outer = prof.roots[0]
    assert [c.name for c in outer.children] == ["inner-1", "inner-2"]
    assert outer.children[1].children[0].name == "leaf"
    # every span is closed, timed monotonically, and contained in its
    # parent's interval
    for span in outer.walk():
        assert span.end is not None
        assert span.end >= span.start
    for child in outer.children:
        assert child.start >= outer.start
        assert child.end <= outer.end
    assert outer.duration >= sum(c.duration for c in outer.children)
    assert outer.attrs == {"key": "v"}


def test_span_render_and_dict():
    prof = Profiler()
    with prof.region("a"):
        with prof.region("b"):
            pass
    text = prof.render_spans()
    assert "a" in text and "  b" in text and "ms" in text
    (root,) = prof.spans()
    assert root["name"] == "a"
    assert root["children"][0]["name"] == "b"
    assert root["duration_s"] >= root["children"][0]["duration_s"]


def test_disabled_profiler_collects_no_spans():
    prof = Profiler(enabled=False)
    with prof.region("ghost"):
        pass
    assert prof.roots == []
    assert prof.render_spans() == ""


def test_hand_closed_region_closes_open_children():
    prof = Profiler()
    outer = prof.region("outer")
    prof.region("inner")          # never closed by hand
    outer.__exit__(None, None, None)
    with prof.region("next"):
        pass
    assert [s.name for s in prof.roots] == ["outer", "next"]
    assert all(s.end is not None for root in prof.roots
               for s in root.walk())
    assert prof.counters()["inner"]["calls"] == 1
    assert set(prof.to_dict()["folded"]) == {"outer", "outer;inner",
                                             "next"}


# -- progress rate ----------------------------------------------------------------

def test_ewma_first_update_baselines():
    rate = EwmaRate()
    assert rate.update(100, now=1.0) == 0.0    # nothing to rate yet
    assert rate.update(200, now=2.0) == pytest.approx(100.0)


def test_ewma_smooths_toward_instantaneous():
    rate = EwmaRate(alpha=0.5)
    rate.update(0, now=0.0)
    rate.update(100, now=1.0)                  # 100/s baseline
    smoothed = rate.update(400, now=2.0)       # inst 300/s
    assert 100.0 < smoothed < 300.0


def test_ewma_ignores_zero_dt_and_counter_resets():
    rate = EwmaRate()
    rate.update(0, now=0.0)
    first = rate.update(100, now=1.0)
    assert rate.update(200, now=1.0) == first  # dt=0 ignored
    # a counter reset (fresh search) re-baselines without a negative
    # or absurd rate
    assert rate.update(5, now=2.0) == first
    assert rate.update(105, now=3.0) > 0.0


def test_ewma_eta():
    rate = EwmaRate()
    assert rate.eta_s(100) is None             # no rate yet
    rate.update(0, now=0.0)
    rate.update(100, now=1.0)
    assert rate.eta_s(200) == pytest.approx(2.0)
    assert rate.eta_s(0) == 0.0
    assert rate.eta_s(-5) == 0.0


def test_ewma_eta_is_monotone_under_steady_rate():
    # deadline-style consumer: with a steady rate and a shrinking
    # remainder the ETA must walk monotonically down to zero, never
    # jitter upward (the Heartbeat observer prints it as eta_cap)
    rate = EwmaRate()
    rate.update(0, now=0.0)
    etas = []
    for i in range(1, 6):
        rate.update(i * 100, now=float(i))   # steady 100/s
        etas.append(rate.eta_s(500 - i * 100))
    assert etas == sorted(etas, reverse=True)
    assert etas[-1] == 0.0


def test_ewma_reset_mid_run_recovers():
    # a restarted search re-baselines: the stale rate survives the
    # reset beat, then converges onto the new regime
    rate = EwmaRate(alpha=0.5)
    rate.update(0, now=0.0)
    rate.update(1000, now=1.0)                # 1000/s
    before = rate.rate
    assert rate.update(10, now=2.0) == before  # reset only re-baselines
    for i in range(3, 30):
        rate.update(10 + (i - 2) * 100, now=float(i))  # now 100/s
    assert abs(rate.rate - 100.0) < 1.0


# -- result serialization round-trips ----------------------------------------------

def test_analysis_json_schema_roundtrip(nfq_prime_analysis):
    doc = json.loads(json.dumps(analysis_to_dict(nfq_prime_analysis)))
    assert validate(doc, ANALYSIS_SCHEMA) == []
    procs = {p["name"]: p for p in doc["procedures"]}
    assert procs["AddNode"]["atomic"]
    assert doc["all_atomic"] is False or doc["all_atomic"] is True
    # to_dict on the result object agrees with the module function
    assert nfq_prime_analysis.to_dict() == analysis_to_dict(
        nfq_prime_analysis)


def test_mc_json_schema_roundtrip():
    interp = Interp(corpus.NFQ_PRIME)
    specs = [ThreadSpec.of(("AddNode", 1)),
             ThreadSpec.of(("UpdateTail",))]
    result = Explorer(interp, specs, mode="full").run()
    doc = json.loads(json.dumps(mc_to_dict(result)))
    assert validate(doc, MC_SCHEMA) == []
    assert doc["states"] == result.states
    assert doc["states_per_s"] > 0
    assert doc["metrics"]["mc.cache_hits"] >= 0
    assert result.to_dict()["mode"] == "full"


def test_analysis_metrics_populated(nfq_prime_analysis):
    metrics = nfq_prime_analysis.metrics
    assert metrics["analysis.variants"] == 5
    assert metrics["analysis.sites"] > 0
    assert metrics["analysis.exclusions.thm5.3"] > 0
    assert metrics["analysis.movers.B"] > 0


def test_explorer_metrics_and_ample_ratio():
    interp = Interp(corpus.NFQ_PRIME)
    specs = [ThreadSpec.of(("AddNode", 1)),
             ThreadSpec.of(("DeqP",))]
    full = Explorer(interp, specs, mode="full").run()
    por = Explorer(interp, specs, mode="por").run()
    assert full.metrics["mc.states"] == full.states
    assert full.metrics["mc.max_depth"] > 1
    assert por.metrics["mc.ample_reduced"] > 0
    assert 0 < por.metrics["mc.ample_reduction_ratio"] <= 1
    assert por.metrics["mc.safety_cache_hits"] \
        + por.metrics["mc.safety_cache_misses"] > 0


def test_explorer_tracing():
    prof = Profiler()
    interp = Interp(corpus.NFQ_PRIME)
    result = Explorer(interp, [ThreadSpec.of(("UpdateTail",))],
                      mode="full",
                      observer=observers.Profile(prof)).run()
    assert result.states > 0
    (root,) = prof.roots
    assert root.name == "mc.run"
    assert [c.name for c in root.children] == ["mc.init", "mc.dfs"]


def test_analysis_tracing_covers_pipeline_phases():
    prof = Profiler()
    result = analyze_program(corpus.NFQ_PRIME, profiler=prof)
    assert result.verdicts
    names = {s.name for root in prof.roots for s in root.walk()}
    for phase in ("analysis.run", "analysis.variants",
                  "analysis.purity",
                  "analysis.lockset_windows", "analysis.collect_sites",
                  "analysis.classify", "analysis.propagate_verdicts"):
        assert phase in names, phase
    assert prof.spans()


def test_every_span_is_one_hotspot_call():
    # one timer: each region exit is both a span and one call on its
    # name, so the span tree and the hotspot table never disagree
    prof = Profiler()
    analyze_program(corpus.NFQ_PRIME, profiler=prof)
    spans: dict[str, int] = {}
    for root in prof.roots:
        for span in root.walk():
            spans[span.name] = spans.get(span.name, 0) + 1
    calls = {h["name"]: h["calls"] for h in prof.hotspots()}
    assert spans
    assert {name: calls[name] for name in spans} == spans


# -- provenance golden test (§6.1 queue, Thm 5.3) ----------------------------------

def _addnode_report(result):
    for verdict in result.verdicts.values():
        for report in verdict.variants:
            if report.variant.name == "AddNode":
                return report
    raise AssertionError("AddNode variant not found")


def test_explain_names_thm53_on_matching_ll_lines(nfq_prime_analysis):
    report = _addnode_report(nfq_prime_analysis)
    ll_lines = [line for line in variant_lines(report, "a")
                if "LL(" in line.text and "local" in line.text]
    assert ll_lines, "expected LL binding lines in AddNode"
    for line in ll_lines:
        chain = line_provenance(report, line)
        assert any(j.theorem == "5.3" and j.rule.startswith("matching")
                   for j in chain), line.text
    # rendered --explain output names the theorem on those lines
    text = render_figure(nfq_prime_analysis, explain=True)
    assert "matching LL" in text and "Thm 5.3" in text


def test_explain_names_thm54_on_cas_counter():
    result = analyze_program(corpus.CAS_COUNTER)
    justifications = [
        j
        for verdict in result.verdicts.values()
        for report in verdict.variants
        for line in variant_lines(report, "a")
        for j in line_provenance(report, line)]
    assert any(j.theorem == "5.4" and j.rule == "successful-CAS"
               for j in justifications)
    assert any(j.theorem == "5.4" and j.rule == "matching-CAS-read"
               for j in justifications)
    text = render_figure(result, explain=True)
    assert "Thm 5.4" in text


def test_step4_aggregates_tally_thm55(nfq_prime_analysis):
    # the §5.5 loop-condition argument contributes marks to the
    # adjacency-exclusion case splits on NFQ' (e.g. UpdateTail's
    # `local next = t.Next in` read)
    counts: dict = {}
    for verdict in nfq_prime_analysis.verdicts.values():
        for report in verdict.variants:
            for line in variant_lines(report, "a"):
                for j in line_provenance(report, line):
                    for theorem, n in j.counts.items():
                        counts[theorem] = counts.get(theorem, 0) + n
    assert counts.get("5.5", 0) > 0
    assert counts.get("5.3", 0) > 0
    text = render_figure(nfq_prime_analysis, explain=True)
    assert "Thm 5.5 x" in text


def test_provenance_rendering_shapes(nfq_prime_analysis):
    report = _addnode_report(nfq_prime_analysis)
    for line in variant_lines(report, "a"):
        for j in line_provenance(report, line):
            rendered = j.render()
            assert rendered  # never empty
            d = j.to_dict()
            assert d["step"] and d["rule"]
            if j.theorem is not None:
                assert f"Thm {j.theorem}" in rendered


# -- CLI surfacing ------------------------------------------------------------------

@pytest.fixture
def queue_file(tmp_path):
    path = tmp_path / "queue.synl"
    path.write_text(corpus.NFQ_PRIME)
    return str(path)


def test_cli_analyze_json(queue_file, capsys):
    assert cli.main(["analyze", "--json", queue_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert validate(doc, ANALYSIS_SCHEMA) == []
    assert {p["name"] for p in doc["procedures"]} == {
        "AddNode", "UpdateTail", "DeqP"}


def test_cli_analyze_explain_and_metrics(queue_file, capsys):
    assert cli.main(["analyze", "--explain", "--metrics",
                     queue_file]) == 0
    out = capsys.readouterr().out
    assert "Thm 5.3" in out
    assert "-- metrics --" in out
    assert "analysis.variants: 5" in out


def test_cli_analyze_trace_flag(queue_file, capsys):
    assert cli.main(["analyze", "--trace", queue_file]) == 0
    assert "analysis.classify" in capsys.readouterr().out
    assert cli.main(["analyze", queue_file]) == 0
    assert "analysis.classify" not in capsys.readouterr().out


def test_cli_blocks_json(queue_file, capsys):
    assert cli.main(["blocks", "--json", queue_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = {p["name"] for p in doc["procedures"]}
    assert "AddNode" in names
    first = doc["procedures"][0]["partitions"][0]
    assert first["n_blocks"] >= 1 and first["blocks"]


def test_cli_mc_metrics_and_json(queue_file, capsys):
    argv = ["mc", queue_file, "UpdateTail()", "--metrics"]
    assert cli.main(argv) == 0
    assert "mc.states_per_s" in capsys.readouterr().out
    assert cli.main(["mc", "--json", queue_file, "UpdateTail()"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert validate(doc, MC_SCHEMA) == []


def test_cli_mc_capped_exits_nonzero(queue_file, capsys):
    argv = ["mc", queue_file, "AddNode(1)", "AddNode(2)",
            "--max-states", "5"]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_CAPPED
    assert "CAPPED" in captured.out
    assert "state cap reached" in captured.err
    assert "--max-states" in captured.err


def test_cli_run_echoes_seed_on_success(queue_file, capsys):
    assert cli.main(["run", queue_file, "UpdateTail()",
                     "--seed", "11"]) == 0
    assert "(seed=11)" in capsys.readouterr().out


def test_cli_run_assertion_violation_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.synl"
    path.write_text("""
global X;
init { X = 0; }
proc P() {
  X = 1;
  assert(X == 2);
}
""")
    assert cli.main(["run", str(path), "P()", "--seed", "5"]) == 1
    out = capsys.readouterr().out
    assert "assertion violation" in out
    assert "(seed=5)" in out


def test_cli_variants_profile_carries_folded_stacks(tmp_path, capsys):
    src = tmp_path / "aba.synl"
    src.write_text(corpus.ABA_STACK)
    assert cli.main(["variants", "--json", "--profile", str(src)]) == 0
    folded = json.loads(capsys.readouterr().out)["profile"]["folded"]
    assert "analysis.run;analysis.variants" in folded


def test_cli_run_profile_prints_hotspots(tmp_path, capsys):
    src = tmp_path / "aba.synl"
    src.write_text(corpus.ABA_STACK)
    assert cli.main(["run", "--profile", str(src), "PopCheck()",
                     "Recycle()"]) == 0
    out = capsys.readouterr().out
    assert "-- profile (ranked hotspots) --" in out
    assert "run.execute" in out and "run.parse_resolve" in out


def test_cli_run_trace_survives_violation(tmp_path, capsys):
    src = tmp_path / "sem.synl"
    src.write_text(corpus.BROKEN_SEMAPHORE)
    assert cli.main(["run", "--trace", "--metrics", "--seed", "3",
                     str(src), "DownBad()", "DownBad()"]) == 1
    out = capsys.readouterr().out
    assert "assertion violation" in out
    trace = out.split("-- trace --", 1)[1]
    assert "run.execute" in trace and "seed=3" in trace


def test_cli_mc_trace_alone_leaves_explorer_unwrapped(tmp_path, capsys,
                                                     monkeypatch):
    src = tmp_path / "aba.synl"
    src.write_text(corpus.ABA_STACK)
    wrapped = []
    real = observers._timed

    def spy(fn, acc, work):
        wrapped.append(fn.__name__)
        return real(fn, acc, work)

    monkeypatch.setattr(observers, "_timed", spy)
    argv = ["mc", str(src), "PopCheck()", "Recycle()", "--mode", "por"]
    assert cli.main(argv + ["--trace"]) == 0
    trace = capsys.readouterr().out.split("-- trace --", 1)[1]
    assert "mc.run" in trace and "mc.init" in trace \
        and "mc.dfs" in trace
    assert wrapped == []
    # every profile view still times the explorer's methods
    for flags in (["--profile"], ["--trace", "--profile"],
                  ["--json", "--profile"]):
        assert cli.main(argv + flags) == 0
        assert wrapped == ["_successors", "_key", "_alone"]
        wrapped.clear()
    capsys.readouterr()


def test_cli_experiments_rejects_obs_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiments", "figure3", "--profile"])
    assert exc.value.code == 2
    assert "--profile" in capsys.readouterr().err


#: each obs command's argv, and the key its --json document keeps the
#: span tree under (``run`` and ``mc`` use ``trace`` for the path)
_OBS_COMMANDS = [
    (["analyze", "{src}"], "trace"),
    (["blocks", "{src}"], "trace"),
    (["variants", "{src}"], "trace"),
    (["run", "{src}", "PopCheck()", "Recycle()"], "spans"),
    (["mc", "{src}", "PopCheck()", "Recycle()"], "spans"),
    (["lint", "{src}"], "trace"),
]


@pytest.fixture
def aba_file(tmp_path):
    path = tmp_path / "aba.synl"
    path.write_text(corpus.ABA_STACK)
    return str(path)


@pytest.mark.parametrize("argv, spans", _OBS_COMMANDS,
                         ids=[a[0] for a, _ in _OBS_COMMANDS])
def test_obs_command_json_carries_trace_and_profile(aba_file, capsys,
                                                    argv, spans):
    argv = [a.format(src=aba_file) for a in argv]
    cli.main(argv + ["--json", "--trace", "--profile"])
    doc = json.loads(capsys.readouterr().out)
    assert doc[spans]
    assert validate(doc["profile"], PROFILE_SCHEMA) == []
    assert doc["profile"]["hotspots"]
    cli.main(argv + ["--json"])
    bare = json.loads(capsys.readouterr().out)
    assert spans not in bare and "profile" not in bare


@pytest.mark.parametrize("flag", ["--events-out", "--trace-out",
                                  "--profile-out", "--graph-out"])
@pytest.mark.parametrize("argv", [a for a, _ in _OBS_COMMANDS],
                         ids=[a[0] for a, _ in _OBS_COMMANDS])
def test_obs_command_rejects_removed_file_flags(aba_file, tmp_path,
                                                capsys, argv, flag):
    argv = [a.format(src=aba_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [flag, str(tmp_path / "out")])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- the centralized schema-version registry ---------------------------------------

def test_schema_registry_matches_live_constants():
    from repro.obs import schemas

    registry = schemas.registry()
    assert set(registry) == {"profile", "lint", "cex", "heatmap",
                             "perfdiff"}
    assert all(isinstance(v, int) and v >= 1
               for v in registry.values())
    # every emitter imports its constant from the registry, so the
    # live tree must report zero drift
    assert schemas.check_registry() == []


def test_schema_registry_backs_run_meta():
    from repro.obs import schemas
    from repro.obs.export import run_meta

    assert run_meta()["schema_versions"] == schemas.registry()


def test_run_meta_carries_argv(monkeypatch):
    from repro.obs.export import RUN_META_SCHEMA, run_meta, validate

    monkeypatch.setattr("sys.argv", ["repro", "analyze", "x.synl"])
    meta = run_meta()
    assert meta["argv"] == ["analyze", "x.synl"]
    assert "run_id" not in meta
    assert validate(meta, RUN_META_SCHEMA) == []
