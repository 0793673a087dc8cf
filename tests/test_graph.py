"""State-graph capture: exact count reconciliation with the explorer,
deterministic artifacts across runs (the ``graph diff`` canary), POR
pruned-edge accounting, bounded emission, and the CLI surface."""

from __future__ import annotations

import json

import pytest

from repro import corpus
from repro.cli import main
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer
from repro.obs import graph as graph_mod
from repro.obs.graph import (GraphWriter, _Thinner, diff_graphs,
                             from_records, graph_stats, key_id,
                             node_cap_from_env, read_graph,
                             render_diff, render_stats, stable_uid_map,
                             to_dot)

GH_SPECS = [ThreadSpec.of(("Apply", 1)), ThreadSpec.of(("Apply", 2))]


def _capture(tmp_path, name, mode, *, record_pruned=False,
             node_cap=None, source=corpus.GH_PROGRAM1, specs=None):
    interp = Interp(source)
    writer = GraphWriter(tmp_path / name, mode=mode,
                         threads=len(specs or GH_SPECS),
                         node_cap=node_cap,
                         record_pruned=record_pruned,
                         uid_map=stable_uid_map(interp))
    try:
        result = Explorer(interp, specs or GH_SPECS, mode=mode,
                          observer=writer).run()
    finally:
        writer.close()
    return result, read_graph(tmp_path / name)


# -- ids and uid stability ---------------------------------------------------------

def test_key_id_is_deterministic_16_hex():
    key = ((("g", 1),), ((0, (), None, (), ()),))
    a, b = key_id(key), key_id(key)
    assert a == b
    assert len(a) == 16
    assert int(a, 16) >= 0
    assert key_id(key) != key_id((key,))


def test_stable_uid_map_is_build_independent():
    # two separate builds of the same program shift raw uids, but the
    # stable map must send corresponding nodes to the same index
    m1 = stable_uid_map(Interp(corpus.GH_PROGRAM1))
    m2 = stable_uid_map(Interp(corpus.GH_PROGRAM1))
    assert sorted(m1.values()) == sorted(m2.values())
    assert sorted(m1.values()) == list(range(len(m1)))


def test_stable_uid_map_skips_none():
    assert stable_uid_map(None) == {}


# -- bounded emission --------------------------------------------------------------

def test_thinner_admits_first_cap_verbatim():
    t = _Thinner(cap=5)
    assert all(t.admit() for _ in range(5))
    assert not t.truncated
    for _ in range(100):
        t.admit()
    assert t.truncated
    assert t.written < t.count == 105


def test_thinner_is_deterministic():
    a, b = _Thinner(cap=3, seed=7), _Thinner(cap=3, seed=7)
    assert [a.admit() for _ in range(200)] \
        == [b.admit() for _ in range(200)]


def test_node_cap_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_GRAPH_NODE_CAP", raising=False)
    assert node_cap_from_env() == graph_mod.DEFAULT_NODE_CAP
    monkeypatch.setenv("REPRO_GRAPH_NODE_CAP", "1234")
    assert node_cap_from_env() == 1234
    monkeypatch.setenv("REPRO_GRAPH_NODE_CAP", "bogus")
    assert node_cap_from_env() == graph_mod.DEFAULT_NODE_CAP
    monkeypatch.setenv("REPRO_GRAPH_NODE_CAP", "-5")
    assert node_cap_from_env() == graph_mod.DEFAULT_NODE_CAP


# -- reconciliation with MCResult --------------------------------------------------

def test_capture_counts_equal_mcresult_exactly(tmp_path):
    result, doc = _capture(tmp_path, "full.jsonl", "full")
    summary = doc["summary"]
    assert summary["nodes"] == result.states
    assert summary["edges"] == result.transitions
    assert len(doc["nodes"]) == result.states        # below cap
    assert len(doc["edges"]) == result.transitions
    assert not summary["truncated"]
    # exactly the non-dup edges lead to new nodes
    assert sum(not e["dup"] for e in doc["edges"]) \
        == result.states - 1
    # exactly one init node, at depth 1
    inits = [n for n in doc["nodes"].values() if n.get("init")]
    assert len(inits) == 1 and inits[0]["depth"] == 1


def test_por_pruned_reconciles_per_node_with_full_run(tmp_path):
    """At every state POR expanded, kept + pruned out-degree must
    equal the full run's out-degree at that same state — the ample-set
    bookkeeping cannot lose or invent transitions."""
    _, full = _capture(tmp_path, "full.jsonl", "full")
    result, por = _capture(tmp_path, "por.jsonl", "por",
                           record_pruned=True)
    assert por["summary"]["pruned"] == len(por["pruned"]) > 0
    # POR explores a subset of the full graph
    assert set(por["nodes"]) <= set(full["nodes"])
    full_out: dict[str, int] = {}
    for e in full["edges"]:
        full_out[e["src"]] = full_out.get(e["src"], 0) + 1
    por_out: dict[str, int] = {}
    for e in por["edges"]:
        por_out[e["src"]] = por_out.get(e["src"], 0) + 1
    for e in por["pruned"]:
        por_out[e["src"]] = por_out.get(e["src"], 0) + 1
    mismatches = [gid for gid in por_out
                  if por_out[gid] != full_out.get(gid)]
    assert mismatches == []


def test_truncated_capture_is_deterministic(tmp_path):
    ra, doc_a = _capture(tmp_path, "a.jsonl", "full", node_cap=50)
    rb, doc_b = _capture(tmp_path, "b.jsonl", "full", node_cap=50)
    assert doc_a["summary"]["truncated"]
    assert doc_a["summary"]["nodes"] == ra.states == rb.states
    assert (tmp_path / "a.jsonl").read_text() \
        == (tmp_path / "b.jsonl").read_text()
    assert len(doc_a["nodes"]) < ra.states


def test_mover_tags_ride_edges(tmp_path):
    from repro.analysis import analyze_program
    from repro.obs import heatmap
    interp = Interp(corpus.GH_PROGRAM1)
    analysis = analyze_program(corpus.GH_PROGRAM1)
    annotations = heatmap.uid_annotations(interp, analysis)
    assert annotations
    writer = GraphWriter(tmp_path / "g.jsonl", mode="full", threads=2,
                         mover_of=heatmap.mover_fn(annotations),
                         uid_map=stable_uid_map(interp))
    try:
        Explorer(interp, GH_SPECS, mode="full", observer=writer).run()
    finally:
        writer.close()
    doc = read_graph(tmp_path / "g.jsonl")
    movers = {e["mover"] for e in doc["edges"]}
    assert movers & {"R", "L", "B", "N"}


# -- reading and analytics ---------------------------------------------------------

def test_read_graph_rejects_non_capture(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "node", "id": "x", "depth": 1}\n')
    with pytest.raises(ValueError, match="not a graph capture"):
        read_graph(bad)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty graph capture"):
        read_graph(empty)


def test_read_graph_rejects_unknown_version_and_kind():
    with pytest.raises(ValueError, match="unsupported graph schema"):
        from_records([{"kind": "graph.header", "v": 999}])
    with pytest.raises(ValueError, match="unknown record kind"):
        from_records([{"kind": "graph.header",
                       "v": graph_mod.SCHEMA_VERSION},
                      {"kind": "wat"}])


def test_graph_stats_and_render(tmp_path):
    result, doc = _capture(tmp_path, "g.jsonl", "full")
    stats = graph_stats(doc)
    assert stats["nodes"] == result.states
    assert stats["edges"] == result.transitions
    assert stats["max_depth"] >= 1
    assert sum(n for _, n in stats["depth_layers"]) == result.states
    assert stats["branching"]["max"] >= stats["branching"]["min"] >= 0
    assert stats["terminal"] >= 1
    text = render_stats(stats)
    assert f"{stats['nodes']:,}" in text
    assert "depth layers" in text


def test_to_dot_caps_and_renders():
    doc = from_records([
        {"kind": "graph.header", "v": graph_mod.SCHEMA_VERSION,
         "mode": "full", "threads": 1, "node_cap": 10,
         "por_pruned": True},
        {"kind": "node", "id": "aa", "depth": 1, "init": True},
        {"kind": "node", "id": "bb", "depth": 2, "q": True},
        {"kind": "edge", "src": "aa", "dst": "bb", "tid": 0, "uid": 3,
         "op": "stmt", "mover": "R", "dup": False},
        {"kind": "pruned", "src": "aa", "dst": "bb", "tid": 1,
         "uid": 4, "op": "stmt"},
    ])
    dot = to_dot(doc)
    assert "digraph statespace" in dot
    assert "doublecircle" in dot          # init node
    assert "dotted" in dot                # pruned edge
    assert "#2b8cbe" in dot               # R-mover color
    with pytest.raises(ValueError, match="--max-nodes"):
        to_dot(doc, max_nodes=1)


# -- diffing -----------------------------------------------------------------------

def test_diff_identical_runs(tmp_path):
    _, a = _capture(tmp_path, "a.jsonl", "full")
    _, b = _capture(tmp_path, "b.jsonl", "full")
    drift = diff_graphs(a, b)
    assert drift["identical"]
    assert render_diff(drift) == "graphs identical"


def test_diff_reports_readable_drift(tmp_path):
    _, full = _capture(tmp_path, "full.jsonl", "full")
    _, por = _capture(tmp_path, "por.jsonl", "por")
    drift = diff_graphs(full, por)
    assert not drift["identical"]
    assert drift["nodes_only_a"] > 0      # full visits more states
    assert drift["nodes_only_b"] == 0     # por is a strict subset
    text = render_diff(drift, "full", "por")
    assert "graph drift:" in text
    assert "full" in text and "por" in text
    assert "sample nodes only in full" in text


# -- CLI surface -------------------------------------------------------------------

def _mc_with_graph(tmp_path, name, *extra):
    prog = tmp_path / "p.synl"
    prog.write_text(corpus.GH_PROGRAM1)
    out = tmp_path / name
    code = main(["mc", str(prog), "Apply(1)", "Apply(2)",
                 "--mode", "por", "--graph-out", str(out), *extra])
    assert code == 0
    return out


def test_cli_graph_roundtrip(tmp_path, capsys):
    a = _mc_with_graph(tmp_path, "a.jsonl")
    b = _mc_with_graph(tmp_path, "b.jsonl", "--graph-por-pruned")
    capsys.readouterr()

    assert main(["graph", "stats", str(a)]) == 0
    stats_text = capsys.readouterr().out
    assert "nodes" in stats_text and "depth layers" in stats_text

    assert main(["graph", "stats", str(a), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["nodes"] > 0 and stats["pruned"] == 0

    assert main(["graph", "stats", str(b), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pruned"] > 0

    # identical seeded explorations: zero drift, exit 0 (CI canary);
    # the pruned capture adds records, so diff against it is drift
    c = _mc_with_graph(tmp_path, "c.jsonl")
    capsys.readouterr()
    assert main(["graph", "diff", str(a), str(c)]) == 0
    assert "identical" in capsys.readouterr().out
    assert main(["graph", "diff", str(a), str(b)]) == 1
    assert "drift" in capsys.readouterr().out

    dot_path = tmp_path / "g.dot"
    assert main(["graph", "dot", str(a), "--max-nodes", "100000",
                 "-o", str(dot_path)]) == 0
    assert dot_path.read_text().startswith("digraph statespace")


def test_cli_graph_errors(tmp_path, capsys):
    bogus = tmp_path / "events.jsonl"
    bogus.write_text('{"v": 1, "seq": 0, "t": 0.0, "kind": "mc.pop", '
                     '"depth": 1}\n')
    assert main(["graph", "stats", str(bogus)]) == 2
    assert main(["graph", "dot", str(bogus)]) == 2
    assert main(["graph", "diff", str(bogus), str(bogus)]) == 2


@pytest.mark.parametrize("cut", ["torn", "unclosed"])
def test_cli_graph_incomplete_capture_exits_2(tmp_path, capsys, cut):
    # a killed `mc --graph-out` run leaves no summary record, and
    # possibly a torn last line: stats and diff refuse it
    whole = _mc_with_graph(tmp_path, "whole.jsonl")
    lines = whole.read_text().splitlines(keepends=True)
    assert json.loads(lines[-1])["kind"] == "graph.summary"
    partial = tmp_path / "partial.jsonl"
    partial.write_text("".join(lines[:-1])
                       + ('{"kind": "no' if cut == "torn" else ""))
    capsys.readouterr()
    assert main(["graph", "stats", str(partial)]) == 2
    assert main(["graph", "diff", str(whole), str(partial)]) == 2
    err = capsys.readouterr().err
    assert "incomplete graph capture" in err and "Traceback" not in err
