"""Experiment drivers reproduce the paper's tables/figures (scaled-down
parameters where exploration cost matters; the benchmarks run the full
configurations)."""

import pytest

from repro.experiments import (ablations, crossval, figure3, figure4,
                               figure567, section63, section64, table2)


def test_figure3_matches_paper():
    result = figure3.run()
    assert result.matches_paper
    assert set(figure3.PAPER_LABELS) <= set(result.labels)


def test_figure3_render_contains_fig3_lines():
    result = figure3.run()
    assert "TRUE(SC(t.Next, node));" in result.rendered
    assert "TRUE(h != LL(Tail));" in result.rendered


def test_figure4_matches_paper():
    result = figure4.run()
    assert result.matches_paper
    assert result.labels == figure4.PAPER_LABELS


def test_figure567_verdicts_and_findings():
    result = figure567.run(max_states=200_000)
    assert result.matches_paper
    assert result.program2_equivalent
    assert not result.full_equivalent   # the Fig. 7 version-reset finding
    assert result.fixed_equivalent


def test_table2_shape_small_config():
    result = table2.run(n_threads=1, max_states=100_000)
    add, deq, bad = result.rows
    assert add.full.violation is None and add.atomic.violation is None
    assert add.reduction >= 50
    assert deq.reduction >= 50
    assert bad.full.violation is not None
    assert bad.atomic.violation is not None
    assert bad.atomic.states <= 100


def test_table2_render_mentions_paper_numbers():
    text = table2.main(n_threads=1, max_states=100_000)
    assert "4500" in text and "reduction" in text


def test_section63_ordering_small_config():
    result = section63.run(n_threads=2, max_states=300_000)
    states = {m: r.states for m, r in result.results.items()}
    assert states["none"] > states["por"] > states["atomic"] \
        >= states["both"]


def test_section63_json_verdicts_are_pinned(capsys):
    """The 2-thread grid's ``--json`` verdicts, pinned (the CI §6.3
    count canary runs the same command)."""
    import json

    from repro.cli import main

    assert main(["experiments", "section63", "--threads", "2",
                 "--max-states", "60000", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matches_paper"] is True
    assert {mode: (v["states"], v["transitions"], v["violation"],
                   v["capped"])
            for mode, v in doc["verdicts"].items()} == {
        "none": (1153, 2121, None, False),
        "por": (751, 936, None, False),
        "atomic": (5, 4, None, False),
        "both": (3, 2, None, False)}


def test_section64_matches_paper():
    result = section64.run()
    assert result.lines == section64.PAPER_LINES
    assert result.blocks == section64.PAPER_BLOCKS
    assert result.all_blocks_atomic
    assert result.matches_paper


def test_ablations_full_analysis_verifies_everything():
    result = ablations.run()
    ok, total = result.score("full analysis")
    assert ok == total
    # every ablation except the LL-agreement split loses something
    for name in ablations.ABLATIONS:
        if name in ("full analysis", "no LL-agreement case split"):
            continue
        ok, total = result.score(name)
        assert ok < total, name


def test_crossval_table_is_consistent():
    text = crossval.main()
    assert "all cases consistent: True" in text
    assert "DOUBLE_LL_DOWN" in text and "full == atomic" in text
