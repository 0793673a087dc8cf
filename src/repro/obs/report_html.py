"""Unified ``repro report`` HTML artifact (zero-dep, self-contained).

Aggregates the JSON artifacts the other observability surfaces write —
analysis documents (``repro analyze --json``), MC documents
(``repro mc --json``), lint reports (``repro lint --json``), event
streams (``--events-out`` JSONL), state-graph captures, summary-cache
stats, ``repro perf diff --json`` attributions, the fleet merge
summaries embedded in ``--jobs`` documents and experiment tables —
into ONE HTML file with no external assets: styles are one inline
``<style>`` block and every chart is inline SVG, so the artifact can
be attached to CI, mailed, or opened from ``file://`` with nothing
else present.

Sections (each ``<section id="sec-NAME">``, see :data:`SECTIONS`):

* ``overview``  — what was aggregated, headline verdicts/violations;
* ``trace``     — per-phase span trees from analysis/MC documents;
* ``metrics``   — flat count tables;
* ``hotspots``  — ranked profiler tables (+ share bar chart);
* ``coverage``  — depth histogram + frontier-size chart per MC run;
* ``statespace`` — graph-capture analytics (``--graph-out`` JSONL:
  depth layers, branching, POR reduction) plus the source-level
  statement heatmap embedded in MC documents;
* ``lint``      — findings grouped by target;
* ``summary``   — incremental-analysis summary-cache traffic
  (``repro summaries canary --stats-out`` / store stats documents):
  per-program hit/miss rows and store totals;
* ``crossval``  — preformatted experiment/cross-validation tables;
* ``fleet``     — per-worker lanes of the ``fleet`` merge summary in
  ``analyze --corpus --jobs N --json`` and ``experiments section63
  --jobs N --json`` documents;
* ``forensics`` — perf-regression forensics: differential-profiling
  attribution documents (``repro perf diff --json`` / ``--out``)
  with per-region delta bars.

Profiler documents carrying a collapsed-stack ``folded`` view
additionally render an inline SVG flame chart in ``hotspots``.

Inputs are classified by *shape*, not by filename (see
:func:`classify`), so ``repro report out/*.json benchmarks/out`` just
works.  :func:`check_html` verifies a rendered artifact contains every
section (used by the HTML test and by ``repro report --self-check``,
which renders an embedded fixture and exits non-zero on any missing
section — a CI canary that the generator and checker stay in sync).
"""

from __future__ import annotations

import html as _html
import json
import pathlib
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.obs.events import read_jsonl

#: version stamp embedded in the artifact's <meta> generator tag
REPORT_VERSION = 1

#: required section ids; check_html() fails on any that is missing
SECTIONS = ("overview", "trace", "metrics", "hotspots", "coverage",
            "statespace", "lint", "summary", "crossval", "fleet",
            "forensics")


# -- input collection ----------------------------------------------------------

@dataclass
class ReportInputs:
    """Everything the renderer may aggregate.  Each doc list holds
    ``(label, doc)`` pairs; missing inputs render as an explanatory
    placeholder, never as a dropped section."""

    analyses: list[tuple] = field(default_factory=list)
    mcs: list[tuple] = field(default_factory=list)
    lints: list[tuple] = field(default_factory=list)
    events: list[tuple] = field(default_factory=list)
    tables: list[tuple] = field(default_factory=list)  # (label, text)
    graphs: list[tuple] = field(default_factory=list)  # graph captures
    summaries: list[tuple] = field(default_factory=list)  # cache stats
    perfdiffs: list[tuple] = field(default_factory=list)  # attributions
    fleets: list[tuple] = field(default_factory=list)  # merge summaries


def classify(label: str, doc) -> Optional[str]:
    """Which input bucket a loaded JSON document belongs to, from its
    shape: ``summary`` | ``perfdiff`` | ``fleet`` | ``analysis`` |
    ``mc`` | ``lint`` | ``events``; None when unrecognized.  A
    ``fleet`` document is one that embeds a merge summary under
    ``fleet`` (a ``--jobs`` run's ``--json`` document)."""
    if isinstance(doc, list):
        if doc and all(isinstance(e, dict) and "kind" in e
                       and "seq" in e for e in doc):
            return "events"
        return None
    if not isinstance(doc, dict):
        return None
    if doc.get("kind") == "summary-stats":
        return "summary"
    if doc.get("kind") == "perfdiff":
        return "perfdiff"
    if isinstance(doc.get("fleet"), dict) \
            and doc["fleet"].get("kind") == "fleet":
        return "fleet"
    if "procedures" in doc and "all_atomic" in doc:
        return "analysis"
    if "mode" in doc and "states" in doc and "transitions" in doc:
        return "mc"
    if "targets" in doc or ("findings" in doc and "summary" in doc):
        return "lint"
    return None


def collect_inputs(paths: list[Union[str, pathlib.Path]]
                   ) -> ReportInputs:
    """Load and classify input files.  Directories are scanned one
    level deep for ``*.json`` / ``*.jsonl`` / ``*.txt``.  Paths that
    do not exist are skipped."""
    inputs = ReportInputs()
    files: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            files.extend(sorted(
                p for p in path.iterdir()
                if p.suffix in (".json", ".jsonl", ".txt")))
        elif path.exists():
            files.append(path)
    for path in files:
        label = path.name
        if path.suffix == ".txt":
            inputs.tables.append((label, path.read_text()))
            continue
        if path.suffix == ".jsonl":
            try:
                records = read_jsonl(path)
            except ValueError:
                continue        # corrupt mid-file: skip, don't crash
            if records and records[0].get("kind") == "graph.header":
                from repro.obs import graph as _graph
                try:
                    inputs.graphs.append(
                        (label, _graph.from_records(records, label)))
                except ValueError:
                    pass        # unreadable capture: skip, don't crash
                continue
            inputs.events.append((label, records))
            continue
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            continue
        kind = classify(label, doc)
        if kind == "analysis":
            inputs.analyses.append((label, doc))
        elif kind == "mc":
            inputs.mcs.append((label, doc))
        elif kind == "lint":
            for target in doc.get("targets", [doc]):
                inputs.lints.append((label, target))
        elif kind == "events":
            inputs.events.append((label, doc))
        elif kind == "summary":
            inputs.summaries.append((label, doc))
        elif kind == "perfdiff":
            inputs.perfdiffs.append((label, doc))
        elif kind == "fleet":
            inputs.fleets.append((label, doc["fleet"]))
    return inputs


# -- SVG helpers ---------------------------------------------------------------

def _esc(text) -> str:
    return _html.escape(str(text), quote=True)


def _svg_bars(pairs: list[tuple], width: int = 460, height: int = 140,
              color: str = "#4878a8", title: str = "") -> str:
    """Vertical bar chart over ``(label, value)`` pairs; labels land
    in <title> tooltips so the chart stays readable at any count."""
    if not pairs:
        return "<p class='empty'>(no data)</p>"
    top = max(v for _, v in pairs) or 1
    pad, axis = 4, 18
    plot_h = height - axis
    bar_w = max(1.0, (width - pad * 2) / len(pairs) - 1)
    parts = [f"<svg viewBox='0 0 {width} {height}' class='chart' "
             f"role='img' aria-label='{_esc(title)}'>"]
    for i, (label, value) in enumerate(pairs):
        h = plot_h * (value / top)
        x = pad + i * (bar_w + 1)
        parts.append(
            f"<rect x='{x:.1f}' y='{plot_h - h:.1f}' "
            f"width='{bar_w:.1f}' height='{max(h, 0.5):.1f}' "
            f"fill='{color}'><title>{_esc(label)}: {_esc(value)}"
            f"</title></rect>")
    first, last = pairs[0][0], pairs[-1][0]
    parts.append(f"<text x='{pad}' y='{height - 4}' "
                 f"class='tick'>{_esc(first)}</text>")
    parts.append(f"<text x='{width - pad}' y='{height - 4}' "
                 f"text-anchor='end' class='tick'>{_esc(last)}</text>")
    parts.append("</svg>")
    return "".join(parts)


def _svg_line(points: list[tuple], width: int = 460, height: int = 120,
              color: str = "#2e7d32", title: str = "") -> str:
    """Polyline chart over ``(x, y)`` points (x need not be uniform)."""
    if not points:
        return "<p class='empty'>(no data)</p>"
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    x0, x1 = min(xs), max(xs)
    y1 = max(ys) or 1.0
    pad = 4
    span_x = (x1 - x0) or 1.0
    plot_w, plot_h = width - pad * 2, height - pad * 2

    def px(x: float) -> float:
        return pad + plot_w * (x - x0) / span_x

    def py(y: float) -> float:
        return pad + plot_h * (1 - y / y1)

    if len(points) == 1:
        body = (f"<circle cx='{px(xs[0]):.1f}' cy='{py(ys[0]):.1f}' "
                f"r='2.5' fill='{color}'/>")
    else:
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}"
                          for x, y in zip(xs, ys))
        body = (f"<polyline points='{coords}' fill='none' "
                f"stroke='{color}' stroke-width='1.5'/>")
    return (f"<svg viewBox='0 0 {width} {height}' class='chart' "
            f"role='img' aria-label='{_esc(title)}'>{body}"
            f"<title>{_esc(title)} (max {y1:g})</title></svg>")


def _svg_hbars(pairs: list[tuple], width: int = 460,
               color: str = "#a85948", title: str = "") -> str:
    """Horizontal share bars for the hotspot table (one row each)."""
    if not pairs:
        return "<p class='empty'>(no data)</p>"
    row_h, label_w = 16, 190
    height = row_h * len(pairs) + 4
    top = max(v for _, v in pairs) or 1
    parts = [f"<svg viewBox='0 0 {width} {height}' class='chart' "
             f"role='img' aria-label='{_esc(title)}'>"]
    for i, (label, value) in enumerate(pairs):
        y = 2 + i * row_h
        w = (width - label_w - 8) * (value / top)
        parts.append(
            f"<text x='{label_w - 4}' y='{y + 11}' text-anchor='end' "
            f"class='tick'>{_esc(label)}</text>"
            f"<rect x='{label_w}' y='{y + 2}' width='{max(w, 0.5):.1f}'"
            f" height='{row_h - 5}' fill='{color}'>"
            f"<title>{_esc(label)}: {value:g}</title></rect>")
    parts.append("</svg>")
    return "".join(parts)


_FLAME_COLORS = ("#d98a5e", "#c9734a", "#e0a070", "#b86a48",
                 "#d67d52", "#cc8b63")


def _svg_flame(folded: dict, width: int = 460,
               title: str = "") -> str:
    """Icicle-style flame chart over a collapsed-stack profile
    (``{"outer;inner": wall_s}``).  Frame widths are proportional to
    wall time within the parent; region scopes are cumulative, so a
    parent frame spans at least its children."""
    if not folded:
        return "<p class='empty'>(no folded data)</p>"
    # build the nesting tree: name -> [own_cumulative_s, children]
    root: dict = {}
    for path, wall in sorted(folded.items()):
        level = root
        parts = path.split(";")
        for i, part in enumerate(parts):
            node = level.setdefault(part, [0.0, {}])
            if i == len(parts) - 1:
                node[0] += float(wall)
            level = node[1]
    row_h = 16

    def depth_of(level: dict) -> int:
        return 1 + max((depth_of(n[1]) for n in level.values()),
                       default=0) if level else 0

    height = row_h * depth_of(root) + 2
    total = sum(n[0] for n in root.values()) or 1.0
    parts_out = [f"<svg viewBox='0 0 {width} {height}' class='chart' "
                 f"role='img' aria-label='{_esc(title)}'>"]

    def emit(level: dict, x: float, w: float, depth: int,
             budget: float) -> None:
        for i, (name, (value, children)) in enumerate(
                sorted(level.items(), key=lambda kv: -kv[1][0])):
            fw = min(w, w * (value / budget)) if budget > 0 else 0.0
            if fw < 0.5:
                continue
            color = _FLAME_COLORS[(depth + i) % len(_FLAME_COLORS)]
            y = 1 + depth * row_h
            parts_out.append(
                f"<rect x='{x:.1f}' y='{y}' width='{fw:.1f}' "
                f"height='{row_h - 2}' fill='{color}' rx='1'>"
                f"<title>{_esc(name)}: {value * 1000:.2f} ms"
                f"</title></rect>")
            if fw > 40:
                parts_out.append(
                    f"<text x='{x + 3:.1f}' y='{y + 11}' "
                    f"class='tick'>{_esc(name)}</text>")
            if children:
                emit(children, x, fw, depth + 1, value or budget)
            x += fw

    emit(root, 2.0, width - 4.0, 0, total)
    parts_out.append("</svg>")
    return "".join(parts_out)


# -- section renderers ---------------------------------------------------------

def _table(headers: list[str], rows: list[list],
           cls: str = "") -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows)
    return (f"<table class='{cls}'><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


def _placeholder(what: str, hint: str) -> str:
    return (f"<p class='empty'>no {_esc(what)} artifacts supplied "
            f"&mdash; {_esc(hint)}</p>")


def _sec(name: str, title: str, body: str) -> str:
    return (f"<section id='sec-{name}'><h2>{_esc(title)}</h2>"
            f"{body}</section>")


def _overview(inputs: ReportInputs) -> str:
    rows = []
    for label, doc in inputs.analyses:
        verdict = "all atomic" if doc.get("all_atomic") else \
            "NOT all atomic"
        rows.append(["analysis", label,
                     f"{len(doc.get('procedures', []))} procedure(s), "
                     f"{verdict}"])
    for label, doc in inputs.mcs:
        out = (f"mode={doc.get('mode')} states={doc.get('states')} "
               f"transitions={doc.get('transitions')}")
        if doc.get("violation"):
            out += f" VIOLATION: {doc['violation']}"
        rows.append(["mc", label, out])
    for label, doc in inputs.lints:
        summary = doc.get("summary", {})
        rows.append(["lint", f"{label}:{doc.get('target', '?')}",
                     f"{summary.get('errors', 0)} error(s), "
                     f"{summary.get('warnings', 0)} warning(s)"])
    for label, events in inputs.events:
        rows.append(["events", label, f"{len(events)} event(s)"])
    for label, doc in inputs.graphs:
        summary = doc.get("summary") or {}
        rows.append(["graph", label,
                     f"{summary.get('nodes', len(doc['nodes']))} "
                     f"node(s), "
                     f"{summary.get('edges', len(doc['edges']))} "
                     f"edge(s), "
                     f"{summary.get('pruned', len(doc['pruned']))} "
                     f"pruned"])
    for label, doc in inputs.perfdiffs:
        drifted = doc.get("drifted") or []
        rows.append(["perfdiff", label,
                     f"{len(doc.get('rows', []))} region(s), "
                     + (f"DRIFT: {', '.join(drifted)}" if drifted
                        else "no attributed drift")])
    for label, _text in inputs.tables:
        rows.append(["table", label, "preformatted"])
    if not rows:
        return _placeholder(
            "input", "pass JSON artifacts or a directory such as "
            "benchmarks/out")
    return _table(["kind", "source", "summary"], rows)


def _span_rows(span: dict, depth: int, rows: list) -> None:
    rows.append([(" " * depth) + span.get("name", "?"),
                 f"{span.get('duration_s', 0) * 1000:.2f}"])
    for child in span.get("children", []):
        _span_rows(child, depth + 1, rows)


def _trace(inputs: ReportInputs) -> str:
    parts = []
    # an MC document's "trace" is its counterexample steps; its span
    # tree is under "spans"
    docs = [(label, doc.get("trace")) for label, doc in inputs.analyses] \
        + [(label, doc.get("spans")) for label, doc in inputs.mcs]
    for label, spans in docs:
        if not spans:
            continue
        rows: list[list] = []
        for span in spans:
            _span_rows(span, 0, rows)
        parts.append(f"<h3>{_esc(label)}</h3>"
                     + _table(["span", "wall (ms)"], rows, "mono"))
    if not parts:
        return _placeholder(
            "trace", "re-run with --trace (or REPRO_TRACE=1) and "
            "--json to embed span trees")
    return "".join(parts)


def _metrics(inputs: ReportInputs) -> str:
    parts = []
    for label, doc in inputs.analyses + inputs.mcs:
        metrics = doc.get("metrics") or {}
        flat = [[k, v] for k, v in sorted(metrics.items())
                if not isinstance(v, (dict, list))]
        if not flat:
            continue
        parts.append(f"<h3>{_esc(label)}</h3>"
                     + _table(["metric", "value"], flat, "mono"))
    if not parts:
        return _placeholder(
            "metrics", "re-run with --metrics (or REPRO_METRICS=1) "
            "and --json")
    return "".join(parts)


def _hotspots(inputs: ReportInputs) -> str:
    parts = []
    for label, doc in inputs.analyses + inputs.mcs:
        profile = doc.get("profile") or {}
        spots = profile.get("hotspots") or []
        if not spots:
            continue
        top = spots[:12]
        parts.append(
            f"<h3>{_esc(label)}</h3>"
            + _svg_hbars([(s["name"], s["wall_s"] * 1000)
                          for s in top],
                         title=f"hotspot wall ms — {label}")
            + _table(["region", "wall (ms)", "share", "calls", "work"],
                     [[s["name"], f"{s['wall_s'] * 1000:.2f}",
                       f"{s.get('share', 0) * 100:.1f}%",
                       s["calls"], s["work"]] for s in spots],
                     "mono"))
        folded = profile.get("folded") or {}
        if folded:
            parts.append(
                "<h4>flame chart (collapsed region stacks)</h4>"
                + _svg_flame(folded, title=f"flame chart — {label}"))
    if not parts:
        return _placeholder(
            "profile", "re-run with --profile (or REPRO_PROFILE=1) "
            "and --json to embed ranked hotspot tables")
    return "".join(parts)


def _coverage(inputs: ReportInputs) -> str:
    parts = []
    for label, doc in inputs.mcs:
        metrics = doc.get("metrics") or {}
        hist = metrics.get("mc.depth_hist") or []
        frontier = metrics.get("mc.frontier_samples") or []
        depth = metrics.get("mc.depth") or {}
        if not (hist or frontier or depth):
            continue
        parts.append(f"<h3>{_esc(label)}</h3>")
        facts = [[k, metrics[k]] for k in (
            "mc.states", "mc.transitions", "mc.cache_hit_ratio",
            "mc.mem_peak_mb", "mc.max_depth",
            "mc.ample_reduction_ratio") if k in metrics]
        for key in ("mean", "p50", "p95", "p99"):
            if key in depth:
                facts.append([f"depth.{key}", depth[key]])
        if facts:
            parts.append(_table(["telemetry", "value"], facts, "mono"))
        if hist:
            parts.append("<h4>depth histogram (pushes per depth)</h4>"
                         + _svg_bars([(f"depth {d}", n)
                                      for d, n in hist],
                                     title=f"depth histogram {label}"))
        if frontier:
            parts.append(
                "<h4>frontier size over transitions</h4>"
                + _svg_line([(t, f) for t, f in frontier],
                            title=f"frontier size {label}"))
    # explorer.progress events also carry coverage
    for label, events in inputs.events:
        beats = [e for e in events
                 if e.get("kind") == "explorer.progress"]
        if beats:
            parts.append(
                f"<h3>{_esc(label)} (progress heartbeats)</h3>"
                + _svg_line([(e["elapsed_s"], e["states"])
                             for e in beats],
                            title=f"states over time {label}"))
    if not parts:
        return _placeholder(
            "coverage telemetry", "re-run repro mc --json (its "
            "Coverage observer embeds mc.depth_hist and "
            "mc.frontier_samples in the metrics)")
    return "".join(parts)


#: mover class -> badge color (mirrors the DOT export palette)
_MOVER_COLORS = {"R": "#2b8cbe", "L": "#e34a33", "B": "#31a354",
                 "N": "#756bb1"}


def _heat_rows(heatmap: dict) -> str:
    """Annotated-source overlay: statement text × visit intensity ×
    mover class, one row per executed CFG statement."""
    rows = heatmap.get("rows") or []
    if not rows:
        return "<p class='empty'>(no statements visited)</p>"
    peak = max(r.get("visits", 0) for r in rows) or 1
    parts = ["<table class='mono heat'><thead><tr><th>proc</th>"
             "<th>statement</th><th>mover</th><th>visits</th>"
             "<th></th><th>switches</th><th>threads</th></tr>"
             "</thead><tbody>"]
    for r in rows:
        visits = r.get("visits", 0)
        mover = r.get("mover")
        color = _MOVER_COLORS.get(mover or "", "#999")
        badge = (f"<span class='mover' style='background:{color}'>"
                 f"{_esc(mover)}</span>" if mover else "—")
        # heat shade: visit share as a background alpha on the text cell
        alpha = 0.08 + 0.72 * (visits / peak)
        text = r.get("text") or f"uid {r.get('uid')}"
        parts.append(
            f"<tr><td>{_esc(r.get('proc') or '?')}</td>"
            f"<td style='background:rgba(224,112,64,{alpha:.2f})'>"
            f"{_esc(text)}</td>"
            f"<td>{badge}</td>"
            f"<td>{visits:,}</td>"
            f"<td>{_esc('█' * max(1, round(12 * visits / peak)))}</td>"
            f"<td>{r.get('switches', 0):,}</td>"
            f"<td>{r.get('threads', 0)}</td></tr>")
    parts.append("</tbody></table>")
    return "".join(parts)


def _statespace(inputs: ReportInputs) -> str:
    """Graph-capture analytics + the source-level statement heatmap."""
    from repro.obs.graph import graph_stats
    parts = []
    for label, doc in inputs.graphs:
        stats = graph_stats(doc)
        parts.append(f"<h3>{_esc(label)} (graph capture, mode="
                     f"{_esc(doc['header'].get('mode', '?'))})</h3>")
        facts = [["nodes", f"{stats['nodes']:,}"
                  + (" (emission truncated by cap)"
                     if stats["truncated"] else "")],
                 ["edges", f"{stats['edges']:,}"],
                 ["pruned (POR)", f"{stats['pruned']:,}"],
                 ["POR reduction ratio",
                  f"{stats['por_reduction_ratio']:.1%}"],
                 ["max depth", stats["max_depth"]],
                 ["terminal states", f"{stats['terminal']:,}"],
                 ["quiescent states", f"{stats['quiescent']:,}"],
                 ["branching (min/mean/max)",
                  f"{stats['branching']['min']} / "
                  f"{stats['branching']['mean']} / "
                  f"{stats['branching']['max']}"]]
        parts.append(_table(["graph", "value"], facts, "mono"))
        if stats["depth_layers"]:
            parts.append(
                "<h4>depth layers (states first seen per depth)</h4>"
                + _svg_bars([(f"depth {d}", n)
                             for d, n in stats["depth_layers"]],
                            color="#6a51a3",
                            title=f"depth layers — {label}"))
        branching_hist = stats["branching"]["hist"]
        if branching_hist:
            parts.append(
                "<h4>branching factor (out-degree histogram)</h4>"
                + _svg_bars([(f"out-degree {k}", n)
                             for k, n in branching_hist],
                            color="#31a354",
                            title=f"branching — {label}"))
    for label, doc in inputs.mcs:
        heatmap = doc.get("heatmap") or {}
        if not heatmap.get("rows"):
            continue
        note = "" if heatmap.get("annotated") else \
            " — mover classes unavailable (analysis did not run)"
        parts.append(
            f"<h3>{_esc(label)} (statement heatmap, "
            f"{heatmap.get('total_visits', 0):,} visits){_esc(note)}"
            f"</h3>" + _heat_rows(heatmap))
    if not parts:
        return _placeholder(
            "state-space introspection", "re-run repro mc --json "
            "(embeds the statement heatmap) and/or with --graph-out "
            "capture.jsonl, then pass those artifacts")
    return "".join(parts)


def _lint(inputs: ReportInputs) -> str:
    docs = list(inputs.lints)
    for label, doc in inputs.analyses:
        if doc.get("lint"):
            docs.append((label, doc["lint"]))
    if not docs:
        return _placeholder(
            "lint", "re-run repro lint --json (or repro analyze "
            "--json, which embeds its lint run)")
    parts = []
    for label, doc in docs:
        summary = doc.get("summary", {})
        parts.append(
            f"<h3>{_esc(doc.get('target', label))} &mdash; "
            f"{summary.get('errors', 0)} error(s), "
            f"{summary.get('warnings', 0)} warning(s), "
            f"{summary.get('infos', 0)} info(s)</h3>")
        findings = doc.get("findings") or []
        if findings:
            parts.append(_table(
                ["severity", "rule", "where", "message"],
                [[f.get("severity"), f.get("rule"),
                  f"{f.get('proc', '')}:{f.get('line', 0)}",
                  f.get("message")] for f in findings], "mono"))
    return "".join(parts)


def _summary(inputs: ReportInputs) -> str:
    """Summary-cache traffic: per-program hit/miss rows from canary
    stats documents plus the store totals."""
    if not inputs.summaries:
        return _placeholder(
            "summary cache", "run repro summaries canary --stats-out "
            "FILE (or repro analyze --corpus) and pass the stats "
            "document")
    parts = []
    for label, doc in inputs.summaries:
        rows = doc.get("rows") or []
        stats = doc.get("stats") or doc
        if "ok" in doc:
            verdict = "PASS" if doc.get("ok") else "FAIL"
            cached = sum(1 for r in rows if r.get("cached"))
            parts.append(
                f"<h3>{_esc(label)} &mdash; warm-cache canary "
                f"{verdict}: {cached} of {len(rows)} program(s) "
                f"replayed from cache</h3>")
        else:
            parts.append(f"<h3>{_esc(label)}</h3>")
        if rows:
            hits = sum(r.get("hits", 0) for r in rows)
            misses = sum(r.get("misses", 0) for r in rows)
            invalidated = sum(r.get("invalidated", 0) for r in rows)
            parts.append(_svg_bars(
                [("proc hits", hits), ("proc misses", misses),
                 ("invalidated", invalidated)],
                title="summary-cache traffic"))
            parts.append(_table(
                ["program", "procs", "hits", "misses", "invalidated",
                 "cached", "drift"],
                [[r.get("label"), r.get("procs"), r.get("hits"),
                  r.get("misses"), r.get("invalidated"),
                  "yes" if r.get("cached") else "no",
                  r.get("drift", 0)] for r in rows], "mono"))
        parts.append(_table(
            ["store", "proc records", "program records", "bytes",
             "schema refused"],
            [[stats.get("root", "?"), stats.get("procs", 0),
              stats.get("programs", 0), stats.get("bytes", 0),
              stats.get("schema_refused", 0)]], "mono"))
    return "".join(parts)


def _crossval(inputs: ReportInputs) -> str:
    if not inputs.tables:
        return _placeholder(
            "cross-validation table", "save experiment output, e.g. "
            "python -m repro experiments crossval > crossval.txt, "
            "and pass the file (or its directory)")
    parts = []
    for label, text in inputs.tables:
        parts.append(f"<h3>{_esc(label)}</h3>"
                     f"<pre>{_esc(text.rstrip())}</pre>")
    return "".join(parts)


def _forensics(inputs: ReportInputs) -> str:
    """Perf forensics: ranked differential-profiling attribution
    tables + per-region delta bars from perfdiff documents."""
    parts = []
    for label, doc in inputs.perfdiffs:
        drifted = doc.get("drifted") or []
        verdict = (f"DRIFT: {', '.join(drifted)}" if drifted
                   else "no attributed drift")
        parts.append(
            f"<h3>{_esc(label)} &mdash; {_esc(doc.get('a', '?'))} "
            f"&rarr; {_esc(doc.get('b', '?'))} ({_esc(verdict)})</h3>"
            f"<p>drift above "
            f"+{doc.get('threshold', 0) * 100:.0f}% attributed work "
            f"(deterministic calls+work counters; speedups never "
            f"flag)</p>")
        rows = doc.get("rows") or []
        if rows:
            parts.append(_table(
                ["region", "group", "units A", "units B", "Δ units",
                 "Δ %", "drift"],
                [[r["name"], r["group"], r["units_a"], r["units_b"],
                  f"{r['delta']:+d}", f"{r['delta_pct']:+.1f}%",
                  "DRIFT" if r.get("drift") else ""]
                 for r in rows[:25]], "mono"))
            bars = [(f"{r['name']} {r['delta_pct']:+.1f}%",
                     abs(r["delta"]))
                    for r in rows[:12] if r["delta"]]
            if bars:
                parts.append(
                    "<h4>per-region work delta (|Δ units|)</h4>"
                    + _svg_hbars(bars,
                                 title=f"work deltas — {label}"))
        paths = doc.get("paths") or []
        if paths:
            parts.append(
                "<h4>collapsed-stack wall deltas (informational)"
                "</h4>"
                + _table(["path", "A (ms)", "B (ms)", "Δ (ms)"],
                         [[p["path"],
                           f"{p['wall_a_s'] * 1000:.2f}",
                           f"{p['wall_b_s'] * 1000:.2f}",
                           f"{p['delta_s'] * 1000:+.2f}"]
                          for p in paths[:10]], "mono"))
    if not parts:
        return _placeholder(
            "perf forensics", "run repro perf diff A B --out FILE "
            "(e.g. over two bench/run.py --traced records) and pass "
            "the document")
    return "".join(parts)


def _fleet(inputs: ReportInputs) -> str:
    """Fleet telemetry: per-worker lanes from merged ``--jobs``
    spools — the worker table with straggler attribution, per-worker
    wall bars, and the merge summary."""
    parts = []
    for label, doc in inputs.fleets:
        straggler = doc.get("straggler")
        title = (f"{label} &mdash; {doc.get('jobs', '?')} worker(s), "
                 f"{doc.get('items', 0)} item(s)")
        if doc.get("label"):
            title += f", {_esc(doc['label'])}"
        parts.append(f"<h3>{title}</h3>")
        rows = []
        for w in doc.get("workers", []):
            name = w.get("worker", "?")
            rows.append([
                name + (" *" if name == straggler else ""),
                w.get("pid", "?"), w.get("items", 0),
                w.get("events", 0),
                f"{w.get('wall_s', 0.0):.3f}",
                f"{w.get('rss_mb', 0.0):.1f}"])
        parts.append(_table(
            ["worker", "pid", "items", "events", "wall s", "rss MB"],
            rows, "mono"))
        parts.append(
            f"<p>merged {doc.get('events', 0)} event(s) across "
            f"{len(doc.get('workers', []))} spool(s); straggler "
            f"{_esc(str(straggler))} (*) bounds the fleet wall clock "
            f"at {doc.get('wall_s', 0.0):.3f}s</p>")
        bars = [(w.get("worker", "?"), w.get("wall_s", 0.0))
                for w in doc.get("workers", [])]
        if any(v for _, v in bars):
            parts.append(_svg_hbars(
                bars, title=f"per-worker wall — {label}"))
    if not parts:
        return _placeholder(
            "fleet telemetry", "pass the --json document of repro "
            "analyze --corpus --jobs N or repro experiments section63 "
            "--jobs N")
    return "".join(parts)


# -- document assembly ---------------------------------------------------------

_STYLE = """
body{font:14px/1.45 system-ui,sans-serif;margin:0 auto;max-width:60em;
  padding:0 1em 3em;color:#1a1a1a}
h1{border-bottom:2px solid #4878a8;padding-bottom:.2em}
h2{margin-top:2em;border-bottom:1px solid #ccc;padding-bottom:.15em}
h3{margin-bottom:.3em}
nav a{margin-right:.8em}
table{border-collapse:collapse;margin:.5em 0}
th,td{border:1px solid #ddd;padding:.15em .5em;text-align:left}
th{background:#f0f4f8}
table.mono td{font-family:ui-monospace,monospace;font-size:12px}
pre{background:#f6f8fa;padding:.6em;overflow-x:auto;font-size:12px}
svg.chart{display:block;max-width:100%;margin:.4em 0;
  background:#fafbfc;border:1px solid #eee}
svg .tick{font:9px ui-monospace,monospace;fill:#666}
p.empty{color:#777;font-style:italic}
span.mover{color:#fff;padding:0 .35em;border-radius:2px;
  font-weight:bold}
"""


def render_report(inputs: ReportInputs,
                  title: str = "repro report") -> str:
    """Render the complete self-contained HTML artifact."""
    sections = {
        "overview": ("Overview", _overview(inputs)),
        "trace": ("Trace spans", _trace(inputs)),
        "metrics": ("Metrics", _metrics(inputs)),
        "hotspots": ("Profiler hotspots", _hotspots(inputs)),
        "coverage": ("State-space coverage", _coverage(inputs)),
        "statespace": ("State space", _statespace(inputs)),
        "lint": ("Lint findings", _lint(inputs)),
        "summary": ("Summary cache", _summary(inputs)),
        "crossval": ("Cross-validation tables", _crossval(inputs)),
        "fleet": ("Fleet", _fleet(inputs)),
        "forensics": ("Perf forensics", _forensics(inputs)),
    }
    nav = "".join(f"<a href='#sec-{name}'>{_esc(label)}</a>"
                  for name, (label, _) in sections.items())
    body = "".join(_sec(name, label, content)
                   for name, (label, content) in sections.items())
    return (
        "<!DOCTYPE html>\n<html lang='en'><head>"
        "<meta charset='utf-8'>"
        f"<meta name='generator' content='repro-report v"
        f"{REPORT_VERSION}'>"
        f"<title>{_esc(title)}</title>"
        f"<style>{_STYLE}</style></head><body>"
        f"<h1>{_esc(title)}</h1><nav>{nav}</nav>"
        f"{body}</body></html>\n")


def check_html(html_text: str) -> list[str]:
    """Names of required sections missing from a rendered artifact
    (empty list = complete).  Also flags external asset references —
    the artifact must stay self-contained."""
    missing = [name for name in SECTIONS
               if f"id='sec-{name}'" not in html_text
               and f'id="sec-{name}"' not in html_text]
    for marker in ("<script src", "<link rel='stylesheet'",
                   '<link rel="stylesheet"', "src='http", 'src="http'):
        if marker in html_text:
            missing.append(f"external-asset:{marker.strip('<')}")
    return missing


# -- self-check fixture --------------------------------------------------------

#: minimal artifact set exercising every section; --self-check renders
#: it and fails on any missing section, so CI notices immediately when
#: the generator and check_html() drift apart
SELF_CHECK_FIXTURE = {
    "analysis.json": {
        "procedures": [{"name": "Inc", "atomic": True, "variants": []}],
        "all_atomic": True,
        "diagnostics": [],
        "metrics": {"analysis.sites": 12,
                    "analysis.exclusions.thm5.3": 4},
        "trace": [{"name": "analysis.run", "duration_s": 0.004,
                   "children": [{"name": "analysis.classify",
                                 "duration_s": 0.002}]}],
        "profile": {"v": 1, "hotspots": [
            {"name": "analysis.classify", "calls": 1, "work": 12,
             "wall_s": 0.002, "share": 0.5},
            {"name": "theorem.5.3", "calls": 0, "work": 4,
             "wall_s": 0.0, "share": 0.0}]},
        "lint": {"v": 1, "target": "fixture", "findings": [
            {"rule": "llsc.multi-ll", "severity": "error",
             "message": "two LLs for one SC", "line": 3, "col": 1,
             "proc": "Inc"}],
            "summary": {"errors": 1, "warnings": 0, "infos": 0,
                        "suppressed": 0}},
    },
    "mc.json": {
        "mode": "por", "states": 64, "transitions": 96,
        "elapsed_s": 0.01, "states_per_s": 6400.0,
        "violation": None, "capped": False, "trace": [],
        "metrics": {"mc.states": 64, "mc.transitions": 96,
                    "mc.cache_hit_ratio": 0.33, "mc.mem_peak_mb": 21.5,
                    "mc.max_depth": 9,
                    "mc.depth": {"count": 63, "min": 1, "max": 9,
                                 "mean": 4.2, "p50": 4, "p95": 8,
                                 "p99": 9},
                    "mc.depth_hist": [[1, 2], [2, 6], [3, 12], [4, 18],
                                      [5, 12], [6, 8], [7, 3], [8, 1],
                                      [9, 1]],
                    "mc.frontier_samples": [[16, 4], [32, 7],
                                            [64, 5], [96, 1]]},
        "profile": {"v": 1, "hotspots": [
            {"name": "mc.successors", "calls": 64, "work": 96,
             "wall_s": 0.004, "share": 0.6},
            {"name": "mc.canonicalize", "calls": 96, "work": 96,
             "wall_s": 0.002, "share": 0.3}],
            "folded": {"mc.run": 0.008,
                       "mc.run;mc.init": 0.001,
                       "mc.run;mc.dfs": 0.007,
                       "mc.run;mc.dfs;mc.successors": 0.004,
                       "mc.run;mc.dfs;mc.canonicalize": 0.002}},
        "heatmap": {"v": 1, "annotated": True, "total_visits": 160,
                    "rows": [
                        {"uid": 0, "proc": "Inc",
                         "text": "t = LL(&this.count)", "mover": "R",
                         "visits": 64, "switches": 20, "threads": 2},
                        {"uid": 1, "proc": "Inc",
                         "text": "ok = SC(&this.count, t + 1)",
                         "mover": "L", "visits": 60, "switches": 12,
                         "threads": 2},
                        {"uid": 2, "proc": "Inc",
                         "text": "if ok", "mover": "B", "visits": 36,
                         "switches": 4, "threads": 2}]},
    },
    "graph.jsonl": [
        {"kind": "graph.header", "v": 1, "mode": "por", "threads": 2,
         "node_cap": 200000, "por_pruned": True},
        {"kind": "node", "id": "aa00", "depth": 1, "init": True,
         "q": True},
        {"kind": "node", "id": "bb11", "depth": 2},
        {"kind": "node", "id": "cc22", "depth": 2},
        {"kind": "node", "id": "dd33", "depth": 3, "q": True},
        {"kind": "edge", "src": "aa00", "dst": "bb11", "tid": 0,
         "uid": 0, "op": "stmt", "mover": "R", "dup": False},
        {"kind": "edge", "src": "aa00", "dst": "cc22", "tid": 1,
         "uid": 0, "op": "stmt", "mover": "R", "dup": False},
        {"kind": "edge", "src": "bb11", "dst": "dd33", "tid": 0,
         "uid": 1, "op": "stmt", "mover": "L", "dup": False},
        {"kind": "edge", "src": "cc22", "dst": "dd33", "tid": 1,
         "uid": 1, "op": "stmt", "mover": "L", "dup": True},
        {"kind": "pruned", "src": "bb11", "dst": "cc22", "tid": 1,
         "uid": 0, "op": "stmt"},
        {"kind": "graph.summary", "nodes": 4, "edges": 4, "pruned": 1,
         "nodes_written": 4, "edges_written": 4, "truncated": False,
         "max_depth": 3}],
    "events.jsonl": [
        {"v": 1, "seq": 0, "t": 0.001, "kind": "explorer.progress",
         "states": 20, "transitions": 28, "depth": 5, "frontier": 4,
         "elapsed_s": 0.004},
        {"v": 1, "seq": 1, "t": 0.002, "kind": "explorer.progress",
         "states": 64, "transitions": 96, "depth": 9, "frontier": 0,
         "elapsed_s": 0.009}],
    "PERFDIFF_attribution.json": {
        "v": 1, "kind": "perfdiff",
        "a": "bench/out/A.jsonl",
        "b": "bench/out/B.jsonl",
        "threshold": 0.25, "drift": True,
        "drifted": ["gh-full/mc.canonical"],
        "rows": [
            {"name": "gh-full/mc.canonical", "group": "gh-full",
             "units_a": 12000, "units_b": 17000, "delta": 5000,
             "delta_pct": 41.7, "drift": True,
             "wall_a_s": 0.4, "wall_b_s": 0.61},
            {"name": "gh-full/interp.step", "group": "gh-full",
             "units_a": 6400, "units_b": 6210, "delta": -190,
             "delta_pct": -3.0, "drift": False,
             "wall_a_s": 0.12, "wall_b_s": 0.118},
            {"name": "corpus-analyze/cfg.build",
             "group": "corpus-analyze",
             "units_a": 900, "units_b": 905, "delta": 5,
             "delta_pct": 0.6, "drift": False,
             "wall_a_s": 0.02, "wall_b_s": 0.02}],
        "groups": {
            "gh-full": {"units_a": 18400, "units_b": 23210,
                        "delta": 4810, "delta_pct": 26.1},
            "corpus-analyze": {"units_a": 900, "units_b": 905,
                               "delta": 5, "delta_pct": 0.6}},
        "paths": [
            {"path": "mc.run;mc.successors", "wall_a_s": 0.004,
             "wall_b_s": 0.0061, "delta_s": 0.0021}]},
    "summary_stats.json": {
        "v": 1, "kind": "summary-stats", "canary": True, "ok": True,
        "programs": 2,
        "rows": [
            {"label": "corpus/cas_counter", "atomic": True,
             "procs": 2, "hits": 2, "misses": 0, "invalidated": 0,
             "cached": True, "drift": 0},
            {"label": "corpus/treiber_stack", "atomic": True,
             "procs": 2, "hits": 2, "misses": 0, "invalidated": 0,
             "cached": True, "drift": 0}],
        "stats": {"v": 1, "kind": "summary-stats",
                  "root": ".repro/summaries", "procs": 4,
                  "programs": 2, "bytes": 20480,
                  "schema_refused": 0, "corrupt": 0}},
    "corpus_fleet.json": {
        "programs": [], "errors": [], "drift": [],
        "fleet": {
            "v": 1, "kind": "fleet", "jobs": 2,
            "label": "analyze-corpus", "items": 22, "events": 70,
            "wall_s": 0.31, "straggler": "worker-01",
            "workers": [
                {"worker": "worker-00", "pid": 4242, "items": 11,
                 "events": 34, "wall_s": 0.27, "rss_mb": 21.0},
                {"worker": "worker-01", "pid": 4243, "items": 11,
                 "events": 36, "wall_s": 0.31, "rss_mb": 20.5}]}},
    "crossval.txt": ("Lint/MC cross-validation (fixture)\n\n"
                     "program   | lint errors | violation\n"
                     "----------+-------------+----------\n"
                     "ABA_STACK | 2           | yes\n"),
}


def fixture_inputs() -> ReportInputs:
    """The :data:`SELF_CHECK_FIXTURE` loaded as report inputs."""
    from repro.obs.graph import from_records
    fx = SELF_CHECK_FIXTURE
    return ReportInputs(
        graphs=[("graph.jsonl",
                 from_records(fx["graph.jsonl"], "graph.jsonl"))],
        analyses=[("analysis.json", fx["analysis.json"])],
        mcs=[("mc.json", fx["mc.json"])],
        events=[("events.jsonl", fx["events.jsonl"])],
        tables=[("crossval.txt", fx["crossval.txt"])],
        summaries=[("summary_stats.json",
                    dict(fx["summary_stats.json"]))],
        perfdiffs=[("PERFDIFF_attribution.json",
                    dict(fx["PERFDIFF_attribution.json"]))],
        fleets=[("corpus_fleet.json",
                 dict(fx["corpus_fleet.json"]["fleet"]))])


def self_check() -> tuple[int, str]:
    """Render the embedded fixture and verify completeness.  Returns
    ``(exit_code, message)`` — 0 only when every section is present,
    every fixture chart rendered, and no placeholder leaked in."""
    html_text = render_report(fixture_inputs(), title="self-check")
    problems = check_html(html_text)
    if "class='empty'" in html_text:
        problems.append("placeholder rendered from full fixture")
    if html_text.count("<svg") < 6:
        problems.append(
            f"expected >=6 charts, got {html_text.count('<svg')}")
    for marker, what in (("flame chart", "flame chart"),
                         ("graph capture", "graph-capture analytics"),
                         ("statement heatmap", "statement heatmap"),
                         ("depth layers", "depth-layer chart"),
                         ("replayed from cache", "summary-cache "
                          "section"),
                         ("attributed work", "perfdiff attribution "
                          "table"),
                         ("straggler", "fleet merge summary")):
        if marker not in html_text:
            problems.append(f"{what} missing from fixture render")
    from repro.obs import schemas
    problems.extend(f"schema registry: {drift}"
                    for drift in schemas.check_registry())
    if problems:
        return 1, "self-check FAILED: " + "; ".join(problems)
    return 0, (f"self-check ok: {len(SECTIONS)} sections, "
               f"{html_text.count('<svg')} charts, "
               f"{len(html_text)} bytes")
