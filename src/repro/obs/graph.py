"""Streaming state-graph capture, analytics, DOT export, and diff.

``repro mc --graph-out PATH`` makes the explorer stream the state
graph it visits to a schema-versioned JSONL artifact while the DFS
runs — one record per line, four record kinds::

    {"kind": "graph.header", "v": 1, "mode": "full", "threads": 2,
     "node_cap": 200000, "por_pruned": false}
    {"kind": "node", "id": "0f3a…", "depth": 1, "init": true, "q": true}
    {"kind": "edge", "src": "0f3a…", "dst": "77c1…", "tid": 0,
     "uid": 4, "op": "stmt", "mover": "R", "dup": false}
    {"kind": "pruned", "src": "0f3a…", "dst": "41bb…", "tid": 1,
     "uid": 9, "op": "stmt"}            # only with --graph-por-pruned
    {"kind": "graph.summary", "nodes": 812, "edges": 1604, "pruned": 0,
     "truncated": false, "max_depth": 17}

*Node ids* are the first 16 hex digits of the SHA-256 of ``repr`` of
the explorer's canonical state key — :func:`repro.mc.canonical
.state_key` returns deterministic nested tuples of plain strings and
ints (and property ghosts are frozen dataclasses of scalars), so the
id is stable across processes.  Two seeded runs that explore the same
graph therefore produce artifacts that :func:`diff_graphs` reports as
identical — the free correctness check for state-representation
refactors.

*Edges* are tagged with the scheduled thread, the CFG statement uid,
the transition kind (``invoke``/``stmt``/``return``/``atomic``), and —
when the caller supplies a uid→mover map from the static analysis —
the mover classification of the executed statement.  ``dup`` marks
edges into already-seen states (back/cross edges); exactly the
non-dup edges lead to ``node`` records, so ``nodes == MCResult.states``
and ``edges == MCResult.transitions`` hold by construction.

*Bounded size.*  Exact node/edge/pruned counters are always kept, but
record *emission* thins out above a cap (``REPRO_GRAPH_NODE_CAP``,
default 200 000 nodes, edges capped at 4× that): the first ``cap``
records are written verbatim, after which each further record is
written with probability ``cap / n`` from a seeded RNG — a streaming
reservoir-style thinning whose expected retained size grows only
logarithmically past the cap.  The RNG seed is fixed, so identical
explorations still produce byte-identical artifacts above the cap and
``graph diff`` stays meaningful.  The summary record carries the exact
totals plus a ``truncated`` flag; :func:`graph_stats` prefers those.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
from typing import IO, Callable, Optional, Union

from repro.mc.observers import Observer
from repro.obs.events import read_jsonl
from repro.obs.schemas import GRAPH as SCHEMA_VERSION

#: node-record emission cap when ``REPRO_GRAPH_NODE_CAP`` is unset
DEFAULT_NODE_CAP = 200_000

#: edge records are capped at this multiple of the node cap
EDGE_CAP_FACTOR = 4

#: ``graph dot`` refuses graphs with more retained nodes than this
#: unless ``--max-nodes`` raises it — DOT is for *small* graphs
DEFAULT_DOT_CAP = 250

#: ``graph diff`` prints at most this many sample ids per drift bucket
DIFF_SAMPLES = 5


def node_cap_from_env() -> int:
    """The node cap, honouring ``REPRO_GRAPH_NODE_CAP`` (invalid or
    non-positive values fall back to the default)."""
    raw = os.environ.get("REPRO_GRAPH_NODE_CAP", "")
    try:
        cap = int(raw)
    except ValueError:
        return DEFAULT_NODE_CAP
    return cap if cap > 0 else DEFAULT_NODE_CAP


def key_id(key) -> str:
    """Canonical node id: 16 hex digits of SHA-256 over ``repr(key)``.

    ``key`` is the explorer's dedup key — deterministic nested tuples
    of scalars — so equal states map to equal ids in any process."""
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def stable_uid_map(*interps) -> dict[int, int]:
    """CFG-node uid → build-independent dense index.

    Raw uids come from a process-global counter: rebuilding the same
    program later in one process shifts every uid, which would make
    node ids and edge uid tags incomparable between captures.  Walking
    procedures in sorted-name order and each CFG's nodes in build
    order yields a numbering that depends only on the program text, so
    two captures of the same program always agree.  ``None`` entries
    are skipped (pass the variant interp unconditionally)."""
    out: dict[int, int] = {}
    for interp in interps:
        if interp is None:
            continue
        for name in sorted(interp.cfgs):
            for node in interp.cfgs[name].nodes:
                if node.uid not in out:
                    out[node.uid] = len(out)
    return out


class _Thinner:
    """Reservoir-style emission gate: always admit the first ``cap``
    records, then admit record ``n`` with probability ``cap / n``
    (seeded RNG — deterministic across runs)."""

    def __init__(self, cap: int, seed: int = 0):
        self.cap = cap
        self.count = 0          # exact records offered
        self.written = 0        # records actually emitted
        self._rng = random.Random(seed)

    def admit(self) -> bool:
        self.count += 1
        if self.count <= self.cap:
            self.written += 1
            return True
        if self._rng.random() < self.cap / self.count:
            self.written += 1
            return True
        return False

    @property
    def truncated(self) -> bool:
        return self.count > self.written


class GraphWriter(Observer):
    """Streams graph records to a JSONL file during exploration.

    The writer is an :class:`~repro.mc.explorer.Explorer` observer: it
    writes a node record exactly when the explorer counts a new state
    and an edge record exactly when it counts a transition, so the
    summary totals reconcile with :class:`~repro.mc.explorer.MCResult`
    by construction.  With ``record_pruned`` it also executes the
    successors an ample-set choice left out and writes them as pruned
    records.  ``mover_of`` (uid → ``"R"|"L"|"B"|"N"`` or None) tags
    edges with the static mover classification when available.
    """

    def __init__(self, path: Union[str, pathlib.Path], *,
                 mode: str = "full", threads: int = 0,
                 node_cap: Optional[int] = None,
                 record_pruned: bool = False,
                 mover_of: Optional[Callable[[Optional[int]],
                                             Optional[str]]] = None,
                 uid_map: Optional[dict] = None,
                 events=None):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        cap = node_cap if node_cap is not None else node_cap_from_env()
        self.record_pruned = record_pruned
        self.mover_of = mover_of or (lambda uid: None)
        #: raw uid → stable index (:func:`stable_uid_map`); applied to
        #: the program-counter uids inside state keys before hashing
        #: and to edge uid tags, so captures compare across processes
        self.uid_map = uid_map or {}
        self.events = events
        self._nodes = _Thinner(cap)
        self._edges = _Thinner(cap * EDGE_CAP_FACTOR, seed=1)
        self._pruned_n = 0
        self._max_depth = 0
        self._fh: Optional[IO] = open(self.path, "w")
        self._write({"kind": "graph.header", "v": SCHEMA_VERSION,
                     "mode": mode, "threads": threads, "node_cap": cap,
                     "por_pruned": record_pruned})

    def _write(self, record: dict) -> None:
        self._fh.write(json.dumps(record) + "\n")

    def _key_id(self, key) -> str:
        if self.uid_map:
            from repro.mc.canonical import rebase_node_uids
            world_key, ghosts = key
            key = (rebase_node_uids(world_key, self.uid_map), ghosts)
        return key_id(key)

    # -- explorer observer hooks ---------------------------------------------
    def start(self, explorer, result) -> None:
        self._explorer = explorer
        #: node id of each DFS stack entry (edges leave the top one)
        self._src: list[str] = []
        #: successors the last ample-set choice left out
        self._not_taken: list = []

    def state(self, key, world, depth: int) -> None:
        gid = self._key_id(key)
        self._max_depth = max(self._max_depth, depth)
        if self._nodes.admit():
            record = {"kind": "node", "id": gid, "depth": depth}
            if not self._src:
                record["init"] = True
            if world.quiescent():
                record["q"] = True
            self._write(record)
        self._src.append(gid)

    def pop(self, depth: int) -> None:
        self._src.pop()

    def transition(self, succ, key, dup: bool) -> None:
        if self._edges.admit():
            self._write({"kind": "edge", "src": self._src[-1],
                         "dst": self._key_id(key), "tid": succ.tid,
                         "uid": self.uid_map.get(succ.uid, succ.uid),
                         "op": succ.kind,
                         "mover": self.mover_of(succ.uid), "dup": dup})

    def ample(self, world, tid: int, desc: str, tids: list) -> None:
        if self.record_pruned:
            # the transitions a full expansion would also have taken,
            # executed solely to capture their targets
            self._not_taken = [s for o in tids if o != tid
                               for s in self._explorer.expand_thread(
                                   world, o)]

    def expanded(self, ghosts: tuple, succs: list) -> None:
        if not self._not_taken:
            return
        from repro.mc import explorer as mc_explorer

        # same filters as the counting path: disabled and violating
        # successors never become transitions
        for s in self._not_taken:
            if s.world is None or s.violation is not None:
                continue
            key = (mc_explorer.state_key(s.world),
                   self._explorer._apply_events(ghosts, s.events))
            self._pruned_n += 1
            self._write({"kind": "pruned", "src": self._src[-1],
                         "dst": self._key_id(key), "tid": s.tid,
                         "uid": self.uid_map.get(s.uid, s.uid),
                         "op": s.kind})
        self._not_taken = []

    def close(self) -> None:
        """Write the exact-total summary record and close the file."""
        if self._fh is None:
            return
        truncated = self._nodes.truncated or self._edges.truncated
        self._write({"kind": "graph.summary",
                     "nodes": self._nodes.count,
                     "edges": self._edges.count,
                     "pruned": self._pruned_n,
                     "nodes_written": self._nodes.written,
                     "edges_written": self._edges.written,
                     "truncated": truncated,
                     "max_depth": self._max_depth})
        self._fh.close()
        self._fh = None
        if self.events is not None:
            self.events.emit("mc.graph", nodes=self._nodes.count,
                             edges=self._edges.count,
                             pruned=self._pruned_n,
                             truncated=truncated, path=str(self.path))


# -- reading ---------------------------------------------------------------

def from_records(records: list, source: str = "<records>") -> dict:
    """Assemble already-parsed capture records into ``{header, nodes,
    edges, pruned, summary}`` (``nodes`` is ``{id: record}``; raises
    ``ValueError`` on record streams that are not graph captures or
    carry an unknown schema version)."""
    header = None
    summary = None
    nodes: dict[str, dict] = {}
    edges: list[dict] = []
    pruned: list[dict] = []
    for i, record in enumerate(records):
        kind = record.get("kind")
        if i == 0:
            if kind != "graph.header":
                raise ValueError(
                    f"{source}: not a graph capture "
                    f"(first record kind={kind!r})")
            if record.get("v") != SCHEMA_VERSION:
                raise ValueError(
                    f"{source}: unsupported graph schema "
                    f"v={record.get('v')!r} "
                    f"(expected {SCHEMA_VERSION})")
            header = record
        elif kind == "node":
            nodes[record["id"]] = record
        elif kind == "edge":
            edges.append(record)
        elif kind == "pruned":
            pruned.append(record)
        elif kind == "graph.summary":
            summary = record
        else:
            raise ValueError(
                f"{source}: unknown record kind {kind!r} "
                f"(record {i+1})")
    if header is None:
        raise ValueError(f"{source}: empty graph capture")
    return {"header": header, "nodes": nodes, "edges": edges,
            "pruned": pruned, "summary": summary}


def read_graph(path: Union[str, pathlib.Path]) -> dict:
    """Load a capture file via :func:`from_records`.  A capture with
    no summary record raises ``ValueError``: its writer never closed
    it, so its totals are not exact."""
    doc = from_records(read_jsonl(path), source=str(path))
    if doc["summary"] is None:
        raise ValueError(f"{path}: incomplete graph capture "
                         f"(no graph.summary record)")
    return doc


def _distribution(counts: list[int]) -> dict:
    """min/mean/max + histogram over small integer counts."""
    if not counts:
        return {"min": 0, "mean": 0.0, "max": 0, "hist": []}
    hist: dict[int, int] = {}
    for c in counts:
        hist[c] = hist.get(c, 0) + 1
    return {"min": min(counts),
            "mean": round(sum(counts) / len(counts), 3),
            "max": max(counts),
            "hist": [[k, hist[k]] for k in sorted(hist)]}


def graph_stats(doc: dict) -> dict:
    """Structural analytics over a loaded capture.

    Exact totals come from the summary record; the distributions are
    computed over the *retained* records (equal to exact totals below
    the cap, a uniform-ish sample above it — flagged ``truncated``)."""
    summary = doc.get("summary") or {}
    nodes = doc["nodes"]
    edges = doc["edges"]
    pruned = doc["pruned"]
    n_nodes = summary.get("nodes", len(nodes))
    n_edges = summary.get("edges", len(edges))
    n_pruned = summary.get("pruned", len(pruned))
    out_deg: dict[str, int] = {gid: 0 for gid in nodes}
    in_deg: dict[str, int] = {gid: 0 for gid in nodes}
    for e in edges:
        out_deg[e["src"]] = out_deg.get(e["src"], 0) + 1
        in_deg[e["dst"]] = in_deg.get(e["dst"], 0) + 1
    depth_layers: dict[int, int] = {}
    quiescent = 0
    for record in nodes.values():
        d = record.get("depth", 0)
        depth_layers[d] = depth_layers.get(d, 0) + 1
        if record.get("q"):
            quiescent += 1
    terminal = [gid for gid in nodes if out_deg.get(gid, 0) == 0]
    considered = n_edges + n_pruned
    return {
        "nodes": n_nodes,
        "edges": n_edges,
        "pruned": n_pruned,
        "truncated": bool(summary.get("truncated", False)),
        "max_depth": summary.get("max_depth",
                                 max(depth_layers, default=0)),
        "branching": _distribution(
            [out_deg[g] for g in nodes]),
        "in_degree": _distribution(
            [in_deg[g] for g in nodes]),
        "depth_layers": [[d, depth_layers[d]]
                         for d in sorted(depth_layers)],
        "terminal": len(terminal),
        "quiescent": quiescent,
        # share of considered transitions POR pruned away — 0.0 when
        # pruned edges were not recorded
        "por_reduction_ratio": round(n_pruned / considered, 6)
        if considered else 0.0,
    }


def render_stats(stats: dict) -> str:
    """Human-readable ``repro graph stats`` output."""
    lines = [
        f"nodes        {stats['nodes']:,}"
        + ("  (record emission truncated by cap)"
           if stats["truncated"] else ""),
        f"edges        {stats['edges']:,}",
        f"pruned       {stats['pruned']:,}  "
        f"(POR reduction ratio "
        f"{stats['por_reduction_ratio']:.1%})",
        f"max depth    {stats['max_depth']}",
        f"terminal     {stats['terminal']:,}   "
        f"quiescent {stats['quiescent']:,}",
        f"branching    min={stats['branching']['min']} "
        f"mean={stats['branching']['mean']} "
        f"max={stats['branching']['max']}",
        f"in-degree    min={stats['in_degree']['min']} "
        f"mean={stats['in_degree']['mean']} "
        f"max={stats['in_degree']['max']}",
    ]
    layers = stats["depth_layers"]
    if layers:
        peak = max(n for _, n in layers)
        lines.append("depth layers (nodes first seen at depth):")
        for depth, n in layers:
            bar = "#" * max(1, round(24 * n / peak)) if peak else ""
            lines.append(f"  {depth:>4}  {n:>8,}  {bar}")
    return "\n".join(lines)


def to_dot(doc: dict, max_nodes: int = DEFAULT_DOT_CAP) -> str:
    """Render the retained subgraph as GraphViz DOT (raises
    ``ValueError`` above ``max_nodes`` — DOT is for small graphs)."""
    nodes = doc["nodes"]
    if len(nodes) > max_nodes:
        raise ValueError(
            f"graph has {len(nodes)} retained nodes; DOT export is "
            f"capped at {max_nodes} (raise with --max-nodes)")
    mover_color = {"R": "#2b8cbe", "L": "#e34a33", "B": "#31a354",
                   "N": "#756bb1"}
    lines = ["digraph statespace {",
             "  rankdir=LR;",
             '  node [shape=circle, style=filled, '
             'fillcolor="#f0f0f0", fontsize=8];']
    for gid, record in nodes.items():
        attrs = [f'label="{gid[:6]}"']
        if record.get("init"):
            attrs.append('shape=doublecircle')
            attrs.append('fillcolor="#a1d99b"')
        elif record.get("q"):
            attrs.append('fillcolor="#fee391"')
        lines.append(f'  "{gid}" [{", ".join(attrs)}];')
    for e in doc["edges"]:
        color = mover_color.get(e.get("mover") or "", "#636363")
        style = "dashed" if e.get("dup") else "solid"
        label = f't{e["tid"]}'
        if e.get("uid") is not None:
            label += f'@{e["uid"]}'
        lines.append(
            f'  "{e["src"]}" -> "{e["dst"]}" '
            f'[label="{label}", color="{color}", style={style}, '
            f'fontsize=7];')
    for e in doc["pruned"]:
        lines.append(
            f'  "{e["src"]}" -> "{e["dst"]}" '
            f'[label="t{e["tid"]} (pruned)", color="#bdbdbd", '
            f'style=dotted, fontsize=7];')
    lines.append("}")
    return "\n".join(lines)


# -- diffing ---------------------------------------------------------------

def _edge_key(e: dict) -> tuple:
    return (e["src"], e["dst"], e.get("tid"), e.get("uid"),
            e.get("op"))


def diff_graphs(a: dict, b: dict) -> dict:
    """Structural drift between two captures by canonical ids.

    Returns ``{identical, nodes_only_a, nodes_only_b, edges_only_a,
    edges_only_b, samples}`` — empty drift means the two explorations
    visited exactly the same states and transitions.  Captures that
    were truncated by the node cap diff their *retained* records
    (deterministic thinning keeps this meaningful for identical runs,
    but drift counts become lower bounds)."""
    a_nodes, b_nodes = set(a["nodes"]), set(b["nodes"])
    a_edges = {_edge_key(e) for e in a["edges"]}
    b_edges = {_edge_key(e) for e in b["edges"]}
    only_a_n = sorted(a_nodes - b_nodes)
    only_b_n = sorted(b_nodes - a_nodes)
    only_a_e = sorted(a_edges - b_edges)
    only_b_e = sorted(b_edges - a_edges)
    identical = not (only_a_n or only_b_n or only_a_e or only_b_e)
    sa = (a.get("summary") or {})
    sb = (b.get("summary") or {})
    for name in ("nodes", "edges", "pruned"):
        if sa.get(name) != sb.get(name):
            identical = False
    return {
        "identical": identical,
        "counts_a": {k: sa.get(k) for k in ("nodes", "edges", "pruned")},
        "counts_b": {k: sb.get(k) for k in ("nodes", "edges", "pruned")},
        "nodes_only_a": len(only_a_n),
        "nodes_only_b": len(only_b_n),
        "edges_only_a": len(only_a_e),
        "edges_only_b": len(only_b_e),
        "samples": {
            "nodes_only_a": only_a_n[:DIFF_SAMPLES],
            "nodes_only_b": only_b_n[:DIFF_SAMPLES],
            "edges_only_a": [list(e) for e in only_a_e[:DIFF_SAMPLES]],
            "edges_only_b": [list(e) for e in only_b_e[:DIFF_SAMPLES]],
        },
    }


def render_diff(drift: dict, name_a: str = "A",
                name_b: str = "B") -> str:
    """Human-readable drift table for ``repro graph diff``."""
    if drift["identical"]:
        return "graphs identical"
    rows = [("", name_a, name_b)]
    ca, cb = drift["counts_a"], drift["counts_b"]
    for key in ("nodes", "edges", "pruned"):
        rows.append((key, str(ca.get(key)), str(cb.get(key))))
    rows.append(("nodes only in", str(drift["nodes_only_a"]),
                 str(drift["nodes_only_b"])))
    rows.append(("edges only in", str(drift["edges_only_a"]),
                 str(drift["edges_only_b"])))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["graph drift:"]
    for r in rows:
        lines.append("  " + "  ".join(
            r[i].ljust(widths[i]) for i in range(3)).rstrip())
    samples = drift["samples"]
    for bucket in ("nodes_only_a", "nodes_only_b"):
        if samples[bucket]:
            side = name_a if bucket.endswith("_a") else name_b
            lines.append(f"  sample nodes only in {side}: "
                         + ", ".join(samples[bucket]))
    for bucket in ("edges_only_a", "edges_only_b"):
        if samples[bucket]:
            side = name_a if bucket.endswith("_a") else name_b
            shown = ", ".join(
                f"{e[0][:6]}->{e[1][:6]} t{e[2]}"
                for e in samples[bucket])
            lines.append(f"  sample edges only in {side}: {shown}")
    return "\n".join(lines)
