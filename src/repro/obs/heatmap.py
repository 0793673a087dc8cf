"""Source-level state-space heatmaps.

The explorer's :class:`~repro.mc.observers.Coverage` observer (always
attached by ``repro mc``) keeps per-statement counters — for every
explored transition that executed CFG node ``uid``: how many times it
ran (*visits*), how many of those runs were a context switch (the
scheduled thread differed from the thread that took the parent step —
*switches*, a direct measure of interleaving pressure at that
statement), and which threads ever ran it.

This module turns those raw ``[[uid, visits, switches, tid_mask]]``
rows into a *source overlay*: each CFG uid is resolved back to its
procedure, one-line source text (:func:`repro.mc.cex.describe_node`),
and — when an analysis is supplied — the mover classification the §5.4
inference assigned to the report line covering that statement's source
position (the :func:`repro.analysis.report.statement_join` that
counterexample explanations read too).  ``repro mc --json`` embeds the
overlay under ``"heatmap"``: statement text × visit intensity × mover
class, the localization layer repair tools need.
"""

from __future__ import annotations

from typing import Optional

from repro.cfg.graph import CONTROL_KINDS
from repro.obs.schemas import HEATMAP as SCHEMA_VERSION


def uid_annotations(interp, join=None) -> dict[int, dict]:
    """Map every CFG node uid to ``{proc, text, mover}``.

    ``join`` is the analysis's
    :func:`~repro.analysis.report.statement_join`.  ``mover`` is the
    static classification (``"R"|"L"|"B"|"A"|"N"``) of the report line
    covering the statement, ``"B"`` for pure control flow and for
    statements no variant line covers (Thm 3.1), else None (no
    analysis of the procedure)."""
    from repro.mc.cex import describe_node

    out: dict[int, dict] = {}
    for proc_name, cfg in interp.cfgs.items():
        proc_join = join.get(proc_name) if join is not None else None
        for node in cfg.nodes:
            mover: Optional[str] = None
            if node.kind in CONTROL_KINDS:
                mover = "B"
            elif proc_join is not None:
                la = proc_join.line_of(node)
                mover = la.mover if la is not None else "B"
            out[node.uid] = {"proc": proc_name,
                             "text": describe_node(node), "mover": mover}
    return out


def build_heatmap(stmt_heat: list, annotations: dict[int, dict],
                  annotated: bool = True) -> dict:
    """Assemble the schema-versioned heatmap document from the
    Coverage observer's raw rows (``metrics["mc.stmt_heat"]``).

    Rows are ordered by procedure then uid — source order within a
    procedure — and uids the annotation map does not know still
    appear, with null proc/text."""
    rows = []
    for uid, visits, switches, threads in stmt_heat:
        meta = annotations.get(uid) or {"proc": None, "text": None,
                                        "mover": None}
        rows.append({"uid": uid, "proc": meta["proc"],
                     "text": meta["text"], "mover": meta["mover"],
                     "visits": visits, "switches": switches,
                     "threads": threads})
    rows.sort(key=lambda r: (r["proc"] or "~", r["uid"]))
    return {"v": SCHEMA_VERSION, "annotated": annotated,
            "total_visits": sum(r["visits"] for r in rows),
            "rows": rows}
