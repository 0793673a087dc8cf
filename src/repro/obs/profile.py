"""The one scoped timer: work-counter profiling and span tracing
(zero-dep).

A scoped ``profiler.region("name", **attrs)`` (plus the lock-free
:meth:`Profiler.acc` hot-loop form) feeds three views of one run:

* the **span tree** — every region is a :class:`Span` under the
  innermost open region, with its attributes and monotonic
  (``time.perf_counter``) start and end.  ``--trace`` prints it
  (:meth:`Profiler.render_spans`) and the ``trace``/``spans`` JSON
  keys carry it (:meth:`Profiler.spans`);
* the **entries** — three numbers per dotted name: ``calls``,
  ``work`` (an explicit, deterministic unit count — sites classified,
  states expanded, rule firings, …) and ``wall_s``.  Work and call
  counts are *deterministic*: two identical runs produce identical
  counters, so they diff cleanly across commits even though wall
  times jitter.  :meth:`Profiler.hotspots` ranks them by wall time
  (deterministic ``work`` then name break ties) with each entry's
  share of the total *attributed* time; regions nest, so shares are an
  attribution summary, not a partition of the run;
* the **collapsed stacks** — every ``acc``/region exit also credits
  its wall time to the full ``outer;inner`` path of open regions.

:meth:`Profiler.to_dict` emits the schema-validated profile document
that ``--json --profile`` embeds in every obs command's output
(:data:`repro.obs.export.PROFILE_SCHEMA`): the ranked hotspots and,
under ``folded``, the collapsed stacks.  For a per-function view
of code that carries no regions, run ``python -m cProfile -m repro``.

A disabled profiler (``Profiler(enabled=False)``, or the shared
:data:`NULL_PROFILER`) hands back one reusable no-op context manager
and every mutator returns after a single attribute check, so
instrumented hot paths cost nothing measurable when profiling is off.
"""

from __future__ import annotations

import sys
import time
from typing import Iterator, Optional

from repro.obs.schemas import PROFILE as PROFILE_VERSION


class _NullRegion:
    """Reusable no-op context manager for disabled profilers."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_REGION = _NullRegion()


# -- folded-path escaping ------------------------------------------------------
#
# A folded path joins frames with ";", and the line format that
# flame-graph tools read ends it at a space before the sample count.
# A region name containing ";" or whitespace would read as extra
# frames, so frames are escaped at path-build time.

_ESCAPES = {"\\": "\\\\", ";": "\\;", " ": "\\s",
            "\t": "\\t", "\n": "\\n"}
_ESC_CACHE: dict[str, str] = {}


def escape_frame(name: str) -> str:
    """Escape one stack frame for the folded format (``\\\\``, ``\\;``,
    ``\\s``, ``\\t``, ``\\n``).  Cached: region names form a small
    fixed vocabulary, so the hot path is one dict hit."""
    cached = _ESC_CACHE.get(name)
    if cached is None:
        if len(_ESC_CACHE) > 4096:  # pragma: no cover — runaway guard
            _ESC_CACHE.clear()
        if any(c in name for c in "\\; \t\n"):
            cached = "".join(_ESCAPES.get(c, c) for c in name)
        else:
            cached = name
        _ESC_CACHE[name] = cached
    return cached


class Span:
    """One timed region.  ``end`` is ``None`` while the span is open."""

    __slots__ = ("name", "attrs", "start", "end", "children")

    def __init__(self, name: str, attrs: Optional[dict] = None):
        self.name = name
        self.attrs = attrs or {}
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now for a still-open span)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "duration_s": round(self.duration, 6),
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def render(self, depth: int = 0) -> str:
        attrs = "".join(f" {k}={v}" for k, v in self.attrs.items())
        lines = [f"{'  ' * depth}{self.name}  "
                 f"{self.duration * 1000:.2f}ms{attrs}"]
        lines.extend(c.render(depth + 1) for c in self.children)
        return "\n".join(lines)


class _Region:
    __slots__ = ("profiler", "span")

    def __init__(self, profiler: "Profiler", span: Span):
        self.profiler = profiler
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> bool:
        self.profiler._close(self.span)
        return False


class Profiler:
    """Named accumulator of ``(calls, work, wall_s)`` triples, plus the
    span tree of the regions that fed it.

    Not thread-safe by design: the inference pipeline and the DFS are
    single-threaded.  Hot loops accumulate locally and flush once.
    """

    __slots__ = ("enabled", "roots", "_entries", "_stack", "_folded")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: top-level spans, in opening order
        self.roots: list[Span] = []
        # name -> [calls, work, wall_s]
        self._entries: dict[str, list] = {}
        # the open regions, innermost last, and the collapsed-stack
        # accumulator they feed: "outer;inner" -> cumulative wall_s
        # (parents include their children's time)
        self._stack: list[Span] = []
        self._folded: dict[str, float] = {}

    # -- accumulation ------------------------------------------------------
    def region(self, name: str, **attrs):
        """Timed scope: a span under the innermost open region, and on
        exit one call + its wall time on ``name``.  The span opens
        here, so a scope may also be closed by hand with
        ``__exit__``."""
        if not self.enabled:
            return _NULL_REGION
        span = Span(name, attrs or None)
        stack = self._stack
        (stack[-1].children if stack else self.roots).append(span)
        stack.append(span)
        return _Region(self, span)

    def _close(self, span: Span) -> None:
        """Close ``span`` and any region still open inside it (left
        open by a hand-closed scope), crediting each to its name."""
        if span.end is not None:
            return
        stack = self._stack
        while stack:
            top = stack.pop()
            top.end = time.perf_counter()
            self.acc(top.name, top.end - top.start)
            if top is span:
                break

    def add(self, name: str, work: float = 1) -> None:
        """Count deterministic work units (no timing)."""
        if not self.enabled or not work:
            return
        entry = self._entries.get(name)
        if entry is None:
            entry = self._entries[name] = [0, 0, 0.0]
        entry[1] += work

    def acc(self, name: str, wall_s: float, work: float = 0,
            calls: int = 1) -> None:
        """Flush locally accumulated hot-loop numbers in one call."""
        if not self.enabled:
            return
        entry = self._entries.get(name)
        if entry is None:
            entry = self._entries[name] = [0, 0, 0.0]
        entry[0] += calls
        entry[1] += work
        entry[2] += wall_s
        if wall_s > 0:
            if self._stack:
                path = ";".join(
                    escape_frame(s.name) for s in self._stack) \
                    + ";" + escape_frame(name)
            else:
                path = escape_frame(name)
            self._folded[path] = self._folded.get(path, 0.0) + wall_s

    # -- reporting ---------------------------------------------------------
    def counters(self) -> dict[str, dict]:
        """``{name: {calls, work}}`` — the deterministic part only
        (wall times excluded), for run-to-run comparison."""
        return {name: {"calls": e[0], "work": e[1]}
                for name, e in sorted(self._entries.items())}

    def hotspots(self, limit: Optional[int] = None) -> list[dict]:
        """Entries ranked by wall time (desc), then work, then name.
        ``share`` is the entry's fraction of the total attributed wall
        time (regions may nest, so shares can sum past 1)."""
        total = sum(e[2] for e in self._entries.values())
        ranked = sorted(
            self._entries.items(),
            key=lambda kv: (-kv[1][2], -kv[1][1], kv[0]))
        if limit is not None:
            ranked = ranked[:limit]
        return [{"name": name,
                 "calls": entry[0],
                 "work": entry[1],
                 "wall_s": round(entry[2], 6),
                 "share": round(entry[2] / total, 4) if total else 0.0}
                for name, entry in ranked]

    def to_dict(self, limit: Optional[int] = None) -> dict:
        out: dict = {"v": PROFILE_VERSION,
                     "hotspots": self.hotspots(limit)}
        if self._folded:
            out["folded"] = {path: round(wall, 6)
                             for path, wall in
                             sorted(self._folded.items())}
        return out

    def spans(self) -> list[dict]:
        """The span tree as JSON (the ``trace``/``spans`` documents)."""
        return [s.to_dict() for s in self.roots]

    def render_spans(self) -> str:
        """The span tree as indented text (``--trace``)."""
        return "\n".join(s.render() for s in self.roots)

    def render(self, limit: int = 20) -> str:
        """Ranked hotspot table (fixed-width text)."""
        rows = self.hotspots(limit)
        if not rows:
            return "(no profile data)"
        width = max(len(r["name"]) for r in rows)
        lines = [f"{'region'.ljust(width)}  {'wall_ms':>9} "
                 f"{'share':>6} {'calls':>8} {'work':>10}"]
        for r in rows:
            lines.append(
                f"{r['name'].ljust(width)}  "
                f"{r['wall_s'] * 1000:>9.2f} "
                f"{r['share'] * 100:>5.1f}% "
                f"{r['calls']:>8} {r['work']:>10}")
        return "\n".join(lines)


#: shared disabled profiler — the default for instrumented call sites.
NULL_PROFILER = Profiler(enabled=False)


#: throughput rates computed over windows at or below this are
#: noise-dominated (timer resolution + interpreter jitter swamp the
#: signal on sub-millisecond runs) and are reported as 0.0
MIN_RATE_WINDOW_S = 0.001


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (0.0 when the
    platform has no ``resource`` module, e.g. Windows)."""
    try:
        import resource
    except ImportError:  # pragma: no cover — POSIX-only module
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KB on Linux, bytes on macOS
    if sys.platform == "darwin":  # pragma: no cover
        return round(peak / (1024 * 1024), 3)
    return round(peak / 1024, 3)


def malloc_top(limit: int = 10) -> list[dict]:
    """Top current allocation sites from :mod:`tracemalloc` (must
    already be tracing; returns [] otherwise).  Each entry is
    ``{site, kb, count}`` — opt-in memory attribution for the
    explorer's state store."""
    import tracemalloc

    if not tracemalloc.is_tracing():
        return []
    snapshot = tracemalloc.take_snapshot()
    stats = snapshot.statistics("lineno")[:limit]
    return [{"site": f"{s.traceback[0].filename}:"
                     f"{s.traceback[0].lineno}",
             "kb": round(s.size / 1024, 1),
             "count": s.count}
            for s in stats]
