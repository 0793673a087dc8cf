"""Deterministic work-counter profiling (zero-dep).

The span tracer answers *which phase* was slow; this module answers
*which work inside a phase* cost the time.  Two collectors, one
report:

* the **region profiler** — scoped ``profiler.region("name")``
  contexts (plus the lock-free :meth:`Profiler.acc` hot-loop form)
  accumulate three numbers per dotted name: ``calls``, ``work`` (an
  explicit, deterministic unit count — sites classified, states
  expanded, rule firings, …) and ``wall_s``.  Work and call counts
  are *deterministic*: two identical runs produce identical counters,
  so they diff cleanly across commits even though wall times jitter;
* the **sampling fallback** — a ``sys.setprofile``-based collector
  (:class:`Sampler`) that attributes call counts and cumulative time
  per Python function, for code that carries no region
  instrumentation yet.  It is far more intrusive (every function
  call/return pays the hook), so it is opt-in behind
  ``--profile-sample`` / ``REPRO_PROFILE=sample``.

Region scopes additionally maintain a live nesting stack feeding a
**collapsed-stack accumulator**: every ``acc``/region exit credits its
wall time to the full ``outer;inner`` path, so
:meth:`Profiler.folded_lines` emits standard folded format (integer
microsecond counts, flamegraph.pl/speedscope-ready, ``--profile-out``)
and ``repro report`` renders an inline SVG flame chart from the same
data.

The report surface is :meth:`Profiler.hotspots` — entries ranked by
wall time (deterministic ``work`` then name break ties) with each
entry's share of the total *attributed* time.  Regions may nest and
overlap, so shares are an attribution summary, not a partition of the
run.  :meth:`Profiler.to_dict` emits the schema-validated document
embedded in analysis/MC JSON output
(:data:`repro.obs.export.PROFILE_SCHEMA`).

Disabled profilers follow the ``NULL_TRACER`` pattern: the shared
:data:`NULL_PROFILER` hands back one reusable no-op context manager
and every mutator returns after a single attribute check, so
instrumented hot paths cost nothing measurable when profiling is off.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

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
# The collapsed-stack format is line-oriented: frames joined with ";",
# then a space and the sample count.  A region name containing ";" or
# whitespace would silently corrupt the file (extra frames, shifted
# counts), so frames are escaped at path-build time and every consumer
# (``parse_folded_lines`` / ``split_path``) round-trips them back.

_ESCAPES = {"\\": "\\\\", ";": "\\;", " ": "\\s",
            "\t": "\\t", "\n": "\\n"}
_UNESCAPES = {"\\": "\\", ";": ";", "s": " ", "t": "\t", "n": "\n"}
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


def unescape_frame(frame: str) -> str:
    """Inverse of :func:`escape_frame` for a single frame."""
    if "\\" not in frame:
        return frame
    out: list[str] = []
    i = 0
    while i < len(frame):
        ch = frame[i]
        if ch == "\\" and i + 1 < len(frame):
            out.append(_UNESCAPES.get(frame[i + 1], frame[i + 1]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def split_path(path: str) -> list[str]:
    """Split an escaped folded path on unescaped ``;`` into raw
    (unescaped) frame names.  A regex lookbehind would misread
    ``\\\\;`` (escaped backslash before a real separator), so this is
    a manual scan."""
    frames: list[str] = []
    cur: list[str] = []
    i = 0
    while i < len(path):
        ch = path[i]
        if ch == "\\" and i + 1 < len(path):
            cur.append(ch)
            cur.append(path[i + 1])
            i += 2
        elif ch == ";":
            frames.append(unescape_frame("".join(cur)))
            cur = []
            i += 1
        else:
            cur.append(ch)
            i += 1
    frames.append(unescape_frame("".join(cur)))
    return frames


def parse_folded_lines(lines) -> dict[str, int]:
    """Parse folded-format lines back into ``{path: usecs}`` (paths
    kept escaped, exactly as written — feed them to
    :func:`split_path` for raw frames).  Escaped frames contain no
    literal whitespace, so the count is everything after the last
    space.  Blank and malformed lines are skipped."""
    out: dict[str, int] = {}
    for line in lines:
        line = line.strip("\n")
        if not line.strip():
            continue
        path, sep, count = line.rpartition(" ")
        if not sep or not path:
            continue
        try:
            usecs = int(count)
        except ValueError:
            continue
        out[path] = out.get(path, 0) + usecs
    return out


class _Region:
    __slots__ = ("profiler", "name", "start")

    def __init__(self, profiler: "Profiler", name: str):
        self.profiler = profiler
        self.name = name
        self.start = 0.0

    def __enter__(self) -> "_Region":
        self.profiler._stack.append(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self.start
        stack = self.profiler._stack
        if stack and stack[-1] == self.name:
            stack.pop()
        self.profiler.acc(self.name, elapsed)
        return False


class Profiler:
    """Named accumulator of ``(calls, work, wall_s)`` triples.

    Not thread-safe by design: the inference pipeline and the DFS are
    single-threaded.  Hot loops accumulate locally and flush once.
    """

    __slots__ = ("enabled", "_entries", "_stack", "_folded")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        # name -> [calls, work, wall_s]
        self._entries: dict[str, list] = {}
        # live region-nesting stack (region() scopes push/pop) and
        # the collapsed-stack accumulator it feeds:
        # "outer;inner" -> cumulative wall_s, flame-chart/folded food
        self._stack: list[str] = []
        self._folded: dict[str, float] = {}

    # -- accumulation ------------------------------------------------------
    def region(self, name: str):
        """Timed scope: one call + elapsed wall time on ``name``."""
        if not self.enabled:
            return _NULL_REGION
        return _Region(self, name)

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
                    escape_frame(f) for f in self._stack) \
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

    def folded(self) -> dict[str, float]:
        """Collapsed-stack view: ``{"outer;inner": wall_s}`` per
        region-nesting path (parents include their children's time —
        region scopes are cumulative)."""
        return dict(self._folded)

    def folded_lines(self) -> list[str]:
        """Brendan-Gregg folded format: one ``path count`` line per
        nesting path, counts in integer microseconds — feed straight
        into ``flamegraph.pl`` or speedscope."""
        return [f"{path} {max(1, round(wall * 1_000_000))}"
                for path, wall in sorted(self._folded.items())]

    def write_folded(self, path) -> None:
        """Write :meth:`folded_lines` to ``path``."""
        import pathlib

        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(self.folded_lines()) + "\n")

    def to_dict(self, sampler: Optional["Sampler"] = None,
                limit: Optional[int] = None) -> dict:
        out: dict = {"v": PROFILE_VERSION,
                     "hotspots": self.hotspots(limit)}
        if self._folded:
            out["folded"] = {path: round(wall, 6)
                             for path, wall in
                             sorted(self._folded.items())}
        if sampler is not None and sampler.stats:
            out["sampled"] = sampler.top(25)
        return out

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

    def emit_hotspots(self, events, limit: int = 10) -> None:
        """Mirror the top hotspots into an
        :class:`~repro.obs.events.EventStream` (``profile.hotspot``
        kind), so ``--events-out`` / Chrome-trace export carry them
        without new plumbing."""
        if events is None:
            return
        for entry in self.hotspots(limit):
            events.emit("profile.hotspot", name=entry["name"],
                        wall_s=entry["wall_s"], work=entry["work"],
                        calls=entry["calls"])

    def merge(self, other: "Profiler") -> None:
        """Fold another profiler's entries into this one."""
        if not self.enabled:
            return
        for name, entry in other._entries.items():
            entry_self = self._entries.get(name)
            if entry_self is None:
                entry_self = self._entries[name] = [0, 0, 0.0]
            entry_self[0] += entry[0]
            entry_self[1] += entry[1]
            entry_self[2] += entry[2]
        for path, wall in other._folded.items():
            self._folded[path] = self._folded.get(path, 0.0) + wall

    def state(self) -> dict:
        """Raw JSON-ready state for cross-process transport: the full
        ``(calls, work, wall_s)`` triples plus the collapsed-stack
        accumulator — unlike :meth:`counters` (which drops wall) and
        :meth:`to_dict` (which ranks and rounds), a profiler
        round-tripped through :meth:`from_state` merges losslessly."""
        return {"entries": {name: [e[0], e[1], e[2]]
                            for name, e in sorted(self._entries.items())},
                "folded": {path: wall
                           for path, wall in sorted(self._folded.items())}}

    @classmethod
    def from_state(cls, doc: dict) -> "Profiler":
        inst = cls()
        inst._entries = {name: [e[0], e[1], float(e[2])]
                         for name, e in (doc.get("entries") or {}).items()}
        inst._folded = {path: float(wall)
                        for path, wall in (doc.get("folded") or {}).items()}
        return inst


#: shared disabled profiler — the default for instrumented call sites.
NULL_PROFILER = Profiler(enabled=False)


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


class Sampler:
    """``sys.setprofile``-based per-function cost attribution.

    Tracks every Python call/return while active and accumulates
    ``{(module, qualname): [calls, cum_s]}``; C calls are ignored.
    Use as a context manager around the region of interest.  The hook
    slows execution substantially (every frame pays it) — this is the
    fallback for code without ``region`` instrumentation, not the
    default path.
    """

    def __init__(self, prefix: str = "repro"):
        self.prefix = prefix
        self.stats: dict[tuple, list] = {}
        self._stack: list[tuple] = []
        self._prev = None

    def _hook(self, frame, event, arg):
        if event == "call":
            self._stack.append((frame.f_code, time.perf_counter()))
        elif event == "return" and self._stack:
            code, start = self._stack.pop()
            if code is not frame.f_code:
                return  # unwound through an exception; drop the frame
            module = frame.f_globals.get("__name__", "?")
            if not module.startswith(self.prefix):
                return
            key = (module, code.co_qualname)
            entry = self.stats.get(key)
            if entry is None:
                entry = self.stats[key] = [0, 0.0]
            entry[0] += 1
            entry[1] += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._prev = sys.getprofile()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._prev)
        self._stack.clear()

    def top(self, limit: int = 25) -> list[dict]:
        """Functions ranked by cumulative time."""
        ranked = sorted(self.stats.items(),
                        key=lambda kv: (-kv[1][1], kv[0]))
        return [{"name": f"{module}.{qual}",
                 "calls": entry[0],
                 "cum_s": round(entry[1], 6)}
                for (module, qual), entry in ranked[:limit]]
