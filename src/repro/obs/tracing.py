"""Hierarchical span tracing with monotonic clocks.

A :class:`Tracer` hands out :class:`Span` context managers::

    tracer = Tracer(enabled=True)
    with tracer.span("analysis"):
        with tracer.span("variants", rounds=2):
            ...
    print(tracer.render())

Spans nest on one open-span stack: the pipeline and the model checker
are single-threaded, and parallel work runs in forked processes
(:mod:`repro.obs.fleet`), never in threads.  Timing uses
``time.perf_counter`` — monotonic, unaffected by wall-clock jumps.

A disabled tracer (``Tracer(enabled=False)``, or the shared
:data:`NULL_TRACER`) returns one reusable no-op context manager, so the
instrumented hot paths cost a single attribute check when tracing is
off.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional


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

    def close(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()

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


class _NullSpanContext:
    """Reusable no-op context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CM = _NullSpanContext()


class _SpanContext:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> bool:
        self.tracer._pop(self.span)
        return False


class Tracer:
    """Collector of span trees."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- span lifecycle ----------------------------------------------------
    def span(self, name: str, **attrs):
        """Open a child span of the innermost open span."""
        if not self.enabled:
            return _NULL_CM
        span = Span(name, attrs or None)
        stack = self._stack
        (stack[-1].children if stack else self.roots).append(span)
        stack.append(span)
        return _SpanContext(self, span)

    def _pop(self, span: Span) -> None:
        span.close()
        stack = self._stack
        # close any dangling descendants left open by early exits
        while stack and stack[-1] is not span:
            stack.pop().close()
        if stack:
            stack.pop()

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- output ------------------------------------------------------------
    def reset(self) -> None:
        self.roots = []
        self._stack = []

    def to_dict(self) -> list[dict]:
        return [s.to_dict() for s in self.roots]

    def render(self) -> str:
        return "\n".join(s.render() for s in self.roots)


#: shared disabled tracer — the default for all instrumented call sites.
NULL_TRACER = Tracer(enabled=False)
