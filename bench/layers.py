"""Per-layer tracing for the benchmark's traced runs (``--trace 1``).

The tracer wraps, from outside the program, the public functions each
layer of ``repro`` exposes (a layer is a module; the table is
:data:`LAYERS`).  Every wrapped call pushes a frame on one layer stack,
so a layer's *self* time is its calls' duration minus the part covered
by calls into other wrapped layers.  Cyclic-GC pauses, seen through
``gc.callbacks``, are taken out of the layer they interrupted and
reported as ``runtime.gc``; self times plus GC pauses therefore
partition the wrapped root call (``Explorer.run`` for the model checker).

Hot calls (tens of thousands per exploration) are only aggregated, per
task, as ``{calls, total_s, self_s}``.  Coarse calls (explorations and
analysis stages) also become spans, kept in memory and exported at the
end.  A wrap target that no longer exists is reported in ``missing``;
its layer's metrics then read ``None`` instead of a silently wrong 0.
"""

from __future__ import annotations

import gc
import importlib
import time

_INF = "repro.analysis.inference"
_EXP = "repro.mc.explorer"

#: layer -> (spans recorded?, wrap targets as (module, attribute path)).
#: Names bound in ``repro.mc.explorer`` / ``repro.analysis.inference``
#: are wrapped where those modules look them up, so calls made from
#: elsewhere (e.g. ``state_key`` inside ``run_to_commit``) stay in the
#: caller's self time.  A class target is wrapped as its constructor.
LAYERS: dict[str, tuple[bool, tuple[tuple[str, str], ...]]] = {
    "mc.explorer": (True, ((_EXP, "Explorer.run"),)),
    "mc.canonical": (False, ((_EXP, "state_key"), (_EXP, "quiescent_key"),
                             (_EXP, "shared_key"))),
    "mc.por": (False, (("repro.mc.por", "SafetyCache.thread_safe"),)),
    "mc.atomic": (False, ((_EXP, "run_to_commit"), (_EXP, "run_variant"))),
    # every Property subclass's own on_event/check_state/check_quiescent
    "mc.properties": (False, (("repro.mc.properties", "Property.*"),)),
    "interp.step": (False, (("repro.interp.interp", "Interp.step"),)),
    "interp.copy": (False, (("repro.interp.state", "World.copy"),)),
    "synl.load": (True, ((_INF, "load_program"),)),
    "cfg.build": (True, ((_INF, "build_cfg"),)),
    "cfg.dominators": (True, ((_INF, "Dominators"),)),
    "analysis.lint": (True, (("repro.analysis.lint", "lint_program"),)),
    "analysis.purity": (True, ((_INF, "escape_analysis"),
                               (_INF, "uniqueness_analysis"),
                               (_INF, "pure_loops"))),
    "analysis.variants": (True, ((_INF, "make_variants"),)),
    "analysis.alias": (True, ((_INF, "infer_classes"),
                              (_INF, "AliasAnalysis"))),
    "analysis.windows": (True, ((_INF, "WindowIndex"),
                                (_INF, "lockset_analysis"),
                                (_INF, "blocks_of_program"))),
    "analysis.classify": (True, ((_INF, "AtomicityChecker.run"),)),
}

_PROPERTY_HOOKS = ("on_event", "check_state", "check_quiescent")


def _observe_explorer(counts, args, result):
    explorer = args[0]
    counts["mc.states"] += result.states
    counts["mc.transitions"] += result.transitions
    counts["mc.ample_reduced"] += result.metrics["mc.ample_reduced"]
    counts["mc.ample_full"] += result.metrics["mc.ample_full"]
    counts["mc.safety_hits"] += explorer.safety.hits
    counts["mc.safety_misses"] += explorer.safety.misses


def _observe_cfg(counts, args, cfg):
    counts["cfg.nodes"] += len(cfg.nodes)


def _observe_analysis(counts, args, result):
    counts["analysis.variants.count"] += len(result.variant_set.variants)
    counts["analysis.sites"] += sum(len(ctx.sites)
                                    for ctx in result.contexts.values())


#: counts read off a wrapped call's arguments and result, keyed by the
#: wrap target; each observer feeds the counts it names
_OBSERVERS = {
    (_EXP, "Explorer.run"): (_observe_explorer, (
        "mc.states", "mc.transitions", "mc.ample_reduced", "mc.ample_full",
        "mc.safety_hits", "mc.safety_misses")),
    (_INF, "build_cfg"): (_observe_cfg, ("cfg.nodes",)),
    (_INF, "AtomicityChecker.run"): (_observe_analysis, (
        "analysis.variants.count", "analysis.sites")),
}

COUNTS = tuple(name for _fn, names in _OBSERVERS.values() for name in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Layer stack, per-layer aggregates, GC pauses and spans for one
    process.  ``install`` wraps the targets, ``uninstall`` restores
    them; tasks are delimited with ``begin_task``/``end_task``."""

    def __init__(self) -> None:
        #: layer -> [calls, total_s, self_s]
        self.stats = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        self.counts = dict.fromkeys(COUNTS, 0)
        #: [collections, pause_s]
        self.gc = [0, 0.0]
        #: layers and counts that could not be measured
        self.missing: set[str] = set()
        self.spans: list[dict] = []
        self.tasks: list[dict] = []
        # frames are [child_s, span id]; the bottom one is the task level
        self._stack: list[list] = [[0.0, None]]
        self._undo: list = []
        self._epoch = time.perf_counter()
        self._gc_t0 = 0.0
        self._task: dict | None = None

    # -- wrapping -------------------------------------------------------------
    def install(self) -> None:
        for layer, (spans, targets) in LAYERS.items():
            stat = self.stats[layer]
            for module_name, path in targets:
                sites = self._resolve(module_name, path)
                observer = _OBSERVERS.get((module_name, path))
                if sites is None:
                    self.missing.add(layer)
                    if observer is not None:
                        self.missing.update(observer[1])
                    continue
                for owner, name, original in sites:
                    wrapper = self._wrap(original, stat,
                                         layer if spans else None, observer)
                    setattr(owner, name, wrapper)
                    self._undo.append((owner, name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @staticmethod
    def _resolve(module_name: str, path: str):
        """``[(owner, attribute, original)]`` to wrap, or None when the
        target is gone."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None
        owner_name, _, attr = path.rpartition(".")
        owner = module
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type):
                return None
        if attr == "*":
            # hooks of every subclass defined in the module
            if not all(h in owner.__dict__ for h in _PROPERTY_HOOKS):
                return None
            return [(cls, hook, cls.__dict__[hook])
                    for cls in vars(module).values()
                    if isinstance(cls, type) and issubclass(cls, owner)
                    for hook in _PROPERTY_HOOKS if hook in cls.__dict__]
        if owner_name:
            if attr not in owner.__dict__:
                return None
            return [(owner, attr, owner.__dict__[attr])]
        if not callable(getattr(module, attr, None)):
            return None
        return [(module, attr, getattr(module, attr))]

    def _wrap(self, fn, stat, span_name, observer):
        stack = self._stack
        perf = time.perf_counter
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if span_name is not None:
                frame[1] = len(spans)
                spans.append(None)  # reserve the id; filled on return
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent[0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if span_name is not None:
                    spans[frame[1]] = tracer._span(
                        span_name, t0, t0 + dt, parent[1])
            if observer is not None:
                tracer._observe(observer, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, observer, args, out) -> None:
        fn, names = observer
        if names[0] in self.missing:
            return
        try:
            fn(self.counts, args, out)
        except (AttributeError, KeyError, TypeError):
            self.missing.update(names)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_t0
        self.gc[0] += 1
        self.gc[1] += pause
        self._stack[-1][0] += pause

    # -- tasks and spans ------------------------------------------------------
    def _span(self, name: str, start: float, end: float, parent) -> dict:
        return {"name": name, "start": start - self._epoch,
                "end": end - self._epoch, "parent": parent,
                "task": self._task["task"] if self._task else None}

    def begin_task(self, name: str) -> None:
        span_id = len(self.spans)
        self.spans.append(None)
        self._task = {"task": len(self.tasks), "name": name, "span": span_id,
                      "t0": time.perf_counter(),
                      "before": {k: list(v) for k, v in self.stats.items()}}
        self._stack[0] = [0.0, span_id]

    def end_task(self) -> None:
        task = self._task
        end = time.perf_counter()
        self.spans[task["span"]] = self._span(task["name"], task["t0"], end,
                                              None)
        before = task.pop("before")
        task["layers"] = {
            layer: {"calls": now[0] - before[layer][0],
                    "total_s": now[1] - before[layer][1],
                    "self_s": now[2] - before[layer][2]}
            for layer, now in self.stats.items() if now[0] != before[layer][0]}
        task["wall_s"] = end - task.pop("t0")
        self.tasks.append(task)
        self._task = None
        self._stack[0] = [0.0, None]

    # -- export ---------------------------------------------------------------
    def export(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "gc": self.gc,
                "missing": sorted(self.missing), "spans": self.spans,
                "tasks": self.tasks}

    def merge(self, doc: dict) -> None:
        """Fold in another tracer's :meth:`export` (a traced CLI call
        runs in its own process); its spans and tasks are re-numbered
        under the currently open task."""
        for layer, (calls, total, self_s) in doc["stats"].items():
            stat = self.stats[layer]
            stat[0] += calls
            stat[1] += total
            stat[2] += self_s
        for name, value in doc["counts"].items():
            self.counts[name] += value
        self.gc[0] += doc["gc"][0]
        self.gc[1] += doc["gc"][1]
        self.missing.update(doc["missing"])
        offset = len(self.spans)
        parent = self._task["span"] if self._task else None
        task = self._task["task"] if self._task else None
        for span in doc["spans"]:
            if span is not None:
                span = dict(span, task=task,
                            parent=parent if span["parent"] is None
                            else span["parent"] + offset)
            self.spans.append(span)
        if self._task is not None:
            self._task.setdefault("children", []).extend(doc["tasks"])

    def metrics(self) -> dict:
        """Per-layer metrics over everything traced so far (None where a
        wrap target or an observed attribute is gone)."""
        out: dict = {}
        for layer, (calls, _total, self_s) in self.stats.items():
            gone = layer in self.missing
            out[f"{layer}.calls"] = None if gone else calls
            out[f"{layer}.self_s"] = None if gone else self_s
        out["runtime.gc.collections"] = self.gc[0]
        out["runtime.gc.pause_s"] = self.gc[1]
        c = self.counts

        def derived(needs, value):
            return None if self.missing.intersection(needs) else value()

        out["mc.por.safety_hit_ratio"] = derived(
            ("mc.safety_hits", "mc.safety_misses"),
            lambda: _ratio(c["mc.safety_hits"],
                           c["mc.safety_hits"] + c["mc.safety_misses"]))
        out["mc.explorer.new_state_ratio"] = derived(
            ("mc.states", "mc.transitions"),
            lambda: _ratio(c["mc.states"], c["mc.transitions"]))
        out["mc.explorer.ample_reduction_ratio"] = derived(
            ("mc.ample_reduced", "mc.ample_full"),
            lambda: _ratio(c["mc.ample_reduced"],
                           c["mc.ample_reduced"] + c["mc.ample_full"]))
        for name in ("cfg.nodes", "analysis.variants.count",
                     "analysis.sites"):
            out[name] = derived((name,), lambda name=name: c[name])
        return out
