"""Per-layer timing for the traced repetition of a workload.

The wrappers installed here record where one workload run spends its
time, layer by layer, without enabling the program's own
instrumentation: its ``ObsConfig`` switches replay to the per-event
object path, which would measure a different program.

Two grains of record are kept in memory and written out at the end:

* *spans* (name, start, end, parent, attributes) for the coarse layers:
  one experiment, one trace build, one L2 pass, one engine replay, one
  value-reuse study, one forgery campaign;
* *aggregates* (calls, inclusive and self seconds) for the layers called
  per run of events or per sector: engine batch hooks, metadata caches,
  tree walks and value-cache key methods. A span per call there would
  cost more memory than the program itself.

A layer's self time is its inclusive time minus the time of the wrapped
calls nested directly inside it, so the self times of all layers sum to
the traced wall time. A call that re-enters its own layer (a ``super()``
call, or ``access_run`` delegating to ``access``) is charged to the
outer call.

Entry points are patched where their callers look them up, and one
that the program no longer has is reported as absent, not as an error.
No wrapper is installed per value: the per-value ``ValueCache.probe``
and ``observe`` calls of the value-reuse study stay inside
``workloads.study``.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layers in report order; their self times partition the traced wall.
LAYERS = (
    "harness.other",
    "workloads.build_trace",
    "workloads.study",
    "analysis.forgery",
    "gpu.simulate_l2",
    "gpu.l2",
    "gpu.replay",
    "secure.warmup",
    "secure.fill",
    "secure.writeback",
    "secure.value_cache",
    "mem.metadata_cache",
    "metadata.bmt",
)

#: Layers recorded as individual spans; the others are aggregated.
SPAN_LAYERS = frozenset((
    "harness.other", "workloads.build_trace", "workloads.study",
    "analysis.forgery", "gpu.simulate_l2", "gpu.replay",
))

#: ``(layer, module, function)``: patched in the module that calls it,
#: since ``runner.py`` and ``experiments.py`` import these by name.
FUNCTIONS = (
    ("workloads.build_trace", "repro.harness.runner", "build_trace"),
    ("gpu.simulate_l2", "repro.harness.runner", "simulate_l2"),
    ("gpu.replay", "repro.harness.runner", "replay_events"),
    ("workloads.study", "repro.harness.experiments", "study_trace_values"),
    ("analysis.forgery", "repro.harness.experiments",
     "run_forgery_experiment"),
)

#: ``(layer, module, class, methods)``: patched on the defining class.
#: ``SectoredCache`` calls are charged to ``gpu.l2`` under
#: ``simulate_l2`` and to ``mem.metadata_cache`` everywhere else.
METHODS = (
    ("secure.value_cache", "repro.secure.value_cache", "ValueCache",
     ("mask_keys", "verify_keys", "observe_keys", "write_verifiable_keys")),
    ("metadata.bmt", "repro.metadata.bmt", "BmtTraversal",
     ("verify_leaf", "update_leaf", "update_leaves")),
    ("mem.metadata_cache", "repro.mem.cache", "SectoredCache",
     ("access", "access_run", "access_run_raw", "probe", "fill", "flush")),
)

#: Engine batch hooks, patched on every class of the engine hierarchy
#: that defines them: ``(layer, method, count key)``.
ENGINE_BASE = ("repro.secure.engine", "PartitionEngine")
ENGINE_HOOKS = (
    ("secure.fill", "on_fill_batch", "secure.fill.events"),
    ("secure.writeback", "on_writeback_batch", "secure.writeback.events"),
    ("secure.warmup", "warm_counters_batch", "secure.warmup.sectors"),
)


class LayerTotals:
    """Calls, inclusive seconds and self seconds of one layer."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Recorder:
    """The span stack, per-layer totals, and the patches that feed them.

    A stack frame is ``[layer, child_seconds, span_index]``, where
    ``span_index`` names the innermost recorded span (-1 at the root).
    """

    def __init__(self) -> None:
        self.layers: Dict[str, LayerTotals] = {
            name: LayerTotals() for name in LAYERS
        }
        #: ``[name, start, end, parent_index, attrs]`` per coarse span.
        self.spans: List[list] = []
        self.stack: List[list] = [[None, 0.0, -1]]
        self.installed: List[str] = []
        self.absent: List[str] = []
        #: ``id(engine factory) -> engine key``, for per-engine replay time.
        self.engine_keys: Dict[int, str] = {}
        self.replay_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._studies: List[tuple] = []
        self._l2_depth = [0]
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def span(self, name: str, **attrs) -> "_Span":
        """``with recorder.span(name):`` a ``harness.other`` span."""
        return _Span(self, name, attrs)

    def _open(self, layer: str, name: str, attrs: dict) -> list:
        record = [name, 0.0, 0.0, self.stack[-1][2], attrs]
        self.spans.append(record)
        frame = [layer, 0.0, len(self.spans) - 1]
        self.stack.append(frame)
        record[1] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> list:
        end = time.perf_counter()
        record = self.spans[frame[2]]
        record[2] = end
        self.stack.pop()
        duration = end - record[1]
        totals = self.layers[frame[0]]
        totals.calls += 1
        totals.total_s += duration
        totals.self_s += duration - frame[1]
        self.stack[-1][1] += duration
        return record

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str,
              after: Optional[Callable] = None) -> Callable:
        """Time *fn* as *layer*.

        *after(span_record, args, kwargs, result)* runs once the call
        has returned, outside the timed interval; ``span_record`` is
        None for aggregated layers.
        """
        stack = self.stack
        if layer in SPAN_LAYERS:
            open_span = self._open
            close_span = self._close

            def spanned(*args, **kwargs):
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                frame = open_span(layer, layer, {})
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record = close_span(frame)
                if after is not None:
                    after(record, args, kwargs, result)
                return result

            return spanned

        clock = time.perf_counter
        totals = self.layers[layer]

        def timed(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                totals.calls += 1
                totals.total_s += duration
                totals.self_s += duration - frame[1]
                parent[1] += duration
            if after is not None:
                after(None, args, kwargs, result)
            return result

        return timed

    def _wrap_cache(self, fn: Callable) -> Callable:
        """A ``SectoredCache`` method, charged by caller (L2 or metadata)."""
        as_l2 = self._wrap(fn, "gpu.l2")
        as_metadata = self._wrap(fn, "mem.metadata_cache")
        l2_depth = self._l2_depth

        def routed(*args, **kwargs):
            if l2_depth[0]:
                return as_l2(*args, **kwargs)
            return as_metadata(*args, **kwargs)

        return routed

    def _l2_scope(self, fn: Callable) -> Callable:
        l2_depth = self._l2_depth

        def scoped(*args, **kwargs):
            l2_depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                l2_depth[0] -= 1

        return scoped

    # -- installation -------------------------------------------------------

    def install(
        self,
        resolve: Callable[[str], object] = importlib.import_module,
        functions: Sequence = FUNCTIONS,
        methods: Sequence = METHODS,
        engine_base: Optional[Tuple[str, str]] = ENGINE_BASE,
    ) -> None:
        """Patch every entry point; record the missing ones as absent."""
        after = {
            "workloads.build_trace": self._after_build_trace,
            "gpu.simulate_l2": self._after_simulate_l2,
            "gpu.replay": self._after_replay,
            "workloads.study": self._after_study,
            "analysis.forgery": self._after_forgery,
        }
        for layer, module_name, name in functions:
            module = _import(resolve, module_name)
            fn = getattr(module, "__dict__", {}).get(name)
            if not callable(fn):
                self.absent.append(f"{module_name}.{name}")
                continue
            wrapper = self._wrap(fn, layer, after.get(layer))
            if layer == "gpu.simulate_l2":
                wrapper = self._l2_scope(wrapper)
            self._patch(module, name, wrapper, f"{module_name}.{name}")

        for layer, module_name, class_name, names in methods:
            cls = getattr(_import(resolve, module_name), class_name, None)
            for name in names:
                label = f"{module_name}.{class_name}.{name}"
                fn = getattr(cls, "__dict__", {}).get(name)
                if not callable(fn):
                    self.absent.append(label)
                    continue
                if layer == "mem.metadata_cache":
                    wrapper = self._wrap_cache(fn)
                else:
                    wrapper = self._wrap(fn, layer)
                self._patch(cls, name, wrapper, label)

        if engine_base is None:
            return
        module_name, class_name = engine_base
        base = getattr(_import(resolve, module_name), class_name, None)
        classes = _class_tree(base) if isinstance(base, type) else []
        for layer, name, count_key in ENGINE_HOOKS:
            owners = [c for c in classes if callable(c.__dict__.get(name))]
            if not owners:
                self.absent.append(f"{module_name}.{class_name}.{name}")
            for cls in owners:
                wrapper = self._wrap(
                    cls.__dict__[name], layer, self._count_batch(count_key)
                )
                self._patch(
                    cls, name, wrapper,
                    f"{cls.__module__}.{cls.__name__}.{name}",
                )

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner: object, name: str, wrapper: Callable,
               label: str) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)
        self.installed.append(label)

    # -- counts, taken after each call returns ------------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _count_batch(self, key: str) -> Callable:
        counts = self.counts
        warmup = key == "secure.warmup.sectors"

        def after(record, args, kwargs, result) -> None:
            # Hooks take (self, sectors, values) or (self, sectors, passes).
            amount = len(args[1])
            if warmup:
                amount *= args[2] if len(args) > 2 else kwargs.get("passes", 1)
            counts[key] = counts.get(key, 0) + amount

        return after

    def _after_build_trace(self, record, args, kwargs, trace) -> None:
        record[4]["benchmark"] = trace.name
        self._add("workloads.build_trace.accesses", len(trace))

    def _after_simulate_l2(self, record, args, kwargs, log) -> None:
        record[4]["benchmark"] = log.trace_name
        self._add("gpu.simulate_l2.dram_events", len(log.events))
        self._add("gpu.l2.sector_hits", log.l2_stats.sector_hits)
        self._add("gpu.l2.sector_misses", log.l2_stats.sector_misses)

    def _after_replay(self, record, args, kwargs, result) -> None:
        log = args[0] if args else kwargs["log"]
        factory = args[1] if len(args) > 1 else kwargs.get("engine_factory")
        engine = self.engine_keys.get(id(factory), "custom")
        events = len(log.events)
        record[4].update(benchmark=log.trace_name, engine=engine,
                         events=events)
        self.replay_s[engine] = (
            self.replay_s.get(engine, 0.0) + record[2] - record[1]
        )
        self._add("gpu.replay.events", events)

    def _after_study(self, record, args, kwargs, report) -> None:
        trace = args[0] if args else kwargs["trace"]
        record[4]["benchmark"] = trace.name
        # Counted in report(): walking the trace here would add to the
        # traced wall time.
        self._studies.append((trace, report))

    def _after_forgery(self, record, args, kwargs, experiment) -> None:
        self._add("analysis.forgery.trials", experiment.trials)

    # -- output -------------------------------------------------------------

    def report(self) -> dict:
        """Per-layer totals and counts as plain data."""
        counts = dict(self.counts)
        sectors = reused = 0
        for trace, report in self._studies:
            # The study scores read sectors that carry an image.
            seen = sum(
                len(access.values) for access in trace
                if not access.write and access.values is not None
            )
            sectors += seen
            reused += round(report["masked"] * seen)
        counts["workloads.study.sectors"] = sectors
        counts["workloads.study.reuse_masked"] = reused
        return {
            "layers": {
                name: {"calls": t.calls, "self_s": t.self_s,
                       "total_s": t.total_s}
                for name, t in self.layers.items()
            },
            "replay_s": dict(self.replay_s),
            "counts": counts,
            "installed": list(self.installed),
            "absent": list(self.absent),
        }

    def write(self, path: str, meta: dict, report: dict) -> None:
        """Write the spans (seconds from the first span) and *report*."""
        origin = self.spans[0][1] if self.spans else 0.0
        spans = [
            {"name": name, "start_s": start - origin, "end_s": end - origin,
             "parent": parent, **attrs}
            for name, start, end, parent, attrs in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "report": report, "spans": spans},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")


class _Span:
    __slots__ = ("recorder", "name", "attrs", "frame")

    def __init__(self, recorder: Recorder, name: str, attrs: dict) -> None:
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self.frame: Optional[list] = None

    def __enter__(self) -> "_Span":
        self.frame = self.recorder._open("harness.other", self.name,
                                         self.attrs)
        return self

    def __exit__(self, *exc) -> None:
        self.recorder._close(self.frame)


def _import(resolve: Callable[[str], object], module_name: str):
    try:
        return resolve(module_name)
    except ImportError:
        return None


def _class_tree(base: type) -> List[type]:
    """*base* and every class below it, parents first."""
    seen: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop(0)
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen
