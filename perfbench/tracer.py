"""Layer tracer for the benchmark's traced run, installed from outside.

The program's code stays unchanged: :meth:`Tracer.install` wraps the
public functions of each layer's module, plus a few methods, with timing
spans, and puts each wrapper in every ``repro`` module namespace that
holds the original.  That matters because callers import by name
(``from .profiles import get_profile`` in fig4, fig5, table4, faults,
cluster, measurement and analysis.tables) and look the name up in their
own module at call time.  Methods are wrapped on their class, so
``Simulator.run`` and ``ExperimentContext.run`` are traced wherever the
instance came from.

Spans stay in memory and are written once, at the end, as Chrome
trace-event JSON.  A span's self time is its duration minus the time its
child spans cover; the self times of all spans partition the traced part
of the run, so the per-layer sums add up to the wall time less set-up
and interpreter exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# Every public function defined in (or under) the module joins the layer.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("profiles", "repro.experiments.profiles"),
    ("measurement", "repro.experiments.measurement"),
    ("queueing", "repro.core.queueing"),
    ("loadbalancer", "repro.offload.loadbalancer"),
    ("cluster", "repro.cluster"),
    ("cache", "repro.core.cache"),
    ("executor", "repro.core.executor"),
    ("render", "repro.analysis.report"),
)

# Methods wrapped on their class: (layer, module, class, method).
# ``WorkUnit.run`` and ``ExperimentContext.run`` form the experiments
# layer: the runners' own code, outside every other layer.  Wrapping
# ``WorkUnit.run`` is also what leaves ``ParallelExecutor.map`` with only
# its overhead as self time.
METHOD_LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("engine", "repro.core.engine", "Simulator", "run"),
    ("cache", "repro.core.cache", "ResultCache", "get"),
    ("cache", "repro.core.cache", "ResultCache", "put"),
    ("cache", "repro.core.cache", "ResultCache", "get_or_compute"),
    ("executor", "repro.core.executor", "ParallelExecutor", "map"),
    ("executor", "repro.core.executor", "ParallelExecutor", "map_keyed"),
    ("experiments", "repro.experiments.registry", "ExperimentContext", "run"),
    ("experiments", "repro.core.executor", "WorkUnit", "run"),
    ("render", "repro.experiments.registry", "Experiment", "render"),
)

# Span: (name, layer, start, duration, self time), times in seconds.
Span = Tuple[str, str, float, float, float]


def _queueing_requests(arguments: Dict[str, Any]) -> int:
    """Requests a queueing call simulates: ``n_requests`` per rate rung,
    or the size of the arrays a waits kernel is handed."""
    n_requests = arguments.get("n_requests")
    if n_requests is not None:
        rates = arguments.get("rates")
        return int(n_requests) * (len(rates) if rates is not None else 1)
    for name in ("gaps", "services"):
        if name in arguments:
            return int(getattr(arguments[name], "size", len(arguments[name])))
    return 0


class _Frame:
    """An open span: its layer and name, and the time its children took."""

    __slots__ = ("layer", "name", "child_s", "fell_back")

    def __init__(self, layer: str, name: str):
        self.layer = layer
        self.name = name
        self.child_s = 0.0
        self.fell_back = False


class Tracer:
    """Timing spans and work counts around the program's layers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        # Calls per span name, and calls that entered a layer from outside it.
        self.calls: Counter = Counter()
        self.entries: Counter = Counter()
        # Work counted from call arguments (profiles built, requests, packets).
        self.work: Counter = Counter()
        self._stack: List[_Frame] = []
        self._profiles_seen: set = set()

    # -- spans ----------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` with a span of ``layer`` around every call."""
        observe = self._observer(fn, layer, name)
        stack, spans, clock = self._stack, self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = all(frame.layer != layer for frame in stack)
            if outermost:
                self.entries[layer] += 1
            self.calls[name] += 1
            span_name = name
            if observe is not None:
                span_name = observe(args, kwargs, outermost) or name
            frame = _Frame(layer, name)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += duration
                spans.append((span_name, layer, start, duration,
                              duration - frame.child_s))

        return traced

    def _observer(self, fn: Callable, layer: str,
                  name: str) -> Optional[Callable]:
        """The per-call hook that counts work for ``fn``, if it has one."""
        signature = inspect.signature(fn)

        def bound(args, kwargs) -> Dict[str, Any]:
            arguments = signature.bind(*args, **kwargs)
            arguments.apply_defaults()
            return arguments.arguments

        if name == "profiles.get_profile":
            def observe(args, kwargs, outermost):
                arguments = bound(args, kwargs)
                key = (arguments["key"], arguments["samples"])
                if key not in self._profiles_seen:
                    self._profiles_seen.add(key)
                    self.work["profiles.built"] += 1
            return observe
        if name == "queueing.bounded_waits_reference":
            def observe(args, kwargs, outermost):
                self._fell_back("queueing.bounded_waits")
            return observe
        if layer == "queueing":
            def observe(args, kwargs, outermost):
                if outermost:
                    self.work["queueing.requests"] += _queueing_requests(
                        bound(args, kwargs))
            return observe
        if layer == "loadbalancer" and "n_packets" in signature.parameters:
            def observe(args, kwargs, outermost):
                if outermost:
                    self.work["loadbalancer.packets"] += int(
                        bound(args, kwargs)["n_packets"])
            return observe
        if name == "experiments.ExperimentContext.run":
            def observe(args, kwargs, outermost):
                return f"experiment.{bound(args, kwargs)['name']}"
            return observe
        return None

    def _fell_back(self, caller: str) -> None:
        """Count the innermost open ``caller`` span once as having fallen
        back to a reference implementation."""
        for frame in reversed(self._stack):
            if frame.name == caller:
                if not frame.fell_back:
                    frame.fell_back = True
                    self.work[f"{caller}.fell_back"] += 1
                return

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's functions and methods in place."""
        wrappers: Dict[int, Tuple[Callable, Callable]] = {}
        for layer, module_name in MODULE_LAYERS:
            module = importlib.import_module(module_name)
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not (obj.__module__ == module_name
                                or obj.__module__.startswith(module_name + "."))):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(obj, layer,
                                                    f"{layer}.{attr}"))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        for layer, module_name, class_name, method in METHOD_LAYERS:
            cls = getattr(importlib.import_module(module_name), class_name)
            setattr(cls, method, self.wrap(vars(cls)[method], layer,
                                           f"{layer}.{class_name}.{method}"))

    # -- results ----------------------------------------------------------------

    def ledger(self) -> Dict[str, Any]:
        """Self time per layer, inclusive time per experiment, and counts."""
        self_s: Dict[str, float] = defaultdict(float)
        experiments: Dict[str, float] = defaultdict(float)
        for name, layer, _start, duration, own in self.spans:
            self_s[layer] += own
            if name.startswith("experiment."):
                experiments[name[len("experiment."):]] += duration
        return {
            "self_s": dict(self_s),
            "experiment_s": dict(experiments),
            "entries": dict(self.entries),
            "calls": dict(self.calls),
            "work": dict(self.work),
        }

    def chrome_events(self) -> List[Dict[str, Any]]:
        """The spans as Chrome trace-event complete ("X") events."""
        if not self.spans:
            return []
        origin = min(span[2] for span in self.spans)
        pid = os.getpid()
        return [
            {"name": name, "cat": layer, "ph": "X", "pid": pid, "tid": 1,
             "ts": round((start - origin) * 1e6, 3),
             "dur": round(duration * 1e6, 3),
             "args": {"self_us": round(own * 1e6, 3)}}
            for name, layer, start, duration, own
            in sorted(self.spans, key=lambda span: span[2])
        ]

    def write(self, path: str, counters: Dict[str, int]) -> None:
        """Chrome trace JSON, with the ledger and the program's counters."""
        document = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {"ledger": self.ledger(), "counters": counters},
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
