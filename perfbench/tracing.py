"""Spans and counters recorded around the public calls into each layer.

Nothing here edits the program: :func:`install` swaps each boundary for
a wrapper at the binding its caller actually uses (a method on its
class, or a function imported by name into the calling module) and
:func:`uninstall` puts the originals back.  A span is
``(id, name, start, end, parent)``; self time is a span's duration
minus the time its child spans cover, accumulated online so a long run
keeps only a bounded prefix of raw spans for the trace file.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Raw spans kept for the trace file; aggregates cover every span.
SPAN_CAP = 100_000

CHECK = ("todomvc-audit", "eggtimer-check")
MONITOR = ("monitor-replay",)
ALL = CHECK + MONITOR

#: (module, attribute path, layer, span?, workloads that must call it).
#: A counted-only boundary adds no span (its time stays with the caller).
BOUNDARIES: Tuple[Tuple[str, str, str, bool, Tuple[str, ...]], ...] = (
    ("repro.dom.document", "Document.query_all", "dom", True, CHECK),
    ("repro.executors.domexec", "DomExecutor.start", "executors", True, CHECK),
    ("repro.executors.domexec", "DomExecutor.reset", "executors", True, CHECK),
    ("repro.executors.domexec", "DomExecutor.act", "executors", True, CHECK),
    ("repro.executors.domexec", "DomExecutor.pass_time", "executors", True,
     CHECK),
    ("repro.executors.domexec", "DomExecutor.await_events", "executors", True,
     ("eggtimer-check",)),
    ("repro.specstrom.state", "ElementSnapshot.of_element", "executors", False,
     CHECK),
    ("repro.checker.runner", "evaluate", "specstrom.guard", True, CHECK),
    ("repro.quickltl.syntax", "Defer.force", "specstrom.defer", True, ALL),
    ("repro.quickltl.progression", "progress", "quickltl", True, CHECK),
    ("repro.monitor.batch", "progress", "quickltl", True, MONITOR),
    ("repro.checker.runner", "Runner.run_single_test", "checker", True, CHECK),
    ("repro.checker.compiled", "CompiledProperty.narrowed_dependencies",
     "checker.narrow", True, CHECK),
    ("repro.executors.domexec", "DomExecutor.narrow", "checker.narrow", True,
     ()),
    ("repro.checker.shrink", "shrink_counterexample", "checker.shrink", True,
     ("todomvc-audit",)),
    ("repro.checker.runner", "Runner.replay", "checker.shrink", True,
     ("todomvc-audit",)),
    ("repro.api.session", "CheckSession.check_many", "api", True, CHECK),
    ("repro.monitor.service", "Monitor.run_queue", "monitor", True, MONITOR),
    ("repro.monitor.service", "parse_record", "monitor.parse", True, MONITOR),
    ("repro.monitor.batch", "BatchProgressor.run_round", "monitor.round", True,
     MONITOR),
    ("repro.monitor.ingest", "IngestQueue.get_batch", "monitor.ingest_wait",
     True, MONITOR),
    ("repro.artifact.resolver", "SpecResolver.load", "artifact", True, ALL),
)


def boundary_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Per-name call counts, inclusive and self time, plus raw spans."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self._next_id = 0
        self._local = threading.local()
        #: Boundary name -> callable(args, result), run after each call.
        self.observers: Dict[str, Callable[[tuple, object], None]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack()
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else None
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            if parent is not None:
                parent[1] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, name, start, end,
                                   parent[0] if parent is not None else -1))
            else:
                self.dropped += 1
        observer = self.observers.get(name)
        if observer is not None:
            observer(args, result)
        return result

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines (one span per line)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent,
                }) + "\n")


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    owner_name, _, member = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, member


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every boundary; returns the function that unwraps them."""
    restore: List[Tuple[object, str, object]] = []
    for module_name, attr, _layer, timed, _where in BOUNDARIES:
        owner, member = _resolve(module_name, attr)
        # A renamed boundary fails here, loudly, rather than going silent.
        raw = vars(owner)[member]
        name = boundary_name(module_name, attr)
        if isinstance(raw, classmethod):
            wrapper = classmethod(_wrap(tracer, name, raw.__func__, timed))
        else:
            wrapper = _wrap(tracer, name, raw, timed)
        setattr(owner, member, wrapper)
        restore.append((owner, member, raw))

    def uninstall() -> None:
        for owner, member, raw in reversed(restore):
            setattr(owner, member, raw)

    return uninstall


def _wrap(tracer: Tracer, name: str, fn: Callable, timed: bool) -> Callable:
    if timed:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)
    return wrapper


def layer_of(name: str) -> Optional[str]:
    for module_name, attr, layer, _timed, _where in BOUNDARIES:
        if boundary_name(module_name, attr) == name:
            return layer
    return None


def layer_self_s(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per layer over all timed boundaries."""
    layers: Dict[str, float] = defaultdict(float)
    for name, seconds in tracer.self_s.items():
        layers[layer_of(name)] += seconds
    return dict(layers)


def silent_boundaries(tracer: Tracer, workload: str) -> List[str]:
    """Boundaries the workload should exercise that recorded no call."""
    return [
        boundary_name(module_name, attr)
        for module_name, attr, _layer, _timed, where in BOUNDARIES
        if workload in where
        and tracer.calls.get(boundary_name(module_name, attr), 0) == 0
    ]
