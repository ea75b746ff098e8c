"""Span recording for the traced benchmark run.

The tracer patches public functions and methods of ``repro`` for the length
of one traced round, so every call the workload makes into a layer opens a
span: name (``layer.operation``), start, end, parent span and, on the served
workload, a request id.  Spans stay in memory and are written at the end as
Chrome trace-event JSON (load the file in ``chrome://tracing`` or Perfetto).

A layer's self time is the wall time its spans cover outside their child
spans; concurrent spans of one layer count once.  Spans that end on another
thread (an engine batch, which ends when its last future resolves) are
opened on the submitting thread but never become that thread's parent.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self, first_id: int = 1):
        self.spans: List[dict] = []
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: Wrapped calls record spans only while this is set (the timed
        #: part of a round, not its output checks).
        self.recording = False

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request_id: Optional[str] = None, push: bool = True) -> dict:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "request_id": request_id,
            "tid": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        if push:
            stack.append(span)
        return span

    def end(self, span: dict, pop: bool = True) -> None:
        span["end"] = time.perf_counter()
        if pop:
            self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def recorded(self):
        """Record spans for the calls made inside this block."""
        self.recording = True
        try:
            yield self
        finally:
            self.recording = False

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None):
        opened = self.begin(name, request_id)
        try:
            yield opened
        finally:
            self.end(opened)

    # ------------------------------------------------------------------
    def patch(self, target: str, attribute: str, name: str, resolves: bool = False) -> None:
        """Wrap ``target.attribute`` (``"module"`` or ``"module:Class"``).

        With ``resolves`` the call returns engine futures (or a list of
        them), and its span ends when the last of them has resolved.
        """
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        original = inspect.getattr_static(owner, attribute)
        function = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original
        tracer = self

        if resolves:
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return function(*args, **kwargs)
                span = tracer.begin(name, push=False)
                futures = function(*args, **kwargs)
                pending = list(futures) if isinstance(futures, (list, tuple)) else [futures]
                remaining = [len(pending)]
                guard = threading.Lock()

                def _resolved(_future):
                    with guard:
                        remaining[0] -= 1
                        last = remaining[0] == 0
                    if last:
                        tracer.end(span, pop=False)

                if not pending:
                    tracer.end(span, pop=False)
                for future in pending:
                    future.add_done_callback(_resolved)
                return futures
        else:
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return function(*args, **kwargs)
                with tracer.span(name):
                    return function(*args, **kwargs)

        wrapper.__wrapped__ = function
        if isinstance(original, classmethod):
            replacement = classmethod(wrapper)
        elif isinstance(original, staticmethod):
            replacement = staticmethod(wrapper)
        else:
            replacement = wrapper
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def patched(self, points: Iterable[Tuple[str, str, str, bool]]):
        """Install ``(target, attribute, span name, resolves)`` wrappers."""
        try:
            for point in points:
                self.patch(*point)
            yield self
        finally:
            self.unpatch()

    # ------------------------------------------------------------------
    def finished(self) -> List[dict]:
        with self._lock:
            return [span for span in self.spans if span["end"] is not None]


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _subtract(interval: Tuple[float, float], covered: List[Tuple[float, float]]):
    """The parts of ``interval`` not covered by any of ``covered``."""
    start, end = interval
    pieces = []
    for cover_start, cover_end in sorted(covered):
        if cover_end <= start or cover_start >= end:
            continue
        if cover_start > start:
            pieces.append((start, cover_start))
        start = max(start, cover_end)
    if start < end:
        pieces.append((start, end))
    return pieces


def self_segments(spans: Sequence[dict]) -> Dict[int, List[Tuple[float, float]]]:
    """Span id -> the parts of its interval no child span covers."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: _subtract((span["start"], span["end"]), children.get(span["id"], []))
        for span in spans
    }


def self_time(spans: Sequence[dict], selected) -> float:
    """Wall time the selected spans spent outside their children.

    Overlapping spans (concurrent engine batches) count once.
    """
    segments = self_segments(spans)
    return union_length(
        piece for span in spans if selected(span) for piece in segments[span["id"]]
    )


def layer_of(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def layer_self_times(spans: Sequence[dict]) -> Dict[str, float]:
    layers = sorted({layer_of(span) for span in spans})
    return {
        layer: self_time(spans, lambda span, layer=layer: layer_of(span) == layer)
        for layer in layers
    }


def total_duration(spans: Sequence[dict], name: str) -> float:
    return sum(span["end"] - span["start"] for span in spans if span["name"] == name)


def count(spans: Sequence[dict], name: str) -> int:
    return sum(1 for span in spans if span["name"] == name)


def write_chrome_trace(path: str, processes: Sequence[Tuple[int, str, Sequence[dict]]]) -> None:
    """Write ``(pid, process name, spans)`` groups as Chrome trace events."""
    origin = min(
        (span["start"] for _, _, spans in processes for span in spans), default=0.0
    )
    events = []
    for pid, label, spans in processes:
        events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}})
        for span in spans:
            args = {"id": span["id"], "parent": span["parent"]}
            if span["request_id"] is not None:
                args["request_id"] = span["request_id"]
            events.append(
                {
                    "name": span["name"],
                    "cat": layer_of(span),
                    "ph": "X",
                    "ts": (span["start"] - origin) * 1e6,
                    "dur": (span["end"] - span["start"]) * 1e6,
                    "pid": pid,
                    "tid": span["tid"],
                    "args": args,
                }
            )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
