"""Span recorder for the traced run, wrapped around public repro calls.

The recorder patches functions and methods from outside (nothing in
``src/`` knows about it), keeps every span in memory and writes them
out at the end as Chrome trace-event JSON.  Spans nest on one stack:
the traced runs drive the program single-threaded and one request at a
time, so the innermost open span is always the caller of the next one,
including across an ``await`` into a tenant's worker task.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: The layers, in the order the self-time table prints them.
LAYERS = ("job", "streams", "hashing", "core", "kernels", "persist",
          "service")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "args")

    def __init__(self, sid: int, name: str, start: float,
                 parent: Optional[int]):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.args: Dict[str, object] = {}

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches: List[tuple] = []
        self.epoch = time.perf_counter()

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(
                f"span {span.name} closed while {popped.name} was open"
            )

    def clear(self) -> None:
        self.spans = []
        self._stack = []

    # -- patching ----------------------------------------------------------
    def _wrapper(self, original: Callable, name: str,
                 count: Optional[Callable] = None,
                 size: Optional[Callable] = None) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(original):
            async def traced(*args, **kwargs):
                span = tracer.open(name)
                if count is not None:
                    span.args.update(count(args))
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.close(span)
        else:
            def traced(*args, **kwargs):
                span = tracer.open(name)
                if count is not None:
                    span.args.update(count(args))
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(span)
                if size is not None:
                    span.args["bytes"] = size(result)
                return result
        traced.__wrapped__ = original
        return traced

    def wrap_method(self, cls: type, attr: str, name: str,
                    count: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, name, count))
        self._patches.append((cls, attr, original))

    def wrap_function(self, function: Callable, name: str,
                      count: Optional[Callable] = None,
                      size: Optional[Callable] = None) -> None:
        """Patch ``function`` in every ``repro`` module that binds it."""
        traced = self._wrapper(function, name, count, size)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, function))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- analysis ----------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def children_of(self) -> Dict[Optional[int], List[Span]]:
        children: Dict[Optional[int], List[Span]] = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        return children

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name: duration minus its children's."""
        children = self.children_of()
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = sum(child.dur for child in children[span.sid])
            out[span.name] += span.dur - covered
        return dict(out)

    def layer_self_times(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times().items():
            out[name.split(".", 1)[0]] += seconds
        return dict(out)

    def to_chrome(self) -> Dict[str, object]:
        tids = {layer: i + 1 for i, layer in enumerate(LAYERS)}
        events = []
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            args = {"id": span.sid, "parent": span.parent}
            args.update(span.args)
            events.append({
                "name": span.name,
                "cat": layer,
                "ph": "X",
                "ts": (span.start - self.epoch) * 1e6,
                "dur": span.dur * 1e6,
                "pid": 1,
                "tid": tids.get(layer, len(tids) + 1),
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: Path) -> Dict[str, object]:
        payload = self.to_chrome()
        path.write_text(json.dumps(payload))
        return payload


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark times."""
    from repro.common import hashing
    from repro.core import kernels
    from repro.core.burst_filter import BurstFilter
    from repro.core.cold_filter import ColdFilter
    from repro.core.hot_part import HotPart
    from repro.core.hypersistent import HypersistentSketch
    from repro.core.simd import VectorizedBurstFilter
    from repro.persist import codec
    from repro.service.service import SketchService
    from repro.streams import io

    tracer.wrap_function(io.load_trace_npz, "streams.load_trace_npz")
    from repro.streams.model import Trace
    tracer.wrap_method(Trace, "window_arrays", "streams.window_arrays")
    tracer.wrap_function(
        hashing.canonical_keys, "hashing.canonical_keys",
        count=lambda args: {"keys": len(args[0])},
    )
    tracer.wrap_method(HypersistentSketch, "insert_window",
                       "core.insert_window")
    tracer.wrap_method(HypersistentSketch, "query", "core.query")
    tracer.wrap_method(HypersistentSketch, "report", "core.report")
    tracer.wrap_method(BurstFilter, "window_kernel", "kernels.burst")
    tracer.wrap_method(VectorizedBurstFilter, "window_kernel",
                       "kernels.burst")
    tracer.wrap_function(kernels.cold_insert_batch, "kernels.cold")
    tracer.wrap_method(HotPart, "insert_batch", "kernels.hot")
    tracer.wrap_method(ColdFilter, "end_window", "kernels.end")
    tracer.wrap_method(HotPart, "end_window", "kernels.end")
    tracer.wrap_function(codec.encode_state, "persist.encode_state",
                         size=len)
    tracer.wrap_function(codec.atomic_write_bytes,
                         "persist.atomic_write_bytes")
    tenant_arg = lambda args: {"tenant": args[1]}  # noqa: E731
    tracer.wrap_method(SketchService, "ingest", "service.ingest",
                       tenant_arg)
    tracer.wrap_method(SketchService, "end_window", "service.end_window",
                       tenant_arg)
    tracer.wrap_method(SketchService, "estimate", "service.estimate",
                       tenant_arg)


def self_time_table(tracer: Tracer, total: float) -> str:
    """Self time per layer, as seconds and as a share of ``total``."""
    per_layer = tracer.layer_self_times()
    lines = [f"  {'layer':<10} {'self s':>10} {'share':>8}"]
    for layer in LAYERS:
        if layer in per_layer:
            seconds = per_layer[layer]
            lines.append(f"  {layer:<10} {seconds:>10.4f} "
                         f"{seconds / total:>8.1%}")
    return "\n".join(lines)
