"""In-memory span recorder for the benchmark's traced runs.

The benchmark does not instrument ``src/``: :func:`instrument_graph` shadows
public methods on the stage objects a :class:`~repro.pipeline.GenerationGraph`
is built from (``sampling_engine``, ``prefilter``, ``legalization_engine``,
``checker`` and ``library``) with wrappers that record one span per call.
Spans are kept in memory and written out once, at the end, as Chrome
trace-event JSON (open it in https://ui.perfetto.dev or ``chrome://tracing``).

A span is ``(name, start, end, parent, pid, tid, attrs)``.  Spans nest per
thread through a stack, so a layer's *self time* is its duration minus the
time its direct children cover.

Tracing is switched by :attr:`Tracer.enabled`.  Only the calling process
is traced: serve-mixed's forked generation worker is not.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    #: Index of the parent span in :attr:`Tracer.spans`, or ``None``.
    parent: "int | None"
    pid: int
    tid: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans in memory; a near no-op while disabled."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``attrs(result, *args, **kwargs)`` gives the span's attributes; it
        runs after the span is closed, so its cost is not in the span.
        """
        if not self.enabled:
            return fn(*args, **(kwargs or {}))
        stack = self._stack()
        span = Span(name, time.perf_counter_ns(), 0, stack[-1] if stack else None,
                    os.getpid(), threading.get_ident())
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()
        if attrs is not None:
            span.attrs = attrs(result, *args, **(kwargs or {}))
        return result

    def record(self, name: str, start_ns: int, end_ns: int, **attrs) -> None:
        """Add a span the caller timed itself (asynchronous work, no parent).

        Recorded whatever :attr:`enabled` says: the caller decides.
        """
        self.spans.append(Span(name, start_ns, end_ns, None, os.getpid(),
                               threading.get_ident(), attrs))

    def mark(self) -> int:
        """Current position in :attr:`spans`: the first index of the next span."""
        return len(self.spans)

    def self_seconds(self) -> "list[float]":
        """Self time of each span: its duration minus its children's."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end_ns - span.start_ns
        return [
            (span.end_ns - span.start_ns - covered[index]) / 1e9
            for index, span in enumerate(self.spans)
        ]

    def write_chrome_trace(self, path: "str | Path", metadata: dict) -> Path:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        events = []
        for index, span in enumerate(self.spans):
            args = dict(span.attrs)
            args["span"] = index
            if span.parent is not None:
                args["parent"] = span.parent
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": span.start_ns / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            })
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }))
        return path


def shadow(tracer: Tracer, obj, method: str, span: str, attrs=None):
    """Replace ``obj.method`` by a traced wrapper on that instance only.

    Idempotent: an already shadowed method is left alone, so objects shared
    by several graphs are wrapped once.  Returns ``obj``.
    """
    original = getattr(obj, method)
    if not getattr(original, "_traced", False):
        def traced(*args, **kwargs):
            return tracer.call(span, original, args, kwargs, attrs)

        traced._traced = True
        setattr(obj, method, traced)
    return obj


def _instrument_products(obj, method: str, instrument) -> None:
    """Pass whatever ``obj.method`` returns through ``instrument`` (once)."""
    build = getattr(obj, method)
    if not getattr(build, "_traced", False):
        def traced(*args, **kwargs):
            return instrument(build(*args, **kwargs))

        traced._traced = True
        setattr(obj, method, traced)


def _sampling_attrs(result, *args, **kwargs) -> dict:
    _, report = result
    return {
        "samples": report.num_samples,
        "model_s": report.model_seconds,
        "mixing_s": report.mixing_seconds,
        "model_evals": report.model_evals,
    }


def _legalize_attrs(result, *args, **kwargs) -> dict:
    _, report = result
    stats = report.stats
    return {
        "topologies": stats.attempted,
        "solved": stats.solved,
        "solutions": stats.solutions,
        "fast_path": stats.fast_path_solutions,
        "tail_solves": stats.batched_tail_solves,
        "iterations": stats.total_iterations,
    }


def _drc_attrs(mask, *args, **kwargs) -> dict:
    return {"patterns": len(mask), "clean": int(sum(bool(flag) for flag in mask))}


def instrument_graph(tracer: Tracer, graph):
    """Trace every stage call of ``graph`` (and of later graphs sharing its stages).

    ``run`` gets a ``graph`` span, so the graph's self time is what the stage
    spans do not cover: unfolding, the complexity histograms and result
    folding.
    """
    shadow(tracer, graph.sampling_engine, "sample_with_report", "sample", _sampling_attrs)
    shadow(tracer, graph.prefilter, "reject_reason", "prefilter",
           lambda reason, *args: {"kept": reason is None})
    shadow(tracer, graph.legalization_engine, "legalize_batch_with_report", "legalize",
           _legalize_attrs)
    shadow(tracer, graph.checker, "legality_mask", "drc", _drc_attrs)
    if graph.library is not None:
        shadow(tracer, graph.library, "bind", "library.bind")
        shadow(tracer, graph.library, "plan_chunk", "library.plan",
               lambda keep, *args: {"kept": int(sum(keep))})
        shadow(tracer, graph.library, "append_chunk", "library.append",
               lambda stored, record, patterns: {"produced": len(patterns),
                                                 "stored": len(stored)})
    shadow(tracer, graph, "run", "graph")
    return graph


def instrument_pipeline(tracer: Tracer, pipeline) -> None:
    """Instrument every graph ``pipeline.generation_graph`` builds from now on."""
    _instrument_products(pipeline, "generation_graph",
                         lambda graph: instrument_graph(tracer, graph))
