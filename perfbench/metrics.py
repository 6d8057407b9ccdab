"""Metric definitions and the per-layer view over a traced run's spans.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` keeps the
two in step.
"""

from __future__ import annotations

import statistics

#: End-to-end metrics, reported by every workload from an untraced run.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "patterns_per_s": "1/s",
    "latency_p50_s": "s",
}

#: Per-layer metrics (traced run).  Layers a workload does not load read 0.
PER_LAYER = {
    "sample.busy_s": "s",
    "sample.calls": "count",
    "sample.samples": "count",
    "sample.model_s": "s",
    "sample.mixing_s": "s",
    "sample.model_evals": "count",
    "train.busy_s": "s",
    "prefilter.busy_s": "s",
    "prefilter.keep_ratio": "ratio",
    "legalize.busy_s": "s",
    "legalize.topologies": "count",
    "legalize.solutions": "count",
    "legalize.success_ratio": "ratio",
    "legalize.fast_path_ratio": "ratio",
    "legalize.tail_solves": "count",
    "legalize.solver_iterations": "count",
    "drc.busy_s": "s",
    "drc.patterns": "count",
    "drc.clean_ratio": "ratio",
    "graph.self_s": "s",
    "library.append_s": "s",
    "library.plan_s": "s",
    "library.bind_s": "s",
    "library.chunks": "count",
    "library.stored_ratio": "ratio",
    "library.bytes": "bytes",
    "serve.submit_s": "s",
    "serve.batches": "count",
    "serve.batch_size_mean": "count",
    "serve.occupancy_mean": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.retries": "count",
    "serve.worker_restarts": "count",
    "serve.sched_lag_p99_s": "s",
    "serve.fresh_p90_s": "s",
    "serve.repeat_p50_s": "s",
    "serve.repeat_p90_s": "s",
    "serve.goodput_per_s": "1/s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: The end-to-end metric each layer should move, and on which workload.
LAYER_MOVES = {
    "sample": "patterns_per_s on stream-full, latency_p50_s on serve-mixed; barely expand-library",
    "train": "setup_s on every workload",
    "prefilter": "patterns_per_s everywhere (the keep ratio scales the yield)",
    "legalize": "patterns_per_s on expand-library; about a tenth of stream-full",
    "drc": "patterns_per_s on expand-library",
    "graph": "patterns_per_s on expand-library (unfold, complexity histograms)",
    "library": "patterns_per_s on expand-library only",
    "serve": "latency_p50_s (batch size, occupancy) and serve.repeat_* (cache hits, cover scan)",
    "trace": "none: traced minus untraced time of the same work",
}

#: Ratio metrics as (numerator key, denominator key) over summed rep totals.
_RATIOS = {
    "prefilter.keep_ratio": ("prefilter.kept", "prefilter.calls"),
    "legalize.success_ratio": ("legalize.solved", "legalize.topologies"),
    "legalize.fast_path_ratio": ("legalize.fast_path", "legalize.solutions"),
    "drc.clean_ratio": ("drc.clean", "drc.patterns"),
    "library.stored_ratio": ("library.stored", "library.produced"),
}

#: Span name -> busy-time metric.
_BUSY = {
    "sample": "sample.busy_s",
    "prefilter": "prefilter.busy_s",
    "legalize": "legalize.busy_s",
    "drc": "drc.busy_s",
    "library.append": "library.append_s",
    "library.plan": "library.plan_s",
    "library.bind": "library.bind_s",
}

#: (span name, attribute) -> summed count.
_COUNTS = {
    ("sample", "samples"): "sample.samples",
    ("sample", "model_s"): "sample.model_s",
    ("sample", "mixing_s"): "sample.mixing_s",
    ("sample", "model_evals"): "sample.model_evals",
    ("prefilter", "kept"): "prefilter.kept",
    ("legalize", "topologies"): "legalize.topologies",
    ("legalize", "solved"): "legalize.solved",
    ("legalize", "solutions"): "legalize.solutions",
    ("legalize", "fast_path"): "legalize.fast_path",
    ("legalize", "tail_solves"): "legalize.tail_solves",
    ("legalize", "iterations"): "legalize.solver_iterations",
    ("drc", "patterns"): "drc.patterns",
    ("drc", "clean"): "drc.clean",
    ("library.append", "produced"): "library.produced",
    ("library.append", "stored"): "library.stored",
}


def layer_totals(tracer, indices) -> dict:
    """Busy time and work counts of each layer over the spans at ``indices``."""
    self_seconds = tracer.self_seconds()
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for index in indices:
        span = tracer.spans[index]
        if span.name in _BUSY:
            add(_BUSY[span.name], span.seconds)
        if span.name == "sample":
            add("sample.calls", 1)
        elif span.name == "prefilter":
            add("prefilter.calls", 1)
        elif span.name == "library.append":
            add("library.chunks", 1)
        elif span.name == "graph":
            add("graph.self_s", self_seconds[index])
        for (name, attr), key in _COUNTS.items():
            if span.name == name and attr in span.attrs:
                add(key, float(span.attrs[attr]))
    return totals


def aggregate_reps(reps: "list[dict]") -> dict:
    """Per-rep layer metrics: median of each time, mean of each count.

    Ratios are taken over the summed numerators and denominators of all
    reps.  Every :data:`PER_LAYER` name is present; a layer no rep touched
    reads 0.
    """
    keys = set().union(*reps) if reps else set()
    out = {name: 0.0 for name in PER_LAYER}
    for key in keys:
        values = [rep.get(key, 0.0) for rep in reps]
        if key.endswith("_s"):
            out[key] = statistics.median(values)
        else:
            out[key] = sum(values) / len(values)
    for ratio, (num, den) in _RATIOS.items():
        denominator = sum(rep.get(den, 0.0) for rep in reps)
        if denominator:
            out[ratio] = sum(rep.get(num, 0.0) for rep in reps) / denominator
    return {name: out[name] for name in PER_LAYER}


def percentile(values: "list[float]", fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
