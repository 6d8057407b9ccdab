"""Minimal squish form — the vectorized ``canonicalize`` against the merge loop.

The DRC verdict, the pattern complexity ``(cx, cy)`` and the library
sidecar all read the minimal squish form, in which adjacent identical rows
and columns are merged.  ``repro.squish.canonicalize`` builds it in one
vectorized pass per axis (run starts by neighbour comparison, interval
lengths by ``np.add.reduceat``).  The reference is the original pairwise
``np.array_equal`` / ``np.delete`` loop, kept in ``tests/squish_reference.py``.

The workload is a fixed seeded set of 16x16 and 32x32 patterns shaped like
legalized output: a small random block topology whose rows and columns are
repeated (as fixed-size padding does), with positive integer geometry.

Gated claims (``check_regression.py`` against ``baselines.json``):

* the kernel's output equals the reference loop's exactly — topology,
  deltas, dtypes and origin (``exact`` gate),
* the kernel is at least 5x faster per pattern than the loop.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from _bench_utils import FAST_MODE, write_metrics, write_result

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from squish_reference import reference_canonicalize

from repro.squish import SquishPattern, canonicalize

PATTERNS_PER_SIZE = 200 if FAST_MODE else 1000
SIZES = (16, 32)


def _padded_counts(rng: np.random.Generator, parts: int, total: int) -> np.ndarray:
    """``parts`` positive repeat counts summing to ``total``."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [total])))


def make_patterns(size: int, count: int, seed: int) -> list[SquishPattern]:
    rng = np.random.default_rng([seed, size])
    patterns = []
    for _ in range(count):
        rows, cols = rng.integers(2, size // 2 + 1, size=2)
        base = (rng.random((rows, cols)) < 0.4).astype(np.uint8)
        topology = np.repeat(
            np.repeat(base, _padded_counts(rng, rows, size), axis=0),
            _padded_counts(rng, cols, size),
            axis=1,
        )
        patterns.append(
            SquishPattern(
                topology,
                rng.integers(4, 200, size=size),
                rng.integers(4, 200, size=size),
                origin=(int(rng.integers(-500, 500)), int(rng.integers(-500, 500))),
            )
        )
    return patterns


def _same(a: SquishPattern, b: SquishPattern) -> bool:
    return a.origin == b.origin and all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in (
            (a.topology, b.topology),
            (a.delta_x, b.delta_x),
            (a.delta_y, b.delta_y),
        )
    )


def _best_us_per_pattern(fn, patterns, repeats=3):
    """Best of ``repeats`` passes over ``patterns``, in µs per pattern."""
    best, out = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        out = [fn(pattern) for pattern in patterns]
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / len(patterns) * 1e6, out


def bench_canonicalize(benchmark):
    metrics: dict = {"fast_mode": FAST_MODE, "patterns_per_size": PATTERNS_PER_SIZE}
    lines = [f"{PATTERNS_PER_SIZE} seeded patterns per size, best of 3 passes", ""]
    parity = True
    kernel_total = reference_total = 0.0
    for size in SIZES:
        patterns = make_patterns(size, PATTERNS_PER_SIZE, seed=0)
        kernel_us, kernel_out = _best_us_per_pattern(canonicalize, patterns)
        reference_us, reference_out = _best_us_per_pattern(reference_canonicalize, patterns)
        size_parity = all(_same(a, b) for a, b in zip(kernel_out, reference_out))
        parity = parity and size_parity
        merged = np.mean([p.topology.size / c.topology.size for p, c in zip(patterns, kernel_out)])
        kernel_total += kernel_us
        reference_total += reference_us
        metrics[f"kernel_us_{size}"] = kernel_us
        metrics[f"reference_us_{size}"] = reference_us
        metrics[f"speedup_{size}"] = reference_us / kernel_us
        lines.append(
            f"{size}x{size}: kernel {kernel_us:.1f} us, reference loop "
            f"{reference_us:.1f} us per pattern -> {reference_us / kernel_us:.1f}x; "
            f"cells shrink {merged:.1f}x; parity {'PASS' if size_parity else 'FAIL'}"
        )

    patterns = make_patterns(SIZES[-1], PATTERNS_PER_SIZE, seed=1)
    benchmark.pedantic(lambda: [canonicalize(p) for p in patterns], rounds=1, iterations=1)

    speedup = reference_total / kernel_total
    lines.append(f"overall speedup (summed over sizes): {speedup:.1f}x")
    write_result("canonicalize.txt", "\n".join(lines))
    metrics["canonicalize_parity"] = parity
    metrics["canonicalize_speedup"] = speedup
    write_metrics("canonicalize", metrics)

    assert parity
    assert speedup >= 5.0
