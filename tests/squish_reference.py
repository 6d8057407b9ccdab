"""The original pairwise merge loop of ``canonicalize``, kept as an oracle.

``tests/test_squish.py`` checks the vectorized kernel against it on
generated patterns, and ``benchmarks/bench_canonicalize.py`` times both and
asserts exact parity.  NumPy only, so the benchmark environment can import
it too.
"""

from __future__ import annotations

import numpy as np

from repro.squish import SquishPattern


def reference_canonicalize(pattern: SquishPattern) -> SquishPattern:
    """The original pairwise merge loop, kept as the oracle of the kernel."""
    topo = pattern.topology.copy()
    dx = list(int(v) for v in pattern.delta_x)
    dy = list(int(v) for v in pattern.delta_y)

    def merge_all(topo: np.ndarray, d: list[int], axis: int):
        i = 0
        while i < len(d) - 1:
            a = topo.take(i, axis=axis)
            b = topo.take(i + 1, axis=axis)
            if np.array_equal(a, b):
                d[i] += d[i + 1]
                del d[i + 1]
                topo = np.delete(topo, i + 1, axis=axis)
            else:
                i += 1
        return topo, d

    topo, dx = merge_all(topo, dx, axis=1)
    topo, dy = merge_all(topo, dy, axis=0)
    return SquishPattern(
        topo,
        np.asarray(dx, dtype=np.int64),
        np.asarray(dy, dtype=np.int64),
        origin=pattern.origin,
    )
