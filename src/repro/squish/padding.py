"""Fixed-size extension of squish patterns (adaptive squish, ref. [14]).

Topology matrices extracted from different clips have different shapes.  The
neural generator needs a fixed input size, so every squish pattern is extended
to a square topology matrix with a fixed side length by splitting existing
intervals into equal parts (which does not change the geometry) and, when a
dimension has more intervals than the target, by merging mergeable adjacent
columns/rows (identical columns can be merged losslessly).
"""

from __future__ import annotations

import numpy as np

from .squish import SquishPattern


class PaddingError(ValueError):
    """Raised when a pattern cannot be extended/reduced to the target size."""


def _split_axis(
    topology: np.ndarray, delta: np.ndarray, target: int, axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Grow ``axis`` to ``target`` intervals by splitting the widest intervals.

    Splitting an interval of length L into two intervals (ceil(L/2),
    floor(L/2)) and duplicating the corresponding row/column keeps the decoded
    geometry identical, because the duplicated cells carry the same bit.
    """
    topo = topology.copy()
    d = list(int(v) for v in delta)
    while len(d) < target:
        # Split the widest interval that can still be split into two >=1 parts.
        order = sorted(range(len(d)), key=lambda i: -d[i])
        idx = next((i for i in order if d[i] >= 2), None)
        if idx is None:
            raise PaddingError(
                "cannot extend pattern: all intervals already have length 1"
            )
        left = (d[idx] + 1) // 2
        right = d[idx] - left
        d[idx : idx + 1] = [left, right]
        topo = np.insert(topo, idx, topo.take(idx, axis=axis), axis=axis)
    return topo, np.asarray(d, dtype=np.int64)


def _merge_axis(
    topology: np.ndarray, delta: np.ndarray, target: int, axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink ``axis`` to ``target`` intervals by merging identical neighbours.

    Two adjacent columns (or rows) can be merged losslessly iff their bits are
    identical; the merged interval is the sum of the two.  If no further
    lossless merge exists the pattern is rejected — the caller should use a
    larger target size instead of silently changing geometry.
    """
    topo = topology.copy()
    d = list(int(v) for v in delta)
    while len(d) > target:
        merged = False
        for i in range(len(d) - 1):
            a = topo.take(i, axis=axis)
            b = topo.take(i + 1, axis=axis)
            if np.array_equal(a, b):
                d[i] = d[i] + d[i + 1]
                del d[i + 1]
                topo = np.delete(topo, i + 1, axis=axis)
                merged = True
                break
        if not merged:
            raise PaddingError(
                f"cannot losslessly reduce axis {axis} to {target} intervals"
            )
    return topo, np.asarray(d, dtype=np.int64)


def pad_to_size(pattern: SquishPattern, size: int) -> SquishPattern:
    """Extend (or losslessly reduce) a pattern to a ``size x size`` topology.

    The decoded layout of the returned pattern is geometrically identical to
    the input — only the squish factorisation changes.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    topo = pattern.topology
    dx = pattern.delta_x
    dy = pattern.delta_y

    # Columns (axis=1 of topology) follow delta_x.
    if dx.shape[0] < size:
        topo, dx = _split_axis(topo, dx, size, axis=1)
    elif dx.shape[0] > size:
        topo, dx = _merge_axis(topo, dx, size, axis=1)
    # Rows (axis=0) follow delta_y.
    if dy.shape[0] < size:
        topo, dy = _split_axis(topo, dy, size, axis=0)
    elif dy.shape[0] > size:
        topo, dy = _merge_axis(topo, dy, size, axis=0)

    return SquishPattern(topo, dx, dy, origin=pattern.origin)


def run_starts(topology: np.ndarray, axis: int) -> np.ndarray:
    """Indices of the rows (``axis=0``) or columns (``axis=1``) that start a run.

    Index ``i`` starts a run when it is the first along ``axis`` or differs
    from its predecessor; every index up to the next start repeats it.
    """
    count = topology.shape[axis]
    starts = np.ones(count, dtype=bool)
    if axis == 1:
        starts[1:] = (topology[:, 1:] != topology[:, :-1]).any(axis=0)
    else:
        starts[1:] = (topology[1:] != topology[:-1]).any(axis=1)
    return np.flatnonzero(starts)


def canonicalize(pattern: SquishPattern) -> SquishPattern:
    """Merge every mergeable adjacent row/column (minimal squish form).

    This is the canonical representation used when computing pattern
    complexity and checking design rules: adjacent identical rows/columns
    carry no topology information and are collapsed, so (cx, cy) reflect
    true scan-line structure.  One vectorized pass per axis: the first
    column of every run of identical columns is kept and ``delta_x`` is
    summed over the run (``np.add.reduceat``); rows follow on the result.
    """
    columns = run_starts(pattern.topology, axis=1)
    topo = np.take(pattern.topology, columns, axis=1)
    rows = run_starts(topo, axis=0)
    return SquishPattern(
        np.take(topo, rows, axis=0),
        np.add.reduceat(pattern.delta_x, columns),
        np.add.reduceat(pattern.delta_y, rows),
        origin=pattern.origin,
    )
