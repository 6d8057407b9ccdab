"""Pattern complexity (Section II-C, Definition preceding Eq. 4).

The complexity of a layout pattern is the pair ``(cx, cy)``: the number of
scan lines along the x and y axes minus one, i.e. the number of distinct
intervals of the *canonical* squish representation.  Padded patterns must be
canonicalised first, otherwise artificial scan lines introduced by the
fixed-size extension would inflate the complexity.
"""

from __future__ import annotations

import numpy as np

from ..geometry import validate_grid
from ..squish import SquishPattern, canonicalize, run_starts


def topology_complexity(topology: np.ndarray) -> tuple[int, int]:
    """Complexity of a bare topology matrix.

    The interval counts of its canonical form (no two adjacent identical
    rows/columns) minus one, as ``(cx, cy)``.  Two rows are identical after
    the columns are merged exactly when they were identical before, so both
    counts come straight from the run starts of the matrix itself.
    """
    arr = validate_grid(np.asarray(topology, dtype=np.uint8))
    return len(run_starts(arr, axis=1)) - 1, len(run_starts(arr, axis=0)) - 1


def canonical_complexity(canonical: SquishPattern) -> tuple[int, int]:
    """Complexity ``(cx, cy)`` of a pattern already in canonical form."""
    cx, cy = canonical.complexity
    return max(cx - 1, 0), max(cy - 1, 0)


def pattern_complexity(pattern: SquishPattern) -> tuple[int, int]:
    """Complexity ``(cx, cy)`` of a squish pattern."""
    return canonical_complexity(canonicalize(pattern))


def complexity_distribution(
    complexities: "list[tuple[int, int]]", bins: "int | None" = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint empirical distribution of complexities.

    Returns ``(probabilities, x_values, y_values)`` where ``probabilities``
    is a 2-D array over the observed ``cx`` (rows) and ``cy`` (columns)
    values.  With ``bins`` set, a fixed ``bins x bins`` grid starting at zero
    is used instead (as in Fig. 9, which uses a 128x128 grid).
    """
    if not complexities:
        raise ValueError("complexity list is empty")
    arr = np.asarray(complexities, dtype=np.int64)
    if bins is None:
        x_values = np.unique(arr[:, 0])
        y_values = np.unique(arr[:, 1])
    else:
        x_values = np.arange(bins)
        y_values = np.arange(bins)
    counts = np.zeros((len(x_values), len(y_values)), dtype=np.float64)
    x_index = {v: i for i, v in enumerate(x_values.tolist())}
    y_index = {v: i for i, v in enumerate(y_values.tolist())}
    for cx, cy in arr:
        xi = x_index.get(int(cx))
        yi = y_index.get(int(cy))
        if xi is not None and yi is not None:
            counts[xi, yi] += 1.0
    total = counts.sum()
    probabilities = counts / total if total else counts
    return probabilities, x_values, y_values
