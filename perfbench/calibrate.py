"""Machine-speed calibration for the timed end-to-end metrics.

The shared 2-core VM the benchmark was tuned on changes speed by itself:
the same rep seed, re-run in one process, took 0.76 s to 1.6 s within a few
minutes, and CPU time followed wall time (no steal), so the cores
themselves ran slower.  Over minutes that drift outweighs any change worth
detecting.

:func:`calibration_seconds` times a fixed kernel that does not touch the
program under test: a pure-Python dict loop, a loop of numpy calls on tiny
arrays, sorts of a 1.6 MB array and a chain of 128x128 matmuls, in the
proportions of interpreter, small-array, memory and BLAS work the workloads
do.  Its speed follows the machine's: timed right after each rep, it
correlated 0.67 (expand-library) and 0.82 (stream-full) with the rep's wall
time, and the median over ten reps of rep time over kernel time spread a
third as much between blocks of reps (IQR/median 0.06) as the median rep
time did (0.19 to 0.22).

:func:`reference_seconds` turns a wall time into *reference seconds*: the
time it would have taken on a machine that runs the kernel in
:data:`NOMINAL_S`.  A change to the program moves reference seconds exactly
as it moves wall time; a change in the machine's speed moves both the time
and the kernel, and mostly cancels.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds the kernel is scaled to: about its median on the tuning machine.
NOMINAL_S = 0.2

_TINY = np.random.default_rng(0).random(64)
_SORT = np.random.default_rng(1).random(200_000)
_MATRIX = np.random.default_rng(2).random((128, 128))


def _kernel(fraction: float) -> float:
    table: dict = {}
    for i in range(int(200_000 * fraction)):
        key = i % 977
        table[key] = table.get(key, 0) + 3 * i
    x = _TINY
    for _ in range(int(15_000 * fraction)):
        x = np.maximum(x * 1.0001, 0.1) + _TINY[::-1]
    total = 0.0
    for _ in range(max(1, round(10 * fraction))):
        total += float(np.sort(_SORT)[100_000])
    m = _MATRIX
    for _ in range(int(1_000 * fraction)):
        m = (m @ _MATRIX) * 0.01
    return total + float(x[0]) + float(m[0, 0]) + len(table)


def calibration_seconds(fraction: float = 1.0) -> float:
    """Wall time of one pass of the fixed kernel.

    ``fraction`` runs that share of every loop of the kernel and scales the
    time back up to a whole pass, for gaps too short for one.
    """
    start = time.perf_counter()
    _kernel(fraction)
    return (time.perf_counter() - start) / fraction


def reference_seconds(seconds: float, calibration: float) -> float:
    """``seconds`` measured next to a kernel pass of ``calibration`` seconds."""
    return seconds * NOMINAL_S / calibration
