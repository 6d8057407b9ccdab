#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream-full --seed 0 --seconds 12 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, and the spans go to ``.perfbench/traces/`` as Chrome
trace-event JSON.  If any correctness check fails the program prints the
failures to standard error, no result line, and exits with status 1.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import uuid
from pathlib import Path

#: BLAS/OpenMP thread variables, pinned to one thread (at most nproc): the
#: supervised serve worker runs beside the parent, and the tiny model's
#: matmuls are slower on two threads than on one.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("stream-full", "expand-library", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measured phase runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--train-iterations", type=int, default=None,
                        help="override the scenarios' training budget (the self-test "
                             "starves it to prove the checks fail)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def git_rev() -> "str | None":
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of every file under ``src/``: identifies the code measured."""
    h = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(args) -> dict:
    import numpy
    import scipy

    return {
        "run_id": uuid.uuid4().hex,
        "git_rev": git_rev(),
        "src_sha1": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "train_iterations": args.train_iterations,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest reaped child's.

    Not their sum: the forked serve worker's RSS includes the pages it shares
    copy-on-write with this process (the trained model, numpy, scipy), so a
    sum would count that memory twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    # Before numpy is first imported, which reads the thread variables.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Inherited knobs that would change the system under test.
    os.environ.pop("REPRO_WORKERS", None)
    os.environ.pop("REPRO_COMPILE_CACHE", None)
    args = parse_args(argv)
    if os.environ.get("REPRO_FAULTS"):
        print("refusing to run with REPRO_FAULTS set: injected faults are not "
              "the system under test", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from metrics import END_TO_END, LAYER_MOVES, PER_LAYER
    from tracing import Tracer

    info = stamp(args)
    work = OUT / "work" / info["run_id"]
    work.mkdir(parents=True)
    print("stamp " + json.dumps(info, sort_keys=True), flush=True)
    tracer = Tracer()
    try:
        if args.workload == "serve-mixed":
            from serve_mixed import ServeWorkload

            outcome = ServeWorkload(args, tracer).run()
        else:
            from workloads import BatchWorkload

            outcome = BatchWorkload(args.workload, args, tracer, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in outcome.notes:
        print(note)
    if outcome.problems:
        for problem in outcome.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(f"{outcome.failed} of {outcome.attempted} checks failed; no result reported",
              file=sys.stderr)
        return 1

    if args.trace:
        values, units = outcome.per_layer, PER_LAYER
        path = tracer.write_chrome_trace(
            OUT / "traces" / f"{args.workload}-seed{args.seed}-{info['run_id']}.json", info)
        print(f"{'per-layer metric':<28} {'value':>14}  unit")
        layer = None
        for name, unit in units.items():
            if name.split(".")[0] != layer:
                layer = name.split(".")[0]
                print(f"[{layer}] should move: {LAYER_MOVES[layer]}")
            print(f"  {name:<26} {values[name]:>14.6g}  {unit}")
        print(f"tracing overhead {values['trace.overhead_ratio']:+.2%} (median traced "
              f"{values['trace.traced_s']:.4f} s, untraced {values['trace.untraced_s']:.4f} s)")
        print(f"trace written to {path}")
    else:
        values = dict(outcome.end_to_end, peak_rss_mb=peak_rss_mb())
        units = END_TO_END
        for name, unit in units.items():
            print(f"{name:<16} {values[name]:>14.6g} {unit}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    record = {"correct": True, "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{info['run_id']}.json").write_text(
        json.dumps(dict(record, stamp=info), indent=1, sort_keys=True))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
