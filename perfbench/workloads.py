"""Benchmark scenarios, set-up and the two batch workloads.

Every workload registers its own scenario, built on a builtin with
``extends``, with a training budget that yields survivors and the
legalization pool pinned to one worker:

``stream-full``
    ``paper-tables``: the full 32-step chain, ``slsqp``, one solution per
    topology, no library.  Sampling dominates, so a sampler or ``repro.nn``
    change shows here.
``expand-library``
    ``hotspot-expansion``: the 6-step respaced sampler, ``auto`` solver, 8
    solutions per topology, every rep writing into a fresh deduplicating v2
    library under a writer id.  Legalization, DRC, the library commit and the
    graph's own canonicalize/histogram work dominate.
``serve-mixed``
    ``fewstep-tables`` behind the supervised service (see ``serve_mixed.py``).

The model is trained from the scenario's own seed, so it is the same system
under test for every workload seed; the workload seed picks the sample
streams (and, for serve-mixed, the arrival schedule).  A *rep* of a batch
workload is one streamed ``GenerationGraph.run`` over :data:`REP_SAMPLES`
samples from its own seed.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibrate import calibration_seconds, reference_seconds
from metrics import aggregate_reps, layer_totals
from repro.drc import DesignRuleChecker
from repro.library import PatternLibrary, pattern_hash
from repro.pipeline import DiffPatternPipeline
from repro.scenarios import builtin_registry
from repro.utils import as_rng

#: Training budget that yields survivors (about 45% of the samples pass).
TRAIN_ITERATIONS = 200

#: Samples per rep: two 32-sample chunks, so every rep streams.
REP_SAMPLES = 64

#: Set-ups per run; ``setup_s`` is their median.  The measured phase is
#: split into as many slices, one after each set-up, so a run samples the
#: machine's speed at several moments instead of one.
SETUPS = 3

#: Rep index of the set-up's first chunk (timed reps count up from 0).
WARMUP_REP = 1_000_000

SCENARIOS = {
    "stream-full": ("bench-stream-full", {
        "description": "Benchmark: streamed paper-tables generation, no library",
        "extends": "paper-tables",
        "training": {"iterations": TRAIN_ITERATIONS},
        "engine": {"workers": 1},
    }),
    "expand-library": ("bench-expand-library", {
        "description": "Benchmark: hotspot library expansion into a deduplicating library",
        "extends": "hotspot-expansion",
        "training": {"iterations": TRAIN_ITERATIONS},
        "engine": {"workers": 1},
    }),
    "serve-mixed": ("bench-serve-mixed", {
        "description": "Benchmark: few-step tables served to an open-loop client mix",
        "extends": "fewstep-tables",
        "training": {"iterations": TRAIN_ITERATIONS},
        "engine": {"workers": 1},
    }),
}


def registry(train_iterations: "int | None" = None):
    """The builtin registry plus the benchmark's scenarios."""
    reg = builtin_registry()
    for name, data in SCENARIOS.values():
        data = dict(data)
        if train_iterations is not None:
            data["training"] = {"iterations": int(train_iterations)}
        reg.register_dict(name, data)
    return reg


def plan_for(workload: str, train_iterations: "int | None" = None):
    name = SCENARIOS[workload][0]
    return registry(train_iterations).resolve(name).lower(), name


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """The generator a rep's graph run draws its two base seeds from."""
    return np.random.default_rng([seed, rep])


def digest(patterns) -> str:
    """Order-sensitive digest of a pattern sequence."""
    h = hashlib.sha1()
    for pattern in patterns:
        h.update(pattern_hash(pattern).encode())
    return h.hexdigest()


def model_digest(pipeline) -> str:
    """Digest of the trained weights: set-ups of one run must agree on it."""
    h = hashlib.sha1()
    for name, array in sorted(pipeline.diffusion.model.state_dict().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        """Count one checked operation; record ``problem`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def train(plan, tracer) -> DiffPatternPipeline:
    """Synthesize the dataset and train the model from the scenario seed."""
    pipeline = DiffPatternPipeline(plan.config)
    gen = as_rng(plan.seed)
    tracer.call("data", pipeline.prepare_data, (plan.num_training_patterns,), {"rng": gen})
    tracer.call("train", pipeline.train, (), {"rng": gen})
    return pipeline


def check_patterns(outcome: Outcome, plan, patterns, what: str) -> None:
    """At least one pattern, and every one DRC-clean under a fresh checker."""
    outcome.check(len(patterns) > 0, f"{what}: no pattern emitted")
    if patterns:
        mask = DesignRuleChecker(plan.config.rules).legality_mask(patterns)
        clean = int(np.count_nonzero(mask))
        outcome.check(clean == len(patterns),
                      f"{what}: {len(patterns) - clean} of {len(patterns)} patterns not DRC-clean")


# --------------------------------------------------------------------------- #
# stream-full and expand-library
# --------------------------------------------------------------------------- #
@dataclass
class Rep:
    patterns: list
    seconds: float
    digest: str
    library_bytes: int = 0
    #: The rep's time in reference seconds (set for timed reps only).
    reference_s: float = 0.0


class BatchWorkload:
    """Reps of a streamed graph run, optionally into a fresh library each."""

    def __init__(self, workload: str, args, tracer, work_dir: Path) -> None:
        self.plan, _ = plan_for(workload, args.train_iterations)
        self.with_library = workload == "expand-library"
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.tracer = tracer
        self.work_dir = work_dir
        self.pipeline = None
        self._libraries = 0

    def run_rep(self, rng, samples: int = REP_SAMPLES) -> Rep:
        library = None
        root = None
        if self.with_library:
            root = self.work_dir / f"library-{self._libraries}"
            self._libraries += 1
            library = PatternLibrary(root, dedup=True, writer="bench")
        graph = self.pipeline.generation_graph(
            num_solutions=self.plan.num_solutions,
            retain_topologies=False,
            library=library,
        )
        start = time.perf_counter()
        result = graph.run(samples, seed=rng)
        seconds = time.perf_counter() - start
        rep = Rep(result.patterns, seconds, digest(result.patterns))
        if root is not None:
            rep.library_bytes = sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
            self._check_library(root, rep)
            shutil.rmtree(root)
        return rep

    def _check_library(self, root: Path, rep: Rep) -> None:
        stored = PatternLibrary(root).load_patterns()
        hashes = [pattern_hash(p) for p in stored]
        self.outcome.check(
            hashes == [pattern_hash(p) for p in rep.patterns],
            "library read-back differs from the stored patterns",
        )
        self.outcome.check(len(set(hashes)) == len(hashes),
                           "library holds a pattern hash twice")

    def set_up(self) -> float:
        """Train, then stream the first chunk; returns its reference seconds."""
        before = calibration_seconds()
        start = time.perf_counter()
        self.pipeline = train(self.plan, self.tracer)
        if self.trace:
            from tracing import instrument_pipeline

            instrument_pipeline(self.tracer, self.pipeline)
        chunk = self.plan.config.sample_batch_size
        rep = self.run_rep(rep_rng(self.seed, WARMUP_REP), samples=chunk)
        seconds = time.perf_counter() - start
        check_patterns(self.outcome, self.plan, rep.patterns, "set-up chunk")
        self.warm_digests.append(rep.digest)
        return reference_seconds(seconds, (before + calibration_seconds()) / 2)

    def run(self) -> Outcome:
        """Set up and measure in :data:`SETUPS` alternating phases."""
        self.outcome = outcome = Outcome()
        self.warm_digests: list[str] = []
        self.reps: list[Rep] = []
        self.pairs: "list[tuple[Rep, Rep, dict]]" = []
        setup_times = []
        for _ in range(SETUPS):
            self.tracer.enabled = self.trace
            setup_times.append(self.set_up())
            self.tracer.enabled = False
            deadline = time.perf_counter() + self.seconds / SETUPS
            while time.perf_counter() < deadline:
                if self.trace:
                    self._traced_pair()
                else:
                    self._rep()
        outcome.check(len(set(self.warm_digests)) == 1,
                      "set-ups of one seed streamed different first chunks")
        if outcome.problems:
            return outcome
        if self.trace:
            return self._per_layer()
        again = self.run_rep(rep_rng(self.seed, 0))
        outcome.check(again.digest == self.reps[0].digest,
                      "repeating rep 0 with its seed gave a different digest")
        reps = self.reps
        mean_patterns = statistics.fmean(len(rep.patterns) for rep in reps)
        rep_s = statistics.median(rep.reference_s for rep in reps)
        outcome.end_to_end = {
            "setup_s": statistics.median(setup_times),
            "patterns_per_s": mean_patterns / rep_s,
            "latency_p50_s": rep_s,
        }
        outcome.notes.append(
            f"{len(reps)} reps of {REP_SAMPLES} samples: {mean_patterns:.1f} clean patterns "
            f"per rep, median rep {rep_s:.4f} reference s "
            f"({statistics.median(rep.seconds for rep in reps):.4f} s wall)"
        )
        return outcome

    def _rep(self) -> None:
        index = len(self.reps)
        rep = self.run_rep(rep_rng(self.seed, index))
        rep.reference_s = reference_seconds(rep.seconds, calibration_seconds())
        check_patterns(self.outcome, self.plan, rep.patterns, f"rep {index}")
        self.reps.append(rep)

    def _traced_pair(self) -> None:
        """One rep seed run untraced and traced, alternating which goes first."""
        tracer, index = self.tracer, len(self.pairs)
        runs = {}
        for traced in ((True, False) if index % 2 else (False, True)):
            tracer.enabled = traced
            mark = tracer.mark()
            runs[traced] = self.run_rep(rep_rng(self.seed, index))
            tracer.enabled = False
            if traced:
                totals = layer_totals(tracer, range(mark, tracer.mark()))
        check_patterns(self.outcome, self.plan, runs[True].patterns, f"traced rep {index}")
        self.outcome.check(runs[True].digest == runs[False].digest,
                           f"rep {index}: traced and untraced runs differ")
        self.pairs.append((runs[False], runs[True], totals))

    def _per_layer(self) -> Outcome:
        untraced = [u.seconds for u, _, _ in self.pairs]
        traced = [t.seconds for _, t, _ in self.pairs]
        layers = aggregate_reps([totals for _, _, totals in self.pairs])
        layers["train.busy_s"] = statistics.median(
            s.seconds for s in self.tracer.spans if s.name == "train")
        if self.with_library:
            layers["library.bytes"] = statistics.fmean(t.library_bytes for _, t, _ in self.pairs)
        layers["trace.untraced_s"] = statistics.median(untraced)
        layers["trace.traced_s"] = statistics.median(traced)
        layers["trace.overhead_ratio"] = statistics.median(
            t / u - 1.0 for t, u in zip(traced, untraced))
        self.outcome.per_layer = layers
        self.outcome.notes.append(
            f"{len(self.pairs)} rep pairs of {REP_SAMPLES} samples; per-layer values are per rep")
        return self.outcome
