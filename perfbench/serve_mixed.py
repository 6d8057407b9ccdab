"""serve-mixed: an open loop of sample-window requests against the service.

An in-process, *supervised* :class:`~repro.serve.GenerationService` serves
the ``bench-serve-mixed`` scenario; generation runs in its forked worker,
off the event loop.  A run has one phase per set-up: each phase starts a
fresh service and drives its share of the measured time.  Arrivals follow a
schedule made from the workload seed and the phase:
bursts of :data:`BURST` requests at :data:`RATE` requests per second, so
coalescing has work to do.  Every request asks for a :data:`WINDOW`-sample
window.  About 70% are fresh tail windows (generation writes them into the
window cache); the rest re-read an earlier fresh window that was due at
least :data:`MIN_AGE` seconds before (a cache read through ``cover``).  The
schedule is fixed by the seed, never by observed completions, so every run
of one seed sends identical requests.

Each window is timed from when it was due to when its summary arrived, which
counts any stall of the load generator against the requests it delayed.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass

import numpy as np

from calibrate import calibration_seconds, reference_seconds
from metrics import aggregate_reps, percentile
from repro.library import pattern_hash
from repro.serve import GenerateRequest, GenerationService
from workloads import (
    SETUPS,
    Outcome,
    check_patterns,
    digest,
    model_digest,
    plan_for,
    registry,
    rep_rng,
    train,
)

#: Offered load: requests per second, arriving in bursts of BURST.  Over 40
#: runs on a 2-core VM the supervised service's fresh-window p90 stayed under
#: 0.24 s, below the 0.33 s between bursts, and the load generator's lag p99
#: under 14 ms: the service is loaded, not saturated.
RATE = 12.0
BURST = 4
#: Samples per requested window.
WINDOW = 8
#: Share of requests that re-read an earlier window.
REPEAT_SHARE = 0.3
#: A re-read targets a fresh window due at least this many seconds earlier:
#: more than the slowest fresh window seen at RATE (0.37 s in those runs), so
#: the target has been served and the re-read is a cache read, not a wait on
#: generation.
MIN_AGE = 0.5
#: Goodput counts windows served ``ok`` within three burst intervals: a
#: later window has had three more bursts queued behind it.
LATENCY_LIMIT = 3 * BURST / RATE
#: The service never rejects a request of this schedule for backpressure.
MAX_PENDING = 1024
#: Between bursts, once a burst's windows are all served, the load generator
#: times this share of a calibration pass (about 40 ms) if the next burst is
#: at least CALIBRATION_LEAD seconds away; each window's latency is scaled
#: by the last pass before its burst.
CALIBRATION_FRACTION = 0.2
CALIBRATION_LEAD = 0.1


@dataclass
class Arrival:
    #: Seconds after the schedule starts.
    due: float
    burst: int
    #: Index of the fresh window this request creates or re-reads.
    window: int
    repeat: bool


def make_schedule(seed: int, phase: int, seconds: float) -> "list[Arrival]":
    """The seeded arrival schedule of one run.

    Which requests re-read is a fixed quota spread evenly over the requests
    made once some window is old enough, so every seed offers the same fresh
    load; the seed picks the burst jitter and the window each re-read asks
    for.
    """
    rng = np.random.default_rng([seed, 7, phase])
    interval = BURST / RATE
    arrivals: list[Arrival] = []
    fresh_due: list[float] = []
    owed = 0.0
    for burst in range(max(1, int(seconds / interval))):
        due = (burst + rng.uniform(0.0, 0.25)) * interval
        for _ in range(BURST):
            old = [j for j, t in enumerate(fresh_due) if t <= due - MIN_AGE]
            # No re-read is owed while no window is old enough.
            owed = owed + REPEAT_SHARE if old else 0.0
            if owed >= 1.0:
                owed -= 1.0
                arrivals.append(Arrival(due, burst, int(rng.choice(old)), True))
            else:
                arrivals.append(Arrival(due, burst, len(fresh_due), False))
                fresh_due.append(due)
    return arrivals


@dataclass
class Served:
    phase: int
    arrival: Arrival
    ticket: object
    window: object
    latency: float
    done: float
    #: ``latency`` in reference seconds (see ``calibrate.py``).
    reference_latency: float


class ServeWorkload:
    """Three phases: set up a service, drive a third of the schedule, check it.

    Each phase trains its own pipeline and serves its own sample stream
    (``rep_rng(seed, phase)``) behind a fresh supervised service.
    """

    def __init__(self, args, tracer) -> None:
        self.plan, self.scenario = plan_for("serve-mixed", args.train_iterations)
        self.registry = registry(args.train_iterations)
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.tracer = tracer

    def run(self) -> Outcome:
        return asyncio.run(self._run())

    async def set_up(self, phase: int):
        """Train, start the supervised service and serve one first window."""
        start = time.perf_counter()
        pipeline = train(self.plan, self.tracer)
        service = GenerationService(
            registry=self.registry,
            max_pending=MAX_PENDING,
            pipeline_factory=lambda plan: (pipeline, rep_rng(self.seed, phase)),
            supervised=True,
        )
        await service.start()
        window = await service.submit(GenerateRequest(self.scenario, count=WINDOW)).collect()
        seconds = time.perf_counter() - start
        self.outcome.check(window.ok, "set-up window not served ok")
        return seconds, service, pipeline, window

    async def _run(self) -> Outcome:
        self.outcome = outcome = Outcome()
        setup_times, served, lags, snapshots, models = [], [], [], [], []
        drive_spans = []
        for phase in range(SETUPS):
            self.tracer.enabled = self.trace
            before = calibration_seconds()
            seconds, service, pipeline, warm = await self.set_up(phase)
            ready = calibration_seconds()
            # The traced run traces the middle phase's requests, bracketed
            # in time by two untraced phases.
            self.tracer.enabled = self.trace and phase % 2 == 1
            setup_times.append(reference_seconds(seconds, (before + ready) / 2))
            models.append(model_digest(pipeline))
            try:
                phase_served, phase_lags, start = await self._drive(service, phase, ready)
                snapshots.append(service.metrics.snapshot())
            finally:
                self.tracer.enabled = False
                await service.stop()
            self._check(phase, phase_served, warm, pipeline)
            served += phase_served
            lags += phase_lags
            drive_spans.append((start, phase_served))
        outcome.check(len(set(models)) == 1, "set-ups of one seed trained different models")
        if outcome.problems:
            return outcome

        fresh = [s for s in served if not s.arrival.repeat]
        repeats = [s for s in served if s.arrival.repeat]
        fresh_latency = [s.latency for s in fresh]
        repeat_latency = [s.latency for s in repeats]
        clean = sum(sum(1 for flag in s.window.clean if flag) for s in fresh)
        # Generation wall time: first fresh window due to last fresh summary, per phase.
        busy = sum(
            max(s.done for s in ss if not s.arrival.repeat)
            - (start + min(s.arrival.due for s in ss if not s.arrival.repeat))
            for start, ss in drive_spans
        )
        good = sum(1 for s in served if s.window.ok and s.latency <= LATENCY_LIMIT)
        elapsed = sum(max(s.done for s in ss) - start for start, ss in drive_spans)
        # A run too short to have an old enough window has no re-reads.
        repeat_p50 = percentile(repeat_latency, 0.5) if repeats else 0.0
        repeat_p90 = percentile(repeat_latency, 0.9) if repeats else 0.0
        batches = sum(snap["batches"] for snap in snapshots)
        generated = sum(snap["samples_generated"] for snap in snapshots)
        cached = sum(snap["samples_cached"] for snap in snapshots)
        outcome.notes.append(
            f"{len(fresh)} fresh and {len(repeats)} re-read windows of {WINDOW} samples "
            f"at {RATE:g} req/s in bursts of {BURST}; {clean} clean patterns in fresh windows; "
            f"fresh p50 {percentile(fresh_latency, 0.5):.4f} s wall, "
            f"p90 {percentile(fresh_latency, 0.9):.4f} s, max {max(fresh_latency):.4f} s; "
            f"re-read p50 {repeat_p50:.4f} s; {cached} cached samples served for "
            f"{WINDOW * len(repeats)} re-read; scheduler lag p99 {percentile(lags, 0.99):.4f} s; "
            f"goodput {good / elapsed:.2f}/s within {LATENCY_LIMIT:g} s"
        )
        if not self.trace:
            outcome.end_to_end = {
                "setup_s": statistics.median(setup_times),
                "patterns_per_s": clean / busy,
                "latency_p50_s": percentile([s.reference_latency for s in fresh], 0.5),
            }
            return outcome

        tracer = self.tracer
        traced = [s.latency for s in fresh if s.phase % 2 == 1]
        untraced = [s.latency for s in fresh if s.phase % 2 == 0]
        # The worker-side layers run in the forked worker, which is not
        # traced; the legalization counts come from the service's metrics.
        layers = aggregate_reps([])
        solutions = sum(snap["legalize_solutions"] for snap in snapshots)
        attempted = sum(snap["legalize_attempted"] for snap in snapshots)
        fast_path = sum(snap["legalize_fast_path_fraction"] * snap["legalize_solutions"]
                        for snap in snapshots)
        layers.update({
            "sample.samples": generated,
            "legalize.topologies": attempted,
            "legalize.solutions": solutions,
            "legalize.success_ratio": sum(
                snap["legalize_solved"] for snap in snapshots) / attempted,
            "legalize.fast_path_ratio": fast_path / solutions,
            "legalize.tail_solves": sum(
                snap["legalize_batched_tail_solves"] for snap in snapshots),
            "train.busy_s": statistics.median(
                span.seconds for span in tracer.spans if span.name == "train"),
            "serve.submit_s": statistics.median(
                span.seconds for span in tracer.spans if span.name == "serve.submit"),
            "serve.batches": batches,
            "serve.batch_size_mean": sum(
                snap["batch_size_mean"] * snap["batches"] for snap in snapshots) / batches,
            "serve.occupancy_mean": sum(
                snap["batch_occupancy_mean"] * snap["batches"] for snap in snapshots) / batches,
            "serve.cache_hit_ratio": cached / (generated + cached),
            "serve.retries": sum(snap["generation_retries"] for snap in snapshots),
            "serve.worker_restarts": sum(snap["worker_restarts"] for snap in snapshots),
            "serve.sched_lag_p99_s": percentile(lags, 0.99),
            "serve.fresh_p90_s": percentile(fresh_latency, 0.9),
            "serve.repeat_p50_s": repeat_p50,
            "serve.repeat_p90_s": repeat_p90,
            "serve.goodput_per_s": good / elapsed,
            "trace.untraced_s": statistics.median(untraced),
            "trace.traced_s": statistics.median(traced),
            "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced) - 1,
        })
        for start, ss in drive_spans:
            for s in ss:
                tracer.record("serve.request", int((start + s.arrival.due) * 1e9),
                              int(s.done * 1e9), window=s.arrival.window,
                              repeat=s.arrival.repeat, burst=s.arrival.burst)
        outcome.per_layer = layers
        outcome.notes.append(
            "serve-mixed layer values are totals over every phase; sample busy time, "
            "prefilter, drc and graph run in the untraced worker and read 0")
        return outcome

    async def _drive(self, service, phase: int, calibration: float):
        """Send one phase's schedule open-loop; returns (served, lags, start).

        ``calibration`` is a whole calibration pass timed just before.
        """
        arrivals = make_schedule(self.seed, phase, self.seconds / SETUPS)
        tasks, lags, burst, burst_tasks = [], [], 0, []
        start = time.perf_counter() + 0.05

        async def finish(arrival, ticket, due, calibration):
            window = await ticket.collect()
            done = time.perf_counter()
            return Served(phase, arrival, ticket, window, done - due, done,
                          reference_seconds(done - due, calibration))

        for arrival in arrivals:
            due = start + arrival.due
            if arrival.burst != burst:
                burst = arrival.burst
                room = due - CALIBRATION_LEAD - time.perf_counter()
                if room > 0:
                    _, pending = await asyncio.wait(burst_tasks, timeout=room)
                    if not pending and due - time.perf_counter() > CALIBRATION_LEAD:
                        calibration = calibration_seconds(CALIBRATION_FRACTION)
                burst_tasks = []
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - due)
            request = GenerateRequest(
                self.scenario,
                count=WINDOW,
                start=WINDOW * (1 + arrival.window) if arrival.repeat else None,
            )
            ticket = self.tracer.call("serve.submit", service.submit, (request,))
            tasks.append(asyncio.ensure_future(finish(arrival, ticket, due, calibration)))
            burst_tasks.append(tasks[-1])
        served = await asyncio.gather(*tasks)
        return list(served), lags, start

    def _check(self, phase: int, served, warm, pipeline) -> None:
        outcome = self.outcome
        fresh = {}
        for s in served:
            summary = s.window.summary
            outcome.check(s.window.ok, f"phase {phase} window {s.arrival.window}: "
                          f"{summary.error_code if summary else 'no summary'}")
            if not s.arrival.repeat:
                fresh[s.arrival.window] = s
                expected = WINDOW * (1 + s.arrival.window)
                outcome.check(s.ticket.start == expected,
                              f"phase {phase} fresh window {s.arrival.window} "
                              f"got start {s.ticket.start}")
        for s in served:
            if s.arrival.repeat:
                first = fresh[s.arrival.window].window
                outcome.check(
                    [pattern_hash(p) for p in s.window.patterns]
                    == [pattern_hash(p) for p in first.patterns]
                    and s.window.sources == first.sources,
                    f"phase {phase}: re-read of window {s.arrival.window} "
                    "differs from its first serving",
                )
        spliced = list(warm.patterns)
        for index in sorted(fresh):
            spliced.extend(fresh[index].window.patterns)
        check_patterns(outcome, self.plan, spliced, f"phase {phase} fresh windows")
        outcome.check(all(flag for s in served for flag in s.window.clean),
                      f"phase {phase}: a served pattern is flagged not DRC-clean")
        one_shot = pipeline.generate_and_legalize(
            WINDOW * (1 + len(fresh)),
            num_solutions=self.plan.num_solutions,
            rng=rep_rng(self.seed, phase),
        )
        outcome.check(digest(spliced) == digest(one_shot.patterns),
                      f"phase {phase}: spliced fresh windows differ from a one-shot "
                      "generate_and_legalize")
