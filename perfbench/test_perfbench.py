"""Self-tests of the benchmark: its checks bite and its outputs are well formed.

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import NOMINAL_S, calibration_seconds, reference_seconds  # noqa: E402
from metrics import END_TO_END, LAYER_MOVES, PER_LAYER  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_bench(*args, cwd=ROOT, env=None, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def result_line(stdout: str):
    """The result object if the last stdout line is one, else ``None``."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) and "metrics" in record else None


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from run import WORKLOADS
    from workloads import SCENARIOS

    assert [w["name"] for w in spec["workloads"]] == list(SCENARIOS) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {name.split(".")[0] for name in PER_LAYER} == set(LAYER_MOVES)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"]
    assert all(b < bounds["setup_s"] for n, b in bounds.items() if n != "setup_s")


@pytest.mark.parametrize("workload", ["stream-full", "expand-library", "serve-mixed"])
def test_under_trained_model_fails_the_benchmark(workload):
    # Ten training steps: the prefilter rejects every sample, so no pattern
    # is emitted and the run must fail instead of reporting numbers.
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", "0", "--train-iterations", "10")
    assert proc.returncode == 1, proc.stderr
    assert "no pattern emitted" in proc.stderr
    assert result_line(proc.stdout) is None


def test_refuses_injected_faults():
    env = dict(os.environ, REPRO_FAULTS="stream:advance=error")
    proc = run_bench("--workload", "stream-full", "--seed", "0", "--seconds", "1", env=env)
    assert proc.returncode == 2
    assert result_line(proc.stdout) is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "stream-full", "--seed", "0", "--seconds", "1",
                     cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert result_line(proc.stdout) is None


def test_self_time_and_chrome_trace(tmp_path):
    tracer = Tracer()
    tracer.enabled = True

    def inner():
        return 3

    def outer():
        return tracer.call("child", inner, attrs=lambda result: {"result": result})

    tracer.call("parent", outer)
    tracer.enabled = False
    tracer.call("ignored", inner)
    assert [s.name for s in tracer.spans] == ["child", "parent"][::-1]
    parent, child = tracer.spans
    assert child.parent == 0 and parent.parent is None
    assert child.attrs == {"result": 3}
    self_s = tracer.self_seconds()
    assert self_s[0] == pytest.approx(parent.seconds - child.seconds)

    path = tracer.write_chrome_trace(tmp_path / "trace.json", {"run_id": "x"})
    trace = json.loads(path.read_text())
    events = trace["traceEvents"]
    assert [e["name"] for e in events] == ["parent", "child"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"]["parent"] == 0
    assert trace["otherData"] == {"run_id": "x"}


def test_reference_seconds_scale_with_the_calibration_kernel():
    assert calibration_seconds() > 0
    # On a machine running the kernel at its nominal time, nothing changes;
    # on one twice as slow, the same wall time is half the reference time.
    assert reference_seconds(1.5, NOMINAL_S) == pytest.approx(1.5)
    assert reference_seconds(1.5, 2 * NOMINAL_S) == pytest.approx(0.75)
