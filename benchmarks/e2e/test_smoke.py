"""Smoke test of the benchmark itself: ``run.py --smoke --trace`` end to end.

Not part of the tier-1 suite (``testpaths = tests``); run it with
``python -m pytest benchmarks/e2e/test_smoke.py``.  It drives the same
code paths and oracle checks as a full run, on a fiftieth of the work.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
ENGINE_WORKLOADS = ("engine_batch", "engine_mixed", "shard_batch")
#: Counters of faults: zero on a healthy run, on every workload.
FAULT_COUNTERS = {"shard.worker_failures", "serve.commit_errors", "serve.feed_gaps"}
#: Only the open-loop workload has a write schedule to be late on.
OPEN_LOOP_ONLY = {"loadgen.lag_p50_ms", "loadgen.lag_max_ms"}
#: Zero unless the host stalled during the run; either is a healthy run.
MAY_BE_ZERO = FAULT_COUNTERS | {"serve.late_share"}


def _run(*arguments: str) -> str:
    done = subprocess.run([*RUN, *arguments], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def _values(result: dict) -> dict[str, float]:
    return {name: cell["value"] for name, cell in result["metrics"].items()}


def test_smoke_suite():
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    _run("--smoke", "--trace", "--seed", "1")
    with open(os.path.join(HERE, "results", "suite_seed1.json")) as handle:
        suite = json.load(handle)
    assert {"cpu_count", "python", "numpy", "platform", "commit", "seed", "scale"} <= set(
        suite["environment"]
    )
    workloads = [workload["name"] for workload in spec["workloads"]]

    for name in workloads:
        result = suite["end_to_end"][name]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        values = _values(result)
        assert list(values) == [metric["name"] for metric in spec["end_to_end"]]
        assert all(value > 0 for value in values.values()), (name, values)

    layers = {name: _values(suite["per_layer"][name]) for name in workloads}
    for name, values in layers.items():
        assert list(values) == [metric["name"] for metric in spec["per_layer"]]
        # Every span target still resolves at this commit.
        assert all(value != -1 for value in values.values()), (name, values)
        for metric, value in values.items():
            if metric.startswith("shard.") and name != "shard_batch":
                assert value == 0, (name, metric, value)
            if metric in FAULT_COUNTERS:
                assert value == 0, (name, metric, value)
        if name in ENGINE_WORKLOADS:
            for metric in ("viewtree.publish_calls", "viewtree.change_diff_s", "serve.commits"):
                assert values[metric] == 0, (name, metric)
    # Each per-layer metric is exercised by at least one workload.
    for metric in (m["name"] for m in spec["per_layer"]):
        if metric not in MAY_BE_ZERO:
            assert any(values[metric] != 0 for values in layers.values()), metric
    assert all(layers[name][metric] == 0 for name in workloads if name != "serve_paced"
               for metric in OPEN_LOOP_ONLY | {"serve.late_share"})

    # Fixed work: the counts of one seed repeat exactly on the engine workloads.
    for name in ("engine_batch", "shard_batch"):
        again = _values(json.loads(
            _run("--workload", name, "--smoke", "--trace", "1", "--seed", "1").splitlines()[-1]
        ))
        for metric in ("data.updates_out", "viewtree.apply_batch_calls", "shard.rounds",
                       "viewtree.enumerate_tuples", "loadgen.reads_sent"):
            assert again[metric] == layers[name][metric], (name, metric)

    for name in workloads:
        assert os.path.exists(os.path.join(HERE, "results", f"trace_{name}.json"))


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails instead of printing a result."""
    import shutil

    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload", "engine_batch", "--smoke"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
