"""The repo's end-to-end benchmark: five workloads, each through one stack.

One workload, as the benchmark driver runs it (last line of stdout is one
JSON object; ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones)::

    python3 benchmarks/e2e/run.py --workload engine_batch --seed 1 --seconds 10 --trace 0

The whole suite, one subprocess per workload so that peak memory and
warm-up belong to that workload alone::

    python3 benchmarks/e2e/run.py --seed 1            # end-to-end metrics
    python3 benchmarks/e2e/run.py --seed 1 --trace    # ... and per-layer ones
    python3 benchmarks/e2e/run.py --smoke --trace     # tiny fixed work, same code paths
    python3 benchmarks/e2e/run.py --repeat 5 --out results/a.json
    python3 benchmarks/e2e/run.py --check results/a.json results/b.json

See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Share of the budget the untraced reference of a traced run gets.
REFERENCE_SHARE = 0.25
SMOKE_SCALE = 0.02


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def environment(seed: int, budget) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "seconds": budget.seconds,
        "scale": budget.scale,
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def end_to_end(outcome) -> dict[str, float]:
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "updates_per_s": statistics.median(outcome.write_rates),
        "lookup_p50_us": float(statistics.median(outcome.lookup_us)),
        "enumerate_tuples_per_s": statistics.median(outcome.drain_rates),
        "visibility_p50_ms": float(statistics.median(outcome.visible_ms)),
        "peak_rss_mb": outcome.rss_mb,
        "cpu_us_per_update": outcome.cpu_s / outcome.updates * 1e6,
    }


def per_layer(tracer, calibrator, outcome, reference, generate_s: float) -> dict[str, float]:
    """Every per-layer metric of the traced window; ``-1`` where a target is gone."""
    run = tracer.summary(calibrator.slowdown)
    setup = tracer.summary(calibrator.slowdown, setup=True)
    counters = tracer.window_counters()

    def read(spans, field, *names):
        found = [spans[name][field] for name in names if name in spans]
        return sum(found) if found else -1.0

    def per_call_us(kind, *names):
        time_s, calls = read(run, kind, *names), read(run, "calls", *names)
        return time_s / calls * 1e6 if calls > 0 else calls  # 0 never called, -1 target gone

    def ratio(top, bottom):
        return top / bottom if bottom > 0 else 0.0

    batch_s = read(run, "total_s", "viewtree.apply_batch")

    def cost(o):
        """Write time per update where the run goes flat out; CPU time per
        update where the schedule fixes the rate."""
        return o.cpu_s / o.updates if o.paced else 1.0 / statistics.median(o.write_rates)

    metrics = {
        "core.build_s": read(setup, "total_s", "core.build"),
        "core.apply_self_us": per_call_us("self_s", "core.apply", "core.apply_batch"),
        "core.lookup_self_us": per_call_us("self_s", "core.lookup", "core.lookup_snapshot"),
        "viewtree.build_s": read(setup, "total_s", "viewtree.build"),
        "viewtree.apply_s": read(run, "total_s", "viewtree.apply"),
        "viewtree.apply_calls": read(run, "calls", "viewtree.apply"),
        "viewtree.apply_batch_s": batch_s,
        "viewtree.apply_batch_calls": read(run, "calls", "viewtree.apply_batch"),
        "viewtree.apply_batch_us_per_update": (
            batch_s / outcome.updates * 1e6 if batch_s > 0 else batch_s
        ),
        "viewtree.kernel_push_s": read(run, "total_s", "viewtree.kernel_push"),
        "viewtree.kernel_push_batch_s": read(run, "total_s", "viewtree.kernel_push_batch"),
        "viewtree.kernel_calls": read(run, "calls", "viewtree.kernel_push", "viewtree.kernel_push_batch"),
        "viewtree.lookup_s": read(run, "total_s", "viewtree.lookup"),
        "viewtree.lookup_calls": read(run, "calls", "viewtree.lookup", "viewtree.snapshot_lookup"),
        "viewtree.snapshot_lookup_s": read(run, "total_s", "viewtree.snapshot_lookup"),
        "viewtree.enumerate_s": read(run, "total_s", "viewtree.enumerate"),
        "viewtree.enumerate_tuples": (
            counters["viewtree.enumerate_tuples"] if "viewtree.enumerate" in run else -1.0
        ),
        "viewtree.publish_epoch_s": read(run, "total_s", "viewtree.publish_epoch"),
        "viewtree.publish_calls": read(run, "calls", "viewtree.publish_epoch"),
        "viewtree.change_diff_s": read(run, "total_s", "viewtree.change_diff"),
        "viewtree.delta_tuples": counters["viewtree.delta_tuples"],
        "viewtree.refresh_s": read(run, "total_s", "viewtree.refresh"),
        "viewtree.refresh_calls": read(run, "calls", "viewtree.refresh"),
        "viewtree.full_refreshes": counters["viewtree.full_refreshes"],
        "data.coalesce_s": read(run, "total_s", "data.coalesce", "shard.coalesce"),
        "data.updates_in": counters["data.updates_in"],
        "data.updates_out": counters["data.updates_out"],
        "data.coalesce_ratio": ratio(counters["data.updates_out"], counters["data.updates_in"]),
        "data.add_delta_s": read(run, "total_s", "data.add_delta"),
        "shard.apply_batch_s": read(run, "total_s", "shard.apply_batch"),
        "shard.coalesce_s": read(run, "total_s", "shard.coalesce"),
        "shard.split_s": read(run, "total_s", "shard.split"),
        "shard.encode_s": read(run, "total_s", "shard.encode"),
        "shard.ipc_round_s": read(run, "total_s", "shard.ipc_round"),
        "shard.coordinator_self_s": read(run, "self_s", "shard.apply_batch"),
        "shard.rounds": read(run, "calls", "shard.ipc_round"),
        "shard.bytes_out": counters["shard.bytes_out"],
        "shard.skew": ratio(counters["shard.skew_sum"], counters["shard.skew_rounds"]),
        "shard.lookup_s": read(run, "total_s", "shard.lookup"),
        "shard.enumerate_s": read(run, "total_s", "shard.enumerate"),
        "shard.spawn_s": read(setup, "total_s", "shard.spawn"),
        "shard.worker_failures": read(run, "errors", "shard.ipc_round", "shard.ipc_call"),
        "serve.submit_s": read(run, "total_s", "serve.put"),
        "serve.submit_block_share": ratio(
            counters["serve.put_blocked_s"], read(run, "raw_s", "serve.put")
        ),
        "loadgen.generate_s": generate_s,
        "proc.cpu_s": outcome.cpu_s,
        "proc.cpu_per_update_us": outcome.cpu_s / outcome.updates * 1e6,
        "trace.overhead_share": cost(outcome) / cost(reference) - 1.0,
    }
    metrics.update(outcome.facts)
    return metrics


def run_workload(name: str, seed: int, budget, trace: bool) -> dict:
    """Run one workload here; returns the driver's result object."""
    from measure import Calibrator
    from spans import Tracer
    from stacks import WORKLOADS, Budget

    spec = manifest()
    workload = WORKLOADS[name]
    calibrator = Calibrator()
    started = time.perf_counter()
    inputs = workload.generate(seed, budget)
    generate_s = time.perf_counter() - started
    # The million input objects are the benchmark's, not the program's: keep
    # them out of the collector's sight, or every full collection would walk
    # them and stall the program for a quarter of a second.
    gc.freeze()
    if trace:
        short = Budget(
            budget.seconds and budget.seconds * REFERENCE_SHARE,
            budget.scale and budget.scale * REFERENCE_SHARE,
        )
        reference = workload.run(inputs, short, calibrator)
        tracer = Tracer()
        tracer.install()
        outcome = workload.run(inputs, budget, calibrator, tracer=tracer)
        tracer.write_chrome_trace(os.path.join(RESULTS, f"trace_{name}.json"))
        values = per_layer(tracer, calibrator, outcome, reference, generate_s)
        declared = spec["per_layer"]
        correct = outcome.correct and reference.correct
    else:
        outcome = workload.run(inputs, budget, calibrator, setups=SETUPS)
        values = end_to_end(outcome)
        declared = spec["end_to_end"]
        correct = outcome.correct
    metrics = {
        metric["name"]: {"value": float(values.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in declared
    }
    print(f"# {name}  seed={seed}  trace={int(trace)}  updates={outcome.updates}  "
          f"wall={outcome.wall_s:.2f}s  lookups={len(outcome.lookup_us)} bursts  "
          f"drains={len(outcome.drain_rates)}  segments={len(outcome.write_rates)}")
    for metric_name, metric in metrics.items():
        print(f"{metric_name:38s} {metric['value']:16.4f} {metric['unit']}")
    return {
        "correct": bool(correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# The suite: one subprocess per (workload, trace)
# ----------------------------------------------------------------------


def run_child(name: str, seed: int, budget, trace: bool) -> dict:
    """One workload in its own process; a wrong output makes the child exit non-zero."""
    size = ["--seconds", repr(budget.seconds)] if budget.scale is None else ["--scale", repr(budget.scale)]
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--trace", str(int(trace)), *size,
    ]
    done = subprocess.run(command, text=True, stdout=subprocess.PIPE)
    sys.stdout.write(done.stdout)
    if done.returncode:
        raise SystemExit(f"{name} (trace={int(trace)}) exited with code {done.returncode}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def run_suite(names: list[str], seed: int, budget, trace: bool) -> dict:
    """``{"end_to_end": {workload: result}, "per_layer": {workload: result}}``."""
    suite = {"end_to_end": {name: run_child(name, seed, budget, False) for name in names}}
    if trace:
        suite["per_layer"] = {name: run_child(name, seed, budget, True) for name in names}
    return suite


def print_ledger(suite: dict) -> None:
    """Each stack's cost relative to ``engine_batch``, with its base."""
    results = suite["end_to_end"]
    base = results.get("engine_batch")
    if base is None:
        return
    print("\n# layer-tax ledger: each workload relative to engine_batch "
          "(x = engine_batch value / workload value for rates, the inverse for costs)")
    spec = manifest()["end_to_end"]
    print(f"{'metric':26s}" + "".join(f"{name:>16s}" for name in results))
    for metric in spec:
        name = metric["name"]
        base_value = base["metrics"][name]["value"]
        cells = []
        for result in results.values():
            value = result["metrics"][name]["value"]
            tax = base_value / value if metric["better"] == "higher" else value / base_value
            cells.append(f"{tax:15.2f}x")
        print(f"{name:26s}" + "".join(cells) + f"   base {base_value:.4g} {metric['unit']}")
    layers = suite.get("per_layer", {})
    if "engine_batch" in layers and "serve_saturate" in layers:
        key = "viewtree.apply_batch_us_per_update"
        served = layers["serve_saturate"]["metrics"][key]["value"]
        bare = layers["engine_batch"]["metrics"][key]["value"]
        print(f"viewtree.cow_tax {served / bare:.2f}x  (apply_batch per update: "
              f"{served:.3f} us under the server, base {bare:.3f} us bare)")


def quartiles(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance as a share of the median."""
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return median, first, third, (third - first) / median


def run_repeats(names: list[str], seed: int, budget, repeats: int, out: str) -> None:
    """Run the untraced suite ``repeats`` times, each with another seed."""
    samples: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    for repeat in range(repeats):
        for name, result in run_suite(names, seed + repeat, budget, False)["end_to_end"].items():
            for metric, cell in result["metrics"].items():
                samples[name].setdefault(metric, []).append(cell["value"])
    bounds = {metric["name"]: metric["bound"] for metric in manifest()["end_to_end"]}
    print(f"\n# {repeats} runs, seeds {seed}..{seed + repeats - 1}")
    print(f"{'workload':16s}{'metric':26s}{'median':>14s}{'q1':>14s}{'q3':>14s}{'spread':>9s}{'bound':>7s}")
    for name, metrics in samples.items():
        for metric, values in metrics.items():
            median, first, third, spread = quartiles(values)
            flag = "  > bound/3" if spread > bounds[metric] / 3 and metric != "setup_s" else ""
            print(f"{name:16s}{metric:26s}{median:14.4f}{first:14.4f}{third:14.4f}"
                  f"{spread:9.3f}{bounds[metric]:7.2f}{flag}")
    path = os.path.join(HERE, out)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"environment": environment(seed, budget), "samples": samples}, handle, indent=1)
    print(f"# wrote {path}")


def check(first_path: str, second_path: str) -> int:
    """Non-zero when the second set of runs disagrees with the first beyond a bound."""
    sets = []
    for path in (first_path, second_path):
        with open(path) as handle:
            sets.append(json.load(handle)["samples"])
    disagreements = 0
    for metric in manifest()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in sets[0]:
            before, _, _, spread = quartiles(sets[0][workload][name])
            after = statistics.median(sets[1][workload][name])
            worse = (before - after if metric["better"] == "higher" else after - before) / before
            verdict = "ok"
            if worse > bound:
                verdict = "WORSE"
            elif spread > bound and name != "setup_s":
                verdict = "UNRESOLVED (spread > bound)"
            disagreements += verdict != "ok"
            print(f"{workload:16s}{name:26s}{before:14.4f}{after:14.4f}{worse:+9.3f}"
                  f"{bound:7.2f}  {verdict}")
    return 1 if disagreements else 0


def main() -> int:
    spec = manifest()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="run this workload only (in this process, unless --repeat)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measure for this long (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--scale", type=float,
                        help="fixed work instead: this multiple of each workload's nominal updates")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1: also (suite) or only (--workload) the per-layer metrics, spans on")
    parser.add_argument("--smoke", action="store_true", help=f"same as --scale {SMOKE_SCALE}")
    parser.add_argument("--repeat", type=int, help="run the untraced suite N times, with seeds seed..seed+N-1")
    parser.add_argument("--out", default="results/repeat.json", help="where --repeat writes its samples")
    parser.add_argument("--check", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare two --repeat files against the bounds of BENCHMARK.json")
    args = parser.parse_args()
    if args.check:
        return check(*args.check)

    from stacks import Budget

    scale = SMOKE_SCALE if args.smoke else args.scale
    budget = Budget(scale=scale) if scale is not None else Budget(seconds=args.seconds)
    if args.repeat:
        run_repeats([args.workload] if args.workload else names, args.seed, budget, args.repeat, args.out)
        return 0
    if args.workload:
        print(f"# environment {json.dumps(environment(args.seed, budget))}")
        result = run_workload(args.workload, args.seed, budget, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    suite = run_suite(names, args.seed, budget, bool(args.trace))
    print_ledger(suite)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"suite_seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({"environment": environment(args.seed, budget), **suite}, handle, indent=1)
    print(f"# wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
