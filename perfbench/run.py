#!/usr/bin/env python3
"""End-to-end benchmark of pruner's SearchPolicy::tune() (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Builds the perfbench binary from the checkout it sits in (CMake, into
.bench_build/), runs the workload for --seconds and prints, as the last
line of stdout, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. --workload all runs every workload of BENCHMARK.json and
prints each one's metrics before a combined last line. --save FILE appends
the run, with its workload and seed, to a JSON-lines file that
perfbench/compare.py reads. Exits 1 without a result line if the binary
cannot be built or run, and 1 after the result line if an output check
failed.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Set-up is timed this many times per run (the run's own start included)
# and reported as the median.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
# Stages whose self times must add up to the traced tune() wall.
STAGES = ("draft", "verify", "train", "measure_round", "round", "tune")
COVERAGE_TOLERANCE = 0.02
DEFAULT_SEED = 1  # README.md, "Seeds", also names the held-out seed


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    # Keep compiler and tool temporary files inside the checkout.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def kill_group(pgid):
    """Kill what is left of a process group and wait (up to 10 s) until
    every member has ended."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(cmd):
    """Run @cmd in its own process group; whatever ends the wait (time-out,
    SIGTERM, an exception) kills and reaps the whole group, so no compiler
    or benchmark process outlives the run."""
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
    except OSError as exc:
        raise BenchError(f"cannot run {cmd[0]}: {exc}") from exc
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("timed out: " + " ".join(cmd)) from exc
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        kill_group(proc.pid)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = run_child(cmd)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_perfbench(args):
    """Run the perfbench binary; returns (exit code, parsed last line, the
    monotonic ns at which it was started)."""
    start_ns = time.monotonic_ns()
    proc = run_child([BINARY] + args)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]), start_ns
    except (IndexError, ValueError) as exc:
        raise BenchError(f"perfbench exited {proc.returncode} without a "
                         "result") from exc


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, raw, start_ns):
    setups = [(raw["setup_end_ns"] - start_ns) * 1e-9]
    while len(setups) < SETUP_SAMPLES:
        code, extra, extra_start = run_perfbench(
            ["--workload", workload, "--seed", str(seed), "--setup-only"])
        if code != 0:
            raise BenchError("set-up run failed")
        setups.append((extra["setup_end_ns"] - extra_start) * 1e-9)
    untraced = raw["untraced"]
    return {
        "tune_wall_s": metric(median([c["wall_s"] for c in untraced]), "s"),
        "tune_cpu_s": metric(median([c["cpu_s"] for c in untraced]), "s"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(raw["peak_rss_kb"] / 1024.0, "MB"),
        "final_latency_ms": metric(raw["final_latency_s"] * 1e3, "ms"),
    }


def stage_split(path):
    """Wall self time per main-track span name, the durations of the
    round spans and the summed async_update window, from one Chrome trace
    written with wall stamps."""
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    stacks = {}
    self_us = {}
    rounds_us = []
    async_us = 0.0
    for event in events:
        if event["ph"] not in ("B", "E"):
            continue
        stack = stacks.setdefault(event["tid"], [])
        wall = float(event["args"]["wall_us"])
        if event["ph"] == "B":
            stack.append([event["name"], wall, 0.0])
            continue
        name, begin, children = stack.pop()
        duration = wall - begin
        if stack:
            stack[-1][2] += duration
        if event["tid"] == 0:
            self_us[name] = self_us.get(name, 0.0) + duration - children
            if name == "round":
                rounds_us.append(duration)
        elif name == "async_update":
            async_us += duration
    return self_us, rounds_us, async_us


def per_layer(raw):
    traced = raw["traced"]
    splits = [stage_split(t["trace"]) for t in traced]
    untraced_wall = median([c["wall_s"] for c in raw["untraced"]])
    traced_wall = median([t["wall_s"] for t in traced])

    def stage_s(name):
        return median([s[0].get(name, 0.0) * 1e-6 for s in splits])

    coverage = median([
        sum(s[0].get(stage, 0.0) for stage in STAGES) * 1e-6 / t["wall_s"]
        for s, t in zip(splits, traced)])
    rounds_ms = [d * 1e-3 for s in splits for d in s[1]]
    reg = raw["registry"]

    def count(name):
        return reg.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    train_s = stage_s("train")
    async_s = median([s[2] * 1e-6 for s in splits])
    # Where the learned model scores candidates: the verify stage of the
    # Pruner loops; Ansor scores its GA population inside draft.
    verify_s = stage_s("verify" if "verify" in splits[0][0] else "draft")
    trials = count("measure_trials_total")
    out = {
        "obs.trace_overhead_ratio": metric(ratio(traced_wall, untraced_wall),
                                           "ratio"),
        "obs.trace_coverage": metric(coverage, "ratio"),
        "obs.traced_tune_wall_s": metric(traced_wall, "s"),
        "cost.train_wall_s": metric(train_s, "s"),
        "cost.train_us_per_record": metric(
            1e6 * ratio(train_s + async_s, count("model_train_records_total")),
            "us"),
        "cost.train_records": metric(count("model_train_records_total"),
                                     "count"),
        "cost.train_groups": metric(count("model_train_groups_total"),
                                    "count"),
        "cost.verify_wall_s": metric(verify_s, "s"),
        "cost.verify_us_per_candidate": metric(
            1e6 * ratio(verify_s, count("model_infer_candidates_total")),
            "us"),
        "cost.infer_candidates": metric(
            count("model_infer_candidates_total"), "count"),
        "cost.infer_pack_rows": metric(count("model_infer_pack_rows_total"),
                                       "count"),
        "cost.infer_batches": metric(count("model_infer_batches_total"),
                                     "count"),
        # The model-update window: the async trainer's when training
        # overlaps drafting, else the synchronous train spans.
        "cost.async_update_wall_s": metric(async_s or train_s, "s"),
        "cost.async_updates": metric(count("async_updates_total"), "count"),
        "search.round_self_wall_s": metric(stage_s("round"), "s"),
        "core.draft_wall_s": metric(stage_s("draft"), "s"),
        "core.sa_evals": metric(count("lse_sa_evaluations_total"), "count"),
        "core.spec_candidates": metric(count("lse_spec_candidates_total"),
                                       "count"),
        "core.spec_keep_ratio": metric(
            ratio(count("lse_spec_candidates_total"),
                  count("lse_sa_evaluations_total")), "ratio"),
        "search.evo_evaluations": metric(count("evo_evaluations_total"),
                                         "count"),
        "search.trials": metric(trials, "count"),
        "search.simulated_trials": metric(
            count("measure_simulated_trials_total"), "count"),
        "search.cache_hit_ratio": metric(
            ratio(count("measure_cache_hits_total"), trials), "ratio"),
        "search.failed_trial_ratio": metric(
            ratio(count("measure_failed_trials_total"), trials), "ratio"),
        "search.measure_wall_s": metric(stage_s("measure_round"), "s"),
        "search.round_wall_ms_p50": metric(percentile(rounds_ms, 50), "ms"),
        "search.round_wall_ms_p90": metric(percentile(rounds_ms, 90), "ms"),
        "search.round_samples": metric(len(rounds_ms), "count"),
        "support.pool_jobs": metric(count("pool_jobs_submitted"), "count"),
        "support.pool_peak_queue_depth": metric(
            count("pool_peak_queue_depth"), "count"),
        "sim.search_s": metric(raw["sim_search_s"], "sim_s"),
        "sim.exploration_s": metric(raw["sim_exploration_s"], "sim_s"),
        "sim.training_s": metric(raw["sim_training_s"], "sim_s"),
        "sim.measurement_s": metric(raw["sim_measurement_s"], "sim_s"),
    }
    for name, probe in raw["probes"].items():
        out[name] = metric(probe["value"], probe["unit"])
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        sys.stderr.write(f"perfbench: stage self times cover {coverage:.4f} "
                         "of the traced tune() wall\n")
        return out, False
    return out, True


def run_workload(workload, seed, seconds, trace, expected):
    run_dir = os.path.join(BUILD_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        code, raw, start_ns = run_perfbench([
            "--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--out", run_dir])
        correct = code == 0 and not raw["check_failures"]
        print(f"perfbench: {workload} seed {seed} fingerprint "
              f"{raw['fingerprint']}", file=sys.stderr)
        if trace:
            try:
                metrics, covered = per_layer(raw)
            except (OSError, KeyError, ValueError) as exc:
                raise BenchError(f"unreadable trace output: {exc}") from exc
            correct = correct and covered
        else:
            metrics = end_to_end(workload, seed, raw, start_ns)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if sorted(metrics) != sorted(expected):
        missing = set(expected) ^ set(metrics)
        raise BenchError(f"metrics differ from BENCHMARK.json: {missing}")
    return {"correct": correct, "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def main():
    # Turn SIGTERM into SystemExit so run_child's cleanup runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as f:
            spec = json.load(f)
        seed = args.seed if args.seed is not None else DEFAULT_SEED
        seconds = args.seconds or spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}")
        expected = [m["name"] for m in
                    spec["per_layer" if args.trace else "end_to_end"]]
        build()
        results = {}
        for name in names if args.workload == "all" else [args.workload]:
            results[name] = run_workload(name, seed, seconds, args.trace,
                                         expected)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.save:
        with open(args.save, "a", encoding="utf-8") as f:
            for name, result in results.items():
                f.write(json.dumps({"workload": name, "seed": seed,
                                    "trace": args.trace,
                                    "result": result}) + "\n")
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        for name, result in results.items():
            for key, m in result["metrics"].items():
                print(f"{name:16s} {key:32s} {m['value']:.6g} {m['unit']}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m
                        for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
