#!/usr/bin/env python3
"""perfbench: the repository benchmark, one command for every workload.

    python3 perfbench/run.py --workload connect --seed 0 --seconds 28 --trace 0

Run from the root of a checkout. It builds perfbench/ (the simulator
libraries plus perfbench_workload) into .bench_build/, then runs it,
one process per repetition, until --seconds have passed, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics over repetitions with tracing off.
wall_s sums, over the event loop's fixed sim-time slices, the fastest host
time any repetition took for each slice (every repetition runs the same
events in the same slices); setup_s and peak_rss_mb are medians. --trace 1
alternates untraced and traced repetitions and reports the per-layer metrics
(span host values: medians over the traced repetitions); the two kinds must
agree exactly on every sim and count value. The Chrome trace of the traced
repetitions is written to .bench_build/traces/. See perfbench/README.md for
what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("connect", "federation", "flowchurn", "disttrain")

# (name, unit) in report order. Sim-time values use the unit "sim_s" so they
# are never read as host time.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.sim_s", "sim_s"),
    ("sim.host_ns_per_event", "ns"),
    ("net.bytes_delivered", "B"),
    ("net.peak_active_flows", "count"),
    ("net.flows", "count"),
    ("net.host_us_per_flow", "us"),
    ("kube.pods", "count"),
    ("kube.pending_p50_sim_s", "sim_s"),
    ("kube.pending_p99_sim_s", "sim_s"),
    ("kube.host_us_per_pod", "us"),
    ("kube.register_host_s", "s"),
    ("kube.submit_host_s", "s"),
    ("thredds.requests", "count"),
    ("thredds.bytes_served", "B"),
    ("redis.redeliveries", "count"),
    ("redis.requeues", "count"),
    ("ceph.bytes_written", "B"),
    ("ceph.bytes_read", "B"),
    ("wf.step1_sim_s", "sim_s"),
    ("wf.step2_sim_s", "sim_s"),
    ("wf.step3_sim_s", "sim_s"),
    ("wf.step4_sim_s", "sim_s"),
    ("wf.table1_err_pct", "%"),
    ("wf.step1_host_s", "s"),
    ("wf.step2_host_s", "s"),
    ("wf.step3_host_s", "s"),
    ("wf.step4_host_s", "s"),
    ("core.files_fetched", "count"),
    ("core.download_retries", "count"),
    ("mon.samples", "count"),
    ("mon.sample_host_s", "s"),
    ("ml.steps", "count"),
    ("ml.comm_bytes", "B"),
    ("ml.final_loss", "loss"),
    ("ml.reference_host_s", "s"),
    ("ml.host_ms_per_step", "ms"),
    ("trace.overhead_pct", "%"),
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configure once and build; returns the perfbench_workload path. Build
    output goes to stderr so stdout carries only the result."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources (src/CMakeLists.txt) in " + root)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_workload")


def run_once(exe, workload, seed, smoke, trace_out, check_reference):
    cmd = [exe, "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if check_reference:
        cmd.append("--check-reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench_workload exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def measure(exe, args, trace_dir):
    """Repetitions until --seconds are spent (a repetition that would end
    past the budget is not started). With tracing, repetitions alternate
    untraced/traced, starting untraced, and at least one of each runs."""
    start = time.monotonic()
    reps = []
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        trace_out = None
        if traced:
            trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        rep = run_once(exe, args.workload, args.seed, args.smoke, trace_out,
                         check_reference=not reps or traced)
        reps.append(rep)
        log(f"repetition {len(reps)}: wall_s {rep['wall_s']:.4f} "
            f"setup_s {rep['setup_s']:.5f}" + (" (traced)" if traced else ""))
        if not rep["correct"]:
            break
        elapsed = time.monotonic() - start
        enough = len(reps) >= (2 if args.trace == 1 else 1)
        if enough and elapsed + elapsed / len(reps) > args.seconds:
            break
    return reps


def best_slices(reps):
    """Sum over slice index of the fastest host time for that slice among
    `reps`. Host speed on a shared machine changes from one fraction of a
    second to the next, so whole-repetition times mix fast and slow spells;
    the per-slice minimum keeps the fast ones."""
    return sum(min(times) for times in zip(*(rep["slice_host_s"] for rep in reps)))


def ratio(num, den, scale):
    return num / den * scale if den else 0.0


def summarize(reps, trace):
    errors = [e for rep in reps for e in rep["errors"]]
    if any(rep["exact"] != reps[0]["exact"] for rep in reps):
        errors.append("sim/count values differ between repetitions"
                      + (" (traced vs untraced)" if trace else ""))
    correct = not errors and all(rep["correct"] for rep in reps)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = 0 if correct else attempted

    untraced = [rep for rep in reps if not rep["traced"]]
    if len({len(rep["slice_host_s"]) for rep in reps}) != 1:
        errors.append("event-loop slice counts differ between repetitions")
    wall = best_slices(untraced)
    if not trace:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(rep["setup_s"] for rep in untraced),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced),
        }
        units = END_TO_END
    else:
        traced = [rep for rep in reps if rep["traced"]]
        values = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        values.update(reps[0]["exact"])
        # A failed first repetition ends the run before any traced one.
        for name in traced[0]["trace_metrics"] if traced else ():
            values[name] = statistics.median(rep["trace_metrics"][name] for rep in traced)
        values["sim.host_ns_per_event"] = ratio(wall, values["sim.events"], 1e9)
        values["net.host_us_per_flow"] = ratio(wall, values["net.flows"], 1e6)
        values["kube.host_us_per_pod"] = ratio(wall, values["kube.pods"], 1e6)
        values["ml.host_ms_per_step"] = ratio(wall, values["ml.steps"], 1e3)
        if traced:
            traced_wall = best_slices(traced)
            values["trace.overhead_pct"] = (traced_wall / wall - 1.0) * 100.0
        units = PER_LAYER
    for e in errors:
        log("check failed: " + e)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="offset from each workload's default seed (0 = default)")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs (the benchmark's own tests)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    try:
        exe = build(root)
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        reps = measure(exe, args, trace_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        log(f"error: {e}")
        return 1
    log(f"{args.workload} seed {args.seed}: {len(reps)} repetitions")
    print(json.dumps(summarize(reps, args.trace == 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
