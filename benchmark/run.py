#!/usr/bin/env python3
"""End-to-end benchmark driver.

Builds benchmark/CMakeLists.txt (the repository's src/ libraries plus the
sb_benchmark binary) into .bench_build/, runs each workload in its own
process, prints one `workload metric value unit` line per metric, writes
DIR/<workload>.seed<S>.json, and exits non-zero if any correctness check
fails.

    python3 benchmark/run.py [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
                             [--workload W ...] [W ...]
    python3 benchmark/run.py --calibrate N [--seed S] [--out DIR] [W ...]

With no workload named, every workload in BENCHMARK.json runs. Untraced runs
report the end-to-end metrics; traced runs (--trace 1) report the per-layer
metrics and write DIR/<workload>.seed<S>.trace.json. When exactly one
workload runs, the last line of standard output is a JSON object with the
keys correct, attempted, failed and metrics.

--calibrate N runs every workload N times (seeds S..S+N-1, workloads
interleaved), writes each run's file and DIR/calibration.json with each
end-to-end metric's median, quartiles and range, and fails if any metric
other than setup_s has a range wider than 10% of its median.

Exit status: 0 all checks passed, 1 a correctness check or calibration
failed, 2 the build or a workload process failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "build")
BINARY = os.path.join(BUILD_DIR, "sb_benchmark")
# A workload process must finish well inside the three minutes one run of
# the benchmark is allowed.
RUN_TIMEOUT_S = 170
CALIBRATION_RANGE_LIMIT = 0.10
# Workloads run with the library's defaults except one: a single thread.
# On a host whose vCPUs share physical cores with other tenants, a
# parallel_for waits for its slowest chunk: on the 4-vCPU KVM guest the
# bounds were calibrated on, 4-thread timings varied by 25% from run to run
# against about 4% single-threaded. The setting is recorded in each
# result's host fingerprint.
FIXED_ENV = {"SB_THREADS": "1"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; False on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sb_benchmark", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: standard output carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build failed: " + " ".join(cmd))
            return False
    return True


def clean_env():
    """The caller's environment without any library setting (SB_*,
    SHRINKBENCH_*), plus FIXED_ENV."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SB_", "SHRINKBENCH_"))}
    env.update(FIXED_ENV)
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def host_fingerprint(binary_host):
    return {
        "nproc": os.cpu_count(),
        "sb_threads": binary_host.get("sb_threads"),
        "simd": binary_host.get("simd"),
        "cpu_model": cpu_model(),
        "git_rev": git_rev(),
    }


def select_metrics(spec, report, trace):
    """The metric set the run reports: every end-to-end metric untraced, every
    per-layer metric traced. A per-layer metric the workload's layers never
    produce (a layer the workload does not cross) reads 0."""
    known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    produced = report["metrics"]
    unknown = sorted(set(produced) - set(known))
    if unknown:
        raise ValueError("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        name = m["name"]
        if name in produced:
            if produced[name]["unit"] != m["unit"]:
                raise ValueError(f"{name}: unit {produced[name]['unit']} != {m['unit']}")
            out[name] = {"value": produced[name]["value"], "unit": m["unit"]}
        elif trace:
            out[name] = {"value": 0.0, "unit": m["unit"]}
        else:
            raise ValueError("end-to-end metric not reported: " + name)
    return out


def run_workload(spec, workload, seed, seconds, trace, out_dir):
    """Runs one workload process; returns its result dict, or None when the
    process failed without a report."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", out_dir]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=clean_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S}s")
        return None
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode not in (0, 1) or not lines:
        log(f"run.py: {workload} exited {proc.returncode} without a report")
        return None
    report = json.loads(lines[-1])
    try:
        report["selected"] = select_metrics(spec, report, trace)
    except ValueError as e:
        log(f"run.py: {workload}: {e}")
        return None
    report["started_at"] = started
    report["fingerprint"] = host_fingerprint(report.pop("host", {}))
    for err in report["errors"]:
        log(f"run.py: {workload}: check failed: {err}")
    if report["correct"]:
        path = os.path.join(out_dir, f"{workload}.seed{seed}.json")
        with open(path, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    return report


def print_lines(workload, selected):
    for name, m in selected.items():
        print(f"{workload} {name} {m['value']!r} {m['unit']}", flush=True)


def calibrate(spec, workloads, runs, seed, seconds, out_dir):
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    for i in range(runs):
        for w in workloads:
            report = run_workload(spec, w, seed + i, seconds, False, out_dir)
            if report is None:
                return 2
            if not report["correct"]:
                return 1
            for name, m in report["selected"].items():
                values[w][name].append(m["value"])
            log(f"calibrate: {w} run {i + 1}/{runs} done")
    summary, ok = {}, True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<18}{'metric':<14}{'median':>12}{'iqr%':>8}{'range%':>8}{'bound%':>8}")
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            iqr, rng = (q3 - q1) / med, (max(vals) - min(vals)) / med
            summary.setdefault(w, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "iqr_share": iqr, "min": min(vals),
                "max": max(vals), "range_share": rng, "values": vals}
            flag = ""
            if name != "setup_s" and rng > CALIBRATION_RANGE_LIMIT:
                ok, flag = False, "  range over 10%"
            print(f"{w:<18}{name:<14}{med:>12.5g}{100 * iqr:>8.2f}{100 * rng:>8.2f}"
                  f"{100 * bounds[name]:>8.1f}{flag}")
    with open(os.path.join(out_dir, "calibration.json"), "w") as f:
        json.dump({"runs": runs, "seed": seed, "seconds": seconds, "metrics": summary}, f,
                  indent=1, sort_keys=True)
    return 0 if ok else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="*", metavar="W", help="workloads to run (default: all)")
    p.add_argument("--workload", action="append", default=[], help="a workload to run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "out"))
    p.add_argument("--calibrate", type=int, metavar="N", default=0)
    args = p.parse_args()
    workloads = args.workload + args.workloads or names
    for w in workloads:
        if w not in names:
            p.error(f"unknown workload {w} (known: {', '.join(names)})")
    if not build():
        return 2
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    if args.calibrate:
        return calibrate(spec, workloads, args.calibrate, args.seed, args.seconds, out_dir)

    status, results = 0, []
    for w in workloads:
        report = run_workload(spec, w, args.seed, args.seconds, bool(args.trace), out_dir)
        if report is None:
            return 2
        print_lines(w, report["selected"])
        results.append(report)
        if not report["correct"]:
            status = 1
    if len(results) == 1:
        r = results[0]
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": r["selected"]}), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
