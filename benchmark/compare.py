#!/usr/bin/env python3
"""Compares a parent commit's benchmark runs with a change's.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run files run.py writes (<workload>.seed<S>.json);
traced runs are ignored. Runs pair by workload and seed, so both sides must
have run the same seeds, and at least ten pairs per workload. Run them
alternately (parent then change for one seed, change then parent for the
next) on one quiet host; the tool warns when the pairs did not interleave.

For every end-to-end metric of every workload it prints each side's median
and quartiles, the change's wins over the pairs, and a verdict:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ, in its favour, by more than
              the distance between the parent's quartiles
  unresolved  either side's spread (quartile distance over median) is wider
              than the metric's bound in BENCHMARK.json
  regressed   the change's median is worse than the parent's by more than
              the bound
  unchanged   otherwise

Runs whose host fingerprints (nproc, SB_THREADS, SIMD level, CPU model)
differ are not compared. Exit status: 0 nothing regressed, 1 something
regressed, 2 the runs cannot be compared.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9
HOST_KEYS = ("nproc", "sb_threads", "simd", "cpu_model")


def load_runs(directory):
    """{workload: {seed: run}} for the untraced runs in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.seed*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            run = json.load(f)
        if run.get("trace"):
            continue
        runs.setdefault(run["workload"], {})[run["seed"]] = run
    return runs


def fingerprints(runs):
    return {json.dumps({k: r["fingerprint"].get(k) for k in HOST_KEYS}, sort_keys=True)
            for by_seed in runs.values() for r in by_seed.values()}


def revisions(runs):
    return {r["fingerprint"].get("git_rev") for by_seed in runs.values() for r in by_seed.values()}


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def interleaved(parent, change, seeds):
    """True when, in time order, every two consecutive runs are one pair."""
    order = sorted([(parent[s]["started_at"], "p") for s in seeds] +
                   [(change[s]["started_at"], "c") for s in seeds])
    return all({order[i][1], order[i + 1][1]} == {"p", "c"} for i in range(0, len(order), 2))


def verdict(p_vals, c_vals, bound, higher_is_better):
    better = (lambda c, p: c > p) if higher_is_better else (lambda c, p: c < p)
    wins = sum(1 for c, p in zip(c_vals, p_vals) if better(c, p))
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_q1, c_med, c_q3 = quartiles(c_vals)
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    worse_share = (p_med - c_med) / p_med if higher_is_better else (c_med - p_med) / p_med
    if (wins >= WIN_SHARE * len(p_vals) and better(c_med, p_med)
            and abs(c_med - p_med) > p_q3 - p_q1):
        v = "improved"
    elif spread > bound:
        v = "unresolved"
    elif worse_share > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, wins, (p_q1, p_med, p_q3), (c_q1, c_med, c_q3)


def main(argv):
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load_runs(argv[1]), load_runs(argv[2])

    prints = fingerprints(parent) | fingerprints(change)
    if len(prints) != 1:
        print("refusing to compare: runs come from different hosts or settings:", file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 2
    for name, runs in (("parent", parent), ("change", change)):
        if len(revisions(runs)) > 1:
            print(f"refusing to compare: the {name} runs mix revisions {sorted(revisions(runs))}",
                  file=sys.stderr)
            return 2

    status = 0
    print(f"{'workload':<17} {'metric':<13} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'delta':>8} {'wins':>6} {'bound':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        if len(seeds) < MIN_PAIRS:
            if p_runs or c_runs:
                print(f"{workload:<17} {len(seeds)} paired seeds, need {MIN_PAIRS}: not compared")
                status = 2
            continue
        if not interleaved(p_runs, c_runs, seeds):
            print(f"{workload:<17} warning: parent and change runs did not alternate in pairs")
        for m in spec["end_to_end"]:
            name = m["name"]
            p_vals = [p_runs[s]["selected"][name]["value"] for s in seeds]
            c_vals = [c_runs[s]["selected"][name]["value"] for s in seeds]
            v, wins, (pq1, pm, pq3), (cq1, cm, cq3) = verdict(
                p_vals, c_vals, m["bound"], m["better"] == "higher")
            if v == "regressed":
                status = max(status, 1)
            print(f"{workload:<17} {name:<13} {pm:>12.5g} [{pq1:>7.5g}, {pq3:>7.5g}] "
                  f"{cm:>12.5g} [{cq1:>7.5g}, {cq3:>7.5g}] {100 * (cm - pm) / pm:>+7.2f}% "
                  f"{wins:>2}/{len(seeds):<3} {100 * m['bound']:>5.1f}%  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
