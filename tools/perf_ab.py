#!/usr/bin/env python3
"""Compare two perfbench binaries in concurrent, CPU-pinned pairs.

Runs the parent's and the change's perfbench at the same time, each pinned by
taskset to its own CPU, and swaps the two CPUs every pair, so both sides meet
the same host load and neither keeps a faster core. It runs ten pairs, each of
BENCHMARK.json's run_seconds; for a second batch, run the tool again. It fails
when a run fails or when the two sides simulate different fingerprints (a
change that claims only speed must simulate exactly what its parent does).
For each end-to-end metric BENCHMARK.json declares it prints the per-pair
ratios (change / parent), each side's median and quartiles, and whether the
change wins by the repository's rule: better in at least nine tenths of the
pairs, ties counting for neither, with medians further apart than the
parent's interquartile range. With --trace 1 perfbench reports the per-layer
metrics instead, and this prints one line per per-layer metric: each side's
median and the pairs the change won.

Build each side with `python3 perfbench/run.py ...` in its own checkout, then:

  tools/perf_ab.py --parent PARENT/.bench_build/perfbench \\
      --change CHANGE/.bench_build/perfbench --workload azure-owk --seed 1
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from check_perfbench_fingerprints import FINGERPRINT_RE

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PAIRS = 10


def start(binary, cpu, args, seconds):
    cmd = ["taskset", "-c", str(cpu), binary, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(name, proc):
    """Waits for one run; returns (metrics, fingerprint) or exits on failure."""
    out, err = proc.communicate()
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    fingerprint = FINGERPRINT_RE.search(out)
    if proc.returncode != 0 or result is None or not result.get("correct") or not fingerprint:
        sys.exit(f"perf_ab: the {name} run failed (exit {proc.returncode}):\n{err}{out}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, fingerprint.group(0)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent's perfbench binary")
    parser.add_argument("--change", required=True, help="the change's perfbench binary")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpus", default="2,3", help="the two CPUs to pin the sides to")
    args = parser.parse_args()
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    cpus = args.cpus.split(",")
    if len(cpus) != 2 or cpus[0] == cpus[1]:
        parser.error("--cpus must name two distinct CPUs")

    runs = {"parent": [], "change": []}
    for pair in range(PAIRS):
        # Swap the CPUs every pair.
        parent_cpu, change_cpu = (cpus[0], cpus[1]) if pair % 2 == 0 else (cpus[1], cpus[0])
        procs = {"parent": start(args.parent, parent_cpu, args, seconds),
                 "change": start(args.change, change_cpu, args, seconds)}
        results = {side: finish(side, proc) for side, proc in procs.items()}
        if results["parent"][1] != results["change"][1]:
            sys.exit(f"perf_ab: pair {pair + 1} simulated different runs: parent "
                     f"{results['parent'][1]}, change {results['change'][1]}")
        for side in runs:
            runs[side].append(results[side][0])
        print(f"pair {pair + 1}/{PAIRS}: parent on CPU {parent_cpu}, change on CPU "
              f"{change_cpu}; {results['change'][1]}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {PAIRS} pairs of {seconds} s "
          f"(--trace {args.trace})")
    if args.trace:
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            parent = [run.get(name, 0.0) for run in runs["parent"]]
            change = [run.get(name, 0.0) for run in runs["change"]]
            higher = metric["better"] == "higher"
            wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
            print(f"  {name:36} {statistics.median(parent):12.6g} -> "
                  f"{statistics.median(change):12.6g} {metric['unit']:10} change better "
                  f"{wins}/{PAIRS}")
        return 0
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        higher = metric["better"] == "higher"
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
        wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
        ties = sum(1 for p, c in zip(parent, change) if c == p)
        p_q1, p_median, p_q3 = quartiles(parent)
        c_q1, c_median, c_q3 = quartiles(change)
        gain = c_median - p_median if higher else p_median - c_median
        holds = wins >= 0.9 * PAIRS and gain > p_q3 - p_q1
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better)")
        print("  ratios change/parent: " + " ".join(f"{r:.3f}" for r in ratios))
        print(f"  parent median {p_median:.6g} (quartiles {p_q1:.6g} .. {p_q3:.6g})")
        print(f"  change median {c_median:.6g} (quartiles {c_q1:.6g} .. {c_q3:.6g})")
        print(f"  change better in {wins}/{PAIRS} pairs ({ties} ties); median gain "
              f"{gain:.6g} vs parent IQR {p_q3 - p_q1:.6g}; 9-of-10 rule "
              f"{'holds' if holds else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
