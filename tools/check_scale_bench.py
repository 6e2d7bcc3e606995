#!/usr/bin/env python3
"""Perf-smoke gate: compare a BENCH_scale.json against the checked-in floor.

Usage:
  tools/check_scale_bench.py BENCH_scale.json [--floor bench/scale_floor.json]
                             [--tolerance 0.20]

Fails (exit 1) when:
  * events_per_sec regresses more than `tolerance` below the floor's
    min_events_per_sec;
  * exactly-once accounting is violated (fired != completed);
  * peak RSS exceeds the floor's max_peak_rss_mb (scaled runs must stay
    memory-bounded).

The floor file is intentionally conservative: it encodes the slowest machine
class CI runs on, not the best local number. Update it with a justified commit
when the harness or hardware legitimately changes.
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="BENCH_scale.json produced by scale_stress")
    parser.add_argument("--floor", default="bench/scale_floor.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression below the floor")
    args = parser.parse_args()

    with open(args.bench_json) as f:
        bench = json.load(f)
    with open(args.floor) as f:
        floor = json.load(f)

    failures = []

    eps = bench.get("events_per_sec", 0.0)
    min_eps = floor.get("min_events_per_sec", 0.0)
    allowed = min_eps * (1.0 - args.tolerance)
    if eps < allowed:
        failures.append(
            f"events_per_sec {eps:.0f} is below the floor {min_eps:.0f} "
            f"(-{args.tolerance:.0%} tolerance => {allowed:.0f})")

    fired = bench.get("invocations_fired", 0)
    completed = bench.get("invocations_completed", 0)
    if fired != completed:
        failures.append(f"exactly-once violation: fired={fired} completed={completed}")

    rss = bench.get("peak_rss_mb", 0.0)
    max_rss = floor.get("max_peak_rss_mb")
    if max_rss is not None and rss > max_rss:
        failures.append(f"peak RSS {rss:.1f} MiB exceeds the {max_rss:.1f} MiB bound")

    print(f"scale bench: {eps:.0f} events/sec (floor {min_eps:.0f}), "
          f"{completed} invocations, peak RSS {rss:.1f} MiB")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: within the perf floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
