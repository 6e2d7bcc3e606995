#!/usr/bin/env python3
"""Check perfbench's simulated fingerprint against the pinned one.

perfbench prints what its repetitions simulated as

    workload NAME, seed N: ...
      latency samples ...; fingerprint EVENTS events, t=T us, HASH

(events scheduled, final simulated time, metrics registry hash). A change that
only speeds the simulator up must leave all three as they were, so CI pins
them per workload and seed in tests/testdata/goldens/perfbench_fingerprints.json
and fails when a run reads anything else. Re-bless the file only through
tools/update_goldens.py, and explain the diff.

Usage:
  python3 perfbench/run.py --workload W --seed 7919 --seconds 1 --trace 0 > out.txt
  tools/check_perfbench_fingerprints.py out.txt     (or - for stdin)
"""

import argparse
import json
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = REPO_ROOT / "tests" / "testdata" / "goldens" / "perfbench_fingerprints.json"

HEADER_RE = re.compile(r"^workload (\S+), seed (\d+):", re.MULTILINE)
FINGERPRINT_RE = re.compile(r"fingerprint (\d+) events, t=(-?\d+) us, ([0-9a-f]{16})")


def parse(output):
    """Returns (workload, seed, fingerprint dict) from perfbench's stdout."""
    header = HEADER_RE.search(output)
    fingerprint = FINGERPRINT_RE.search(output)
    if header is None or fingerprint is None:
        raise ValueError("no 'workload ..., seed ...:' header or fingerprint line")
    return header.group(1), header.group(2), {
        "events": int(fingerprint.group(1)),
        "t_us": int(fingerprint.group(2)),
        "hash": fingerprint.group(3),
    }


def render(fingerprint):
    return (f"{fingerprint['events']} events, t={fingerprint['t_us']} us, "
            f"{fingerprint['hash']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="perfbench stdout, or - for stdin")
    parser.add_argument("--goldens", default=str(GOLDENS))
    args = parser.parse_args()

    text = sys.stdin.read() if args.output == "-" else pathlib.Path(args.output).read_text()
    try:
        workload, seed, got = parse(text)
    except ValueError as error:
        print(f"check_perfbench_fingerprints: {error}", file=sys.stderr)
        return 2
    goldens = json.loads(pathlib.Path(args.goldens).read_text())
    want = goldens.get(seed, {}).get(workload)
    if want is None:
        print(f"check_perfbench_fingerprints: no pinned fingerprint for {workload} at seed "
              f"{seed} in {args.goldens}", file=sys.stderr)
        return 2
    if got != want:
        print(f"check_perfbench_fingerprints: {workload} seed {seed}: simulated "
              f"{render(got)}, pinned {render(want)}", file=sys.stderr)
        return 1
    print(f"check_perfbench_fingerprints: {workload} seed {seed}: {render(got)} (pinned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
