#!/usr/bin/env python3
"""Pin a paper bench's stdout to an FNV-64 digest.

Runs one bench binary, hashes its stdout with 64-bit FNV-1a (the hash the J48
tree goldens use) and compares the digest with the bench's line in
tests/testdata/goldens/paper_benches.txt (`<name> <16 hex digits>`). On a
mismatch it prints the bench's output, so a CI log shows what moved.

With OFC_UPDATE_GOLDENS=1 it rewrites the bench's line instead of comparing;
tools/update_goldens.py does that for every pinned bench. Registered as the
`paper_<name>` ctests (bench/CMakeLists.txt, label `paper`).

Usage:
  tools/check_paper_bench.py --name fig5_error_distribution BINARY
"""

import argparse
import os
import pathlib
import subprocess
import sys

GOLDENS = (pathlib.Path(__file__).resolve().parent.parent / "tests" / "testdata" / "goldens"
           / "paper_benches.txt")


def fnv1a64(data: bytes) -> str:
    h = 0xcbf29ce484222325
    for byte in data:
        h ^= byte
        h = (h * 0x00000100000001b3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def read_goldens() -> dict:
    goldens = {}
    if GOLDENS.exists():
        for line in GOLDENS.read_text().splitlines():
            if line.strip():
                name, digest = line.split()
                goldens[name] = digest
    return goldens


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--name", required=True, help="the bench's name in the golden file")
    parser.add_argument("binary", help="the bench binary to run")
    args = parser.parse_args()

    done = subprocess.run([args.binary], capture_output=True, check=False)
    if done.returncode != 0:
        sys.stdout.buffer.write(done.stdout)
        sys.stderr.buffer.write(done.stderr)
        print(f"{args.name}: exited {done.returncode}", file=sys.stderr)
        return 1
    digest = fnv1a64(done.stdout)

    goldens = read_goldens()
    update = os.environ.get("OFC_UPDATE_GOLDENS", "") not in ("", "0")
    if update:
        goldens[args.name] = digest
        GOLDENS.write_text("".join(f"{name} {value}\n" for name, value in sorted(goldens.items())))
        print(f"{args.name}: golden updated to {digest} in {GOLDENS}")
        return 0
    expected = goldens.get(args.name)
    if expected is None:
        print(f"{args.name}: no golden in {GOLDENS}; run tools/update_goldens.py to bless it",
              file=sys.stderr)
        return 1
    if digest != expected:
        sys.stdout.buffer.write(done.stdout)
        print(f"{args.name}: stdout digest {digest} != golden {expected}", file=sys.stderr)
        return 1
    print(f"{args.name}: stdout digest {digest} matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
