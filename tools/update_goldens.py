#!/usr/bin/env python3
"""Regenerate the golden files under tests/testdata/goldens/.

The exporter golden scenario lives in tests/golden_test.cpp and the J48 tree
digests in tests/ml_test.cpp (J48GoldenTest); this script builds both binaries
and re-runs them with OFC_UPDATE_GOLDENS=1, which makes each test rewrite its
golden in place instead of comparing. Review the resulting diff before
committing — a golden churn you cannot explain is a regression, not a
blessing.

Usage:
  tools/update_goldens.py [--build-dir build]
"""

import argparse
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = REPO_ROOT / "tests" / "testdata" / "goldens"


def run(cmd, **kwargs):
    print("+", " ".join(str(c) for c in cmd))
    subprocess.run(cmd, check=True, **kwargs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory (configured already or configurable)")
    args = parser.parse_args()

    build_dir = pathlib.Path(args.build_dir)
    if not build_dir.is_absolute():
        build_dir = REPO_ROOT / build_dir
    if not (build_dir / "CMakeCache.txt").exists():
        run(["cmake", "-B", str(build_dir), "-S", str(REPO_ROOT)])
    run(["cmake", "--build", str(build_dir), "--target", "golden_test", "ml_test",
         "-j", str(os.cpu_count() or 2)])

    env = dict(os.environ, OFC_UPDATE_GOLDENS="1")
    run([str(build_dir / "tests" / "golden_test")], env=env)
    run([str(build_dir / "tests" / "ml_test"), "--gtest_filter=J48GoldenTest.*"], env=env)

    print(f"\ngoldens rewritten under {GOLDENS}; review with:")
    print(f"  git diff -- {GOLDENS.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
