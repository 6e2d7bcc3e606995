#!/usr/bin/env python3
"""Regenerate the golden files under tests/testdata/goldens/.

The exporter golden scenario lives in tests/golden_test.cpp and the J48 tree
digests in tests/ml_test.cpp (J48GoldenTest); this script builds both binaries
and re-runs them with OFC_UPDATE_GOLDENS=1, which makes each test rewrite its
golden in place instead of comparing. It does the same for the ML paper
benches whose stdout digests tools/check_paper_bench.py pins
(paper_benches.txt; table1_ml_accuracy takes tens of seconds). It then runs
perfbench (perfbench/run.py,
one repetition) on every workload at seeds 1 and 7919 and rewrites the
fingerprints tools/check_perfbench_fingerprints.py pins. Review the resulting
diff before committing — a golden churn you cannot explain is a regression,
not a blessing.

Usage:
  tools/update_goldens.py [--build-dir build]
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import check_perfbench_fingerprints

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = REPO_ROOT / "tests" / "testdata" / "goldens"
PERFBENCH_WORKLOADS = ("azure-ofc", "azure-owk", "starved-pipelines", "azure-ofc-observed")
PERFBENCH_SEEDS = ("1", "7919")
PAPER_BENCHES = ("fig5_error_distribution", "maturation_quickness", "table1_ml_accuracy")


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
         *PAPER_BENCHES, "-j", str(os.cpu_count() or 2)])

    env = dict(os.environ, OFC_UPDATE_GOLDENS="1")
    run([str(build_dir / "tests" / "golden_test")], env=env)
    run([str(build_dir / "tests" / "ml_test"), "--gtest_filter=J48GoldenTest.*"], env=env)
    for bench in PAPER_BENCHES:
        run([sys.executable, str(REPO_ROOT / "tools" / "check_paper_bench.py"), "--name", bench,
             str(build_dir / "bench" / bench)], env=env)

    fingerprints = {}
    for seed in PERFBENCH_SEEDS:
        for workload in PERFBENCH_WORKLOADS:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
                   "--seconds", "1", "--trace", "0"]
            print("+", " ".join(cmd))
            done = subprocess.run(cmd, cwd=REPO_ROOT, check=True, capture_output=True,
                                  text=True)
            _, _, fingerprint = check_perfbench_fingerprints.parse(done.stdout)
            fingerprints.setdefault(seed, {})[workload] = fingerprint
    path = check_perfbench_fingerprints.GOLDENS
    with open(path, "w") as out:
        out.write("{\n")
        for i, seed in enumerate(PERFBENCH_SEEDS):
            out.write(f'  "{seed}": {{\n')
            rows = sorted(fingerprints[seed].items())
            for j, (workload, fingerprint) in enumerate(rows):
                comma = "," if j + 1 < len(rows) else ""
                out.write(f'    "{workload}": {json.dumps(fingerprint)}{comma}\n')
            out.write("  }" + ("," if i + 1 < len(PERFBENCH_SEEDS) else "") + "\n")
        out.write("}\n")

    print(f"\ngoldens rewritten under {GOLDENS}; review with:")
    print(f"  git diff -- {GOLDENS.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
