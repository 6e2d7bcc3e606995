#!/usr/bin/env python3
"""End-to-end smoke test for ofc-sim's observability surface.

Drives the built CLI binary through the telemetry paths CI cares about:

  1. a scraped run with SLOs + flight recorder writes timeline/health/flight
     JSON that parses and passes tools/check_timeline.py's structural checks;
  2. unwritable output paths fail loudly — nonzero exit and a stderr line
     naming the path — for every artifact flag (never a silent exit 0);
  3. the negative post-mortem path: --inject-breach-at trips a SIM_ASSERT and
     --dump-on-assert captures a flight dump naming the breach, with the
     process exiting nonzero. Skipped with --sim-asserts=OFF: a binary built
     without OFC_SIM_ASSERTS (a plain Release build) compiles SIM_ASSERT to a
     no-op, so the seeded breach cannot fire. tools/CMakeLists.txt passes the
     build's setting.

Usage: obs_smoke_test.py <path-to-ofc-sim> [--sim-asserts=ON|OFF]  (default ON)
Exit status: 0 clean, 1 failure, 2 usage error.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SLO_SPEC = ("warm=lat:ofc.platform.total_ms:p99:250;"
            "shed=rate:ofc.overload.shed/ofc.platform.invocations:0.005")

_failures = []


def fail(msg):
    _failures.append(msg)
    print(f"obs_smoke_test: FAIL: {msg}", file=sys.stderr)


def run(binary, args, **kwargs):
    return subprocess.run([binary] + args, capture_output=True, text=True,
                          timeout=300, **kwargs)


def check_scraped_run(binary, outdir):
    timeline = os.path.join(outdir, "timeline.json")
    health = os.path.join(outdir, "health.json")
    flight = os.path.join(outdir, "flight.json")
    proc = run(binary, [
        "--mode=ofc", "--duration-min=5",
        "--scrape-interval-s=10", f"--timeline-json={timeline}",
        f"--slo={SLO_SPEC}", f"--health-json={health}",
        "--flight-recorder", f"--flight-json={flight}",
    ])
    if proc.returncode != 0:
        fail(f"scraped run exited {proc.returncode}: {proc.stderr.strip()}")
        return
    checker = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_timeline.py")
    result = subprocess.run(
        [sys.executable, checker, f"--timeline={timeline}",
         f"--health={health}", f"--flight={flight}", "--min-windows=5",
         "--expect-counter=ofc.platform.invocations"],
        capture_output=True, text=True, timeout=60)
    if result.returncode != 0:
        fail(f"check_timeline rejected the artifacts:\n{result.stderr}")


def check_unwritable_outputs(binary):
    bad = "/nonexistent-ofc-dir/out.json"
    for flag in ("--metrics-json", "--metrics-csv", "--trace-json",
                 "--timeline-json", "--health-json", "--flight-json"):
        proc = run(binary, ["--mode=ofc", "--duration-min=1",
                            f"{flag}={bad}"])
        if proc.returncode == 0:
            fail(f"{flag}={bad} exited 0; expected a loud failure")
        if bad not in proc.stderr:
            fail(f"{flag}: stderr does not name the unwritable path: "
                 f"{proc.stderr.strip()!r}")


def check_breach_dump(binary, outdir):
    dump = os.path.join(outdir, "breach_dump.json")
    proc = run(binary, ["--mode=ofc", "--duration-min=2",
                        "--flight-recorder", "--inject-breach-at=30",
                        f"--dump-on-assert={dump}"])
    if proc.returncode == 0:
        fail("--inject-breach-at run exited 0; the seeded breach must abort")
    if not os.path.exists(dump):
        fail("--dump-on-assert produced no dump file for the seeded breach")
        return
    try:
        with open(dump, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as e:
        fail(f"breach dump is not valid JSON: {e}")
        return
    if "injected invariant breach" not in doc.get("reason", ""):
        fail(f"breach dump reason does not name the breach: "
             f"{doc.get('reason')!r}")
    if not doc.get("events"):
        fail("breach dump carries no flight events (no causal chain)")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("binary")
    parser.add_argument("--sim-asserts", choices=("ON", "OFF"), default="ON")
    args = parser.parse_args()
    binary = args.binary
    if not os.path.exists(binary):
        print(f"obs_smoke_test: no such binary: {binary}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="ofc-obs-smoke-") as outdir:
        check_scraped_run(binary, outdir)
        check_unwritable_outputs(binary)
        if args.sim_asserts == "ON":
            check_breach_dump(binary, outdir)
        else:
            print("obs_smoke_test: breach-dump check skipped (built without "
                  "OFC_SIM_ASSERTS)")
    if _failures:
        print(f"obs_smoke_test: {len(_failures)} failure(s)", file=sys.stderr)
        return 1
    print("obs_smoke_test: all observability CLI paths behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())
