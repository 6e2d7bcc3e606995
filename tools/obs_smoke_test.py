#!/usr/bin/env python3
"""End-to-end smoke test for ofc-sim's observability surface.

Drives the built CLI binary through the telemetry paths CI cares about:

  1. a scraped run with SLOs + flight recorder writes timeline/health/flight
     JSON that parses and passes tools/check_timeline.py's structural checks;
  2. unwritable output paths fail loudly — nonzero exit and a stderr line
     naming the path — for every artifact flag (never a silent exit 0);
  3. scenario sizes that cannot run (no workers, no worker memory, no
     simulated time, a non-positive arrival interval) and duration flags that
     cannot mean anything (NaN, negative, a scrape or scrub period below
     1 us) are rejected up front — nonzero exit and a stderr line naming the
     flag — instead of crashing the simulator, hanging it, or silently
     dropping the setting;
  4. an injected fault leaves its window in the flight ring: a fault_inject
     and a fault_heal record sharing the fault's parent id;
  5. the negative post-mortem path: --inject-breach-at trips a SIM_ASSERT and
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


def run(binary, args, timeout=300):
    return subprocess.run([binary] + args, capture_output=True, text=True,
                          timeout=timeout)


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


def check_invalid_scenario_sizes(binary, outdir):
    timeline = f"--timeline-json={os.path.join(outdir, 'rejected_timeline.json')}"
    # (rejected argument, arguments the run needs beside it)
    cases = [(arg, []) for arg in ("--workers=0", "--workers=-2", "--worker-gb=0",
                                   "--duration-min=0", "--interval-s=0",
                                   "--interval-s=-1")]
    # Integer flags: a whole decimal number or nothing. Negatives (which
    # `atoi` kept and `strtoull` wrapped to 2^64 - 1), text, trailing text,
    # and a probe count or trace sampling period below 1.
    cases += [(arg, []) for arg in ("--breaker-probes=-1", "--breaker-probes=0",
                                    "--max-concurrency=-1", "--breaker-threshold=-2",
                                    "--queue-limit=-1", "--pretrain=-5", "--seed=abc",
                                    "--trace-sample=abc", "--trace-sample=0",
                                    "--workers=4x", "--max-events=-1")]
    # Duration flags: NaN, a negative value where 0 means "off", and a scrape
    # or scrub period that truncates below 1 us (it would re-fire at one
    # instant forever, so each run gets a short timeout).
    cases += [
        ("--scrape-interval-s=0.0000001", ["--duration-min=1", timeline]),
        ("--scrub-interval-s=0.0000001", ["--duration-min=1"]),
        ("--scrape-interval-s=nan", [timeline]),
        ("--scrub-interval-s=nan", []),
        ("--queue-deadline-s=nan", []),
        ("--breaker-open-s=nan", []),
        ("--breaker-open-s=-5", []),
        ("--inject-breach-at=nan", []),
    ]
    for arg, extra in cases:
        try:
            proc = run(binary, ["--mode=ofc", arg] + extra, timeout=10)
        except subprocess.TimeoutExpired:
            fail(f"{arg} did not finish within 10 s; expected a rejection")
            continue
        flag = arg.split("=", 1)[0]
        if proc.returncode == 0:
            fail(f"{arg} exited 0; expected a rejection")
        elif proc.returncode < 0:
            fail(f"{arg} died of signal {-proc.returncode}; expected a rejection")
        if flag not in proc.stderr:
            fail(f"{arg}: stderr does not name the flag: {proc.stderr.strip()!r}")


def check_fault_window(binary, outdir):
    flight = os.path.join(outdir, "fault_flight.json")
    proc = run(binary, ["--mode=ofc", "--duration-min=3",
                        "--crash-node-at=1:60:30", "--flight-recorder=100000",
                        f"--flight-json={flight}"])
    if proc.returncode != 0:
        fail(f"fault run exited {proc.returncode}: {proc.stderr.strip()}")
        return
    with open(flight, "r", encoding="utf-8") as f:
        events = json.load(f)["events"]
    parents = {kind: {e.get("parent") for e in events if e["kind"] == kind}
               for kind in ("fault_inject", "fault_heal")}
    if not parents["fault_inject"] or parents["fault_inject"] != parents["fault_heal"]:
        fail(f"flight dump lacks a matching fault_inject/fault_heal pair: {parents}")


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
        check_invalid_scenario_sizes(binary, outdir)
        check_fault_window(binary, outdir)
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
