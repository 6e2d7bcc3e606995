// Scale regression tests: a downscaled (50k-invocation) version of the
// bench/scale_stress harness run as part of the test suite, asserting the
// properties the million-invocation run relies on — exactly-once completion
// accounting, a wall-clock throughput floor, bounded peak memory, and
// byte-identical same-seed metrics output.
//
// Tagged with the `scale` ctest label so the CI fast tier can exclude it;
// the thresholds are deliberately loose (an order of magnitude below typical
// local numbers) so the test gates against pathological regressions, not
// machine noise.
#include <sys/resource.h>

#include <chrono>  // simlint: allow(wall-clock) -- asserts the simulator's real throughput, not simulated time
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/common/checksum.h"
#include "src/core/scrubber.h"
#include "src/faasload/runner.h"
#include "src/fault/fault_plan.h"
#include "src/workloads/scale_trace.h"

namespace ofc {
namespace {

constexpr std::uint64_t kTargetInvocations = 50'000;

// The throughput floor in events per second. 30k is an order of magnitude
// below an optimized build's typical ~300k. A build without optimization or
// with a sanitizer runs far slower (a Debug ASan/UBSan build with libstdc++
// assertions: 12.9-14.8k on a 4-vCPU VM), so there the floor sits the same
// way below that build's own speed.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || !defined(__OPTIMIZE__)
constexpr double kMinEventsPerSec = 3'000.0;
#else
constexpr double kMinEventsPerSec = 30'000.0;
#endif

// Peak resident set size in MiB (ru_maxrss is KiB on Linux).
double PeakRssMb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct ScaleRun {
  faasload::RunArtifacts artifacts;
  double run_wall_s = 0.0;
};

// bench/scale_stress's scale-trace scenario at 1/20th scale: a 32-tenant,
// 10-minute trace on the full OFC stack.
workloads::ScaleTrace MakeTrace(std::uint64_t seed) {
  workloads::ScaleTraceOptions trace_options;
  trace_options.seed = seed;
  trace_options.num_tenants = 32;
  trace_options.duration_s = 600.0;
  trace_options.target_invocations = kTargetInvocations;
  return workloads::GenerateScaleTrace(trace_options);
}

ScaleRun RunScaleScenario(std::uint64_t seed) {
  faasload::EnvironmentOptions options;
  options.seed = seed;
  auto run = faasload::MakeScaleTraceRun(faasload::Mode::kOfc, options, MakeTrace(seed));
  EXPECT_TRUE(run.ok());

  const auto start = std::chrono::steady_clock::now();  // simlint: allow(wall-clock) -- throughput assertion
  EXPECT_TRUE((*run)->Run(Minutes(10)).ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;  // simlint: allow(wall-clock) -- throughput assertion
  return ScaleRun{(*run)->artifacts(), std::chrono::duration<double>(elapsed).count()};
}

TEST(ScaleTest, FiftyThousandInvocationsCompleteExactlyOnceWithinBudgets) {
  const ScaleRun run = RunScaleScenario(/*seed=*/42);
  const faasload::RunArtifacts& artifacts = run.artifacts;

  // Exactly-once: every fired invocation completed, none twice. The generator
  // targets 50k in expectation, so the realized count must land near it.
  EXPECT_EQ(artifacts.invocations_fired, artifacts.invocations_completed);
  EXPECT_GT(artifacts.invocations_fired, kTargetInvocations / 2);
  EXPECT_LT(artifacts.invocations_fired, kTargetInvocations * 2);

  // Throughput floor (kMinEventsPerSec): only a pathological hot-path
  // regression trips it.
  ASSERT_GT(run.run_wall_s, 0.0);
  const double events_per_sec =
      static_cast<double>(artifacts.events_dispatched) / run.run_wall_s;
  EXPECT_GE(events_per_sec, kMinEventsPerSec)
      << "simulator throughput regressed: " << events_per_sec << " events/s over "
      << artifacts.events_dispatched << " events in " << run.run_wall_s << "s";

  // Memory bound: records are kept as counters only, so what grows with the
  // run is the RSDS's one fixed-size record per stored object (about 0.2 KiB
  // each). This ceiling is a blow-up guard that also holds under sanitizers;
  // perf-smoke's tighter bound (bench/scale_floor.json) catches a per-object
  // regression in the optimized bench.
  EXPECT_LT(PeakRssMb(), 2048.0);
}

TEST(ScaleTest, SameSeedRunsProduceByteIdenticalMetrics) {
  const faasload::RunArtifacts first = RunScaleScenario(/*seed=*/7).artifacts;
  const faasload::RunArtifacts second = RunScaleScenario(/*seed=*/7).artifacts;

  EXPECT_EQ(first.invocations_fired, second.invocations_fired);
  EXPECT_EQ(first.invocations_completed, second.invocations_completed);
  EXPECT_EQ(first.events_dispatched, second.events_dispatched);
  EXPECT_EQ(first.final_time, second.final_time);
  ASSERT_EQ(first.metrics_json.size(), second.metrics_json.size());
  EXPECT_TRUE(first.metrics_json == second.metrics_json)
      << "same-seed metrics snapshots diverged";
}

TEST(ScaleTest, IntegrityHoldsThroughBitFlipStormAtScale) {
  // ISSUE 9 acceptance at scale: a rolling bit-flip storm (replica, segment,
  // and store rot every 20 s) rides the 50k-invocation trace with the
  // background scrubber on. I6 must hold — no corrupt payload is ever acked —
  // and after a scrub-long drain every surviving copy verifies.
  const int num_nodes = faasload::kScaleTraceWorkers;
  fault::FaultPlan plan;
  for (int i = 0; i < 24; ++i) {
    const SimTime at = Seconds(60 + i * 20);
    switch (i % 3) {
      case 0:
        plan.events.push_back(
            fault::FaultEvent{at, fault::FaultKind::kCorruptSegment, i % num_nodes, 0, 4.0});
        break;
      case 1:
        plan.events.push_back(fault::FaultEvent{
            at, fault::FaultKind::kCorruptReplica, (i + 3) % num_nodes, 0, 4.0});
        break;
      default:
        plan.events.push_back(
            fault::FaultEvent{at, fault::FaultKind::kStoreRot, -1, 0, 6.0});
        break;
    }
  }
  plan.Sort();
  faasload::EnvironmentOptions options;
  options.seed = 97;
  options.faults = plan;
  options.scrub = core::ScrubberOptions{
      .interval = Seconds(5),
      .objects_per_cycle = 4096,  // The store accumulates ~50k outputs.
      .quarantine_threshold = 0,  // Keep all 8 nodes for the trace.
  };
  auto made = faasload::MakeScaleTraceRun(faasload::Mode::kOfc, options, MakeTrace(97));
  ASSERT_TRUE(made.ok());
  faasload::Runner& run = **made;
  // Post-trace drain: enough full scrub passes to cover every store object
  // even if the last rot landed just before the trace ended.
  ASSERT_TRUE(run.Run(Minutes(10), /*drain=*/Minutes(5)).ok());
  faasload::Environment& env = run.env();

  EXPECT_EQ(run.artifacts().invocations_fired, run.artifacts().invocations_completed);
  EXPECT_GT(run.artifacts().invocations_fired, kTargetInvocations / 2);
  EXPECT_GT(env.metrics().CounterTotal("ofc.fault.objects_corrupted"), 0u);
  // I6 proper: the tripwire never moved.
  EXPECT_EQ(env.metrics().CounterTotal("ofc.integrity.corrupt_acked"), 0u);
  // Detection and repair kept up with the storm.
  EXPECT_GT(env.metrics().CounterTotal("ofc.scrub.corruptions_found") +
                env.metrics().CounterTotal("ofc.integrity.checksum_failures") +
                env.metrics().CounterTotal("ofc.integrity.store_checksum_failures"),
            0u);
  // End-state sweep: every surviving cache copy and store object verifies.
  rc::Cluster* cluster = env.cluster();
  for (int node = 0; node < cluster->num_nodes(); ++node) {
    for (const rc::CachedObject& obj : cluster->ObjectsOn(node)) {
      const Checksum expected = ExpectedChecksum(obj.key, obj.size, obj.version);
      EXPECT_EQ(obj.checksum, expected) << "corrupt master copy survived: " << obj.key;
      for (const rc::Replica& backup : obj.backups) {
        EXPECT_EQ(backup.checksum, expected) << "corrupt backup copy survived: " << obj.key;
      }
    }
  }
  int corrupt_store_objects = 0;
  for (const std::string& key : env.rsds().Keys()) {
    const auto meta = env.rsds().Stat(key);
    if (meta.ok() &&
        meta->checksum != ExpectedChecksum(key, meta->size, meta->rsds_version)) {
      ++corrupt_store_objects;
    }
  }
  EXPECT_EQ(corrupt_store_objects, 0);
}

TEST(ScaleTest, DifferentSeedsProduceDifferentSchedules) {
  // Guards against the generator ignoring its seed (which would make the
  // byte-identical assertion above vacuous).
  workloads::ScaleTraceOptions options;
  options.num_tenants = 8;
  options.target_invocations = 1000;
  options.seed = 1;
  const workloads::ScaleTrace a = workloads::GenerateScaleTrace(options);
  options.seed = 2;
  const workloads::ScaleTrace b = workloads::GenerateScaleTrace(options);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  bool any_different = false;
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    if (a.tenants[i].mean_interval_s != b.tenants[i].mean_interval_s) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace ofc
