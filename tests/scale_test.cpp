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
#include "src/faasload/environment.h"
#include "src/faasload/injector.h"
#include "src/fault/fault_injector.h"
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
  std::uint64_t fired = 0;
  std::uint64_t completed = 0;
  std::uint64_t dispatched = 0;
  SimTime final_time = 0;
  double run_wall_s = 0.0;
  std::string metrics_json;
};

// Mirrors bench/scale_stress's full-stack run at 1/20th scale: synthesized
// multi-tenant trace, full OFC stack, counters-only record retention.
ScaleRun RunScaleScenario(std::uint64_t seed) {
  workloads::ScaleTraceOptions trace_options;
  trace_options.seed = seed;
  trace_options.num_tenants = 32;
  trace_options.duration_s = 600.0;
  trace_options.target_invocations = kTargetInvocations;
  const workloads::ScaleTrace trace = workloads::GenerateScaleTrace(trace_options);

  faasload::EnvironmentOptions env_options;
  env_options.seed = seed;
  env_options.platform.num_workers = 8;
  env_options.platform.worker_memory = GiB(32);
  faasload::Environment env(faasload::Mode::kOfc, env_options);
  faasload::LoadInjector injector(&env, faasload::TenantProfile::kNormal, seed);
  injector.set_max_records_per_tenant(0);
  EXPECT_TRUE(injector.AddScaleTrace(trace).ok());
  injector.PretrainModels(40);

  const auto start = std::chrono::steady_clock::now();  // simlint: allow(wall-clock) -- throughput assertion
  injector.Run(static_cast<SimDuration>(trace_options.duration_s * 1e6));
  const auto elapsed = std::chrono::steady_clock::now() - start;  // simlint: allow(wall-clock) -- throughput assertion
  const double wall = std::chrono::duration<double>(elapsed).count();

  ScaleRun run;
  run.fired = injector.invocations_fired();
  run.completed = injector.invocations_completed();
  run.dispatched = env.loop().total_dispatched();
  run.final_time = env.loop().now();
  run.run_wall_s = wall;
  run.metrics_json = env.metrics().SnapshotJson(env.loop().now());
  return run;
}

TEST(ScaleTest, FiftyThousandInvocationsCompleteExactlyOnceWithinBudgets) {
  const ScaleRun run = RunScaleScenario(/*seed=*/42);

  // Exactly-once: every fired invocation completed, none twice. The generator
  // targets 50k in expectation, so the realized count must land near it.
  EXPECT_EQ(run.fired, run.completed);
  EXPECT_GT(run.fired, kTargetInvocations / 2);
  EXPECT_LT(run.fired, kTargetInvocations * 2);

  // Throughput floor (kMinEventsPerSec): only a pathological hot-path
  // regression trips it.
  ASSERT_GT(run.run_wall_s, 0.0);
  const double events_per_sec = static_cast<double>(run.dispatched) / run.run_wall_s;
  EXPECT_GE(events_per_sec, kMinEventsPerSec)
      << "simulator throughput regressed: " << events_per_sec << " events/s over "
      << run.dispatched << " events in " << run.run_wall_s << "s";

  // Memory bound: records are kept as counters only, so what grows with the
  // run is the RSDS's one fixed-size record per stored object (about 0.2 KiB
  // each). This ceiling is a blow-up guard that also holds under sanitizers;
  // perf-smoke's tighter bound (bench/scale_floor.json) catches a per-object
  // regression in the optimized bench.
  EXPECT_LT(PeakRssMb(), 2048.0);
}

TEST(ScaleTest, SameSeedRunsProduceByteIdenticalMetrics) {
  const ScaleRun first = RunScaleScenario(/*seed=*/7);
  const ScaleRun second = RunScaleScenario(/*seed=*/7);

  EXPECT_EQ(first.fired, second.fired);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.dispatched, second.dispatched);
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
  workloads::ScaleTraceOptions trace_options;
  trace_options.seed = 97;
  trace_options.num_tenants = 32;
  trace_options.duration_s = 600.0;
  trace_options.target_invocations = kTargetInvocations;
  const workloads::ScaleTrace trace = workloads::GenerateScaleTrace(trace_options);

  faasload::EnvironmentOptions env_options;
  env_options.seed = 97;
  env_options.platform.num_workers = 8;
  env_options.platform.worker_memory = GiB(32);
  faasload::Environment env(faasload::Mode::kOfc, env_options);
  faasload::LoadInjector injector(&env, faasload::TenantProfile::kNormal, 97);
  injector.set_max_records_per_tenant(0);
  ASSERT_TRUE(injector.AddScaleTrace(trace).ok());
  injector.PretrainModels(40);

  const int num_nodes = env.cluster()->num_nodes();
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
  fault::FaultInjector fault_injector(
      &env.loop(),
      fault::FaultInjectorTargets{&env.platform(), env.cluster(), &env.rsds(),
                                  &env.ofc()->proxy()},
      fault::FaultInjectorOptions{&env.metrics(), nullptr, nullptr});
  ASSERT_TRUE(fault_injector.Schedule(plan).ok());

  core::ScrubberOptions scrub_options;
  scrub_options.interval = Seconds(5);
  scrub_options.objects_per_cycle = 4096;  // The store accumulates ~50k outputs.
  scrub_options.quarantine_threshold = 0;  // Keep all 8 nodes for the trace.
  scrub_options.metrics = &env.metrics();
  core::Scrubber scrubber(&env.loop(), env.cluster(), &env.rsds(), scrub_options);
  scrubber.Start();

  injector.Run(static_cast<SimDuration>(trace_options.duration_s * 1e6));
  // Post-trace drain: enough full scrub passes to cover every store object
  // even if the last rot landed just before the trace ended.
  env.loop().RunUntil(env.loop().now() + Minutes(5));
  scrubber.Stop();

  EXPECT_EQ(injector.invocations_fired(), injector.invocations_completed());
  EXPECT_GT(injector.invocations_fired(), kTargetInvocations / 2);
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
    for (const std::string& key : cluster->KeysOn(node)) {
      const auto obj = cluster->Inspect(key);
      if (!obj.ok()) {
        continue;
      }
      const Checksum expected = ExpectedChecksum(key, obj->size, obj->version);
      EXPECT_EQ(obj->checksum, expected) << "corrupt master copy survived: " << key;
      for (const Checksum backup : obj->backup_checksums) {
        EXPECT_EQ(backup, expected) << "corrupt backup copy survived: " << key;
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
