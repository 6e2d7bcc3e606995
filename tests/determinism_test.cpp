// Determinism tests: a (seed, workload) pair must fully determine a run's
// observable output. Each scenario is executed through a fresh
// faasload::Runner and fingerprinted by its metrics JSON snapshot plus the
// event loop's final state; replays must be byte-identical —
// including with a perturbed unordered-container hash salt, which proves no
// bucket-iteration order leaks into observable state.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/common/sim_assert.h"
#include "src/faasload/runner.h"
#include "src/fault/fault_plan.h"
#include "tests/chaos_harness.h"

namespace ofc {
namespace {

using faasload::EnvironmentOptions;
using faasload::Mode;
using faasload::RunArtifacts;

// Everything observable about a run: its metrics JSON snapshot plus the event
// loop's final state.
void ExpectIdentical(const RunArtifacts& a, const RunArtifacts& b) {
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

EnvironmentOptions SmallEnv(std::uint64_t seed) {
  EnvironmentOptions options;
  options.platform.num_workers = 2;
  options.platform.worker_memory = GiB(8);
  options.seed = seed;
  return options;
}

// Runs the default mixed-tenant scenario for `sim_minutes` of simulated time
// and returns everything observable about the run.
RunArtifacts RunScenario(Mode mode, std::uint64_t seed, std::uint64_t hash_salt,
                         int sim_minutes = 5) {
  SetHashSalt(hash_salt);
  faasload::Runner run(mode, SmallEnv(seed), faasload::TenantProfile::kNormal, seed + 1);

  for (const char* function : {"wand_blur", "wand_sepia"}) {
    faasload::TenantSpec spec;
    spec.name = std::string("t-") + function;
    spec.function = function;
    spec.mean_interval_s = 10.0;
    spec.arrivals = faasload::ArrivalPattern::kExponential;
    EXPECT_TRUE(run.load().AddTenant(spec).ok());
  }
  run.load().PretrainModels(200);
  EXPECT_TRUE(run.Run(Minutes(sim_minutes)).ok());
  SetHashSalt(0);
  return run.artifacts();
}

// Same scenario as RunScenario, but with a fault plan replayed against the
// stack mid-run: crashes, an outage, and a persistor drop must not introduce
// any nondeterminism (the degradation paths use jitter-free backoff).
RunArtifacts RunFaultScenario(std::uint64_t seed, std::uint64_t hash_salt,
                              bool with_faults = true) {
  SetHashSalt(hash_salt);
  EnvironmentOptions options = SmallEnv(seed);
  // Parsed from JSON so the CLI ingestion path is part of the replayed bytes.
  const auto plan = fault::ParseFaultPlanJson(R"({"events": [
      {"at_ms": 40000, "kind": "store_brownout", "duration_ms": 30000, "severity": 4},
      {"at_ms": 60000, "kind": "node_crash", "target": 1, "duration_ms": 20000},
      {"at_ms": 75000, "kind": "worker_crash", "target": 0, "duration_ms": 10000},
      {"at_ms": 90000, "kind": "persistor_drop", "duration_ms": 15000},
      {"at_ms": 100000, "kind": "store_outage", "duration_ms": 8000}
  ]})");
  EXPECT_TRUE(plan.ok());
  options.faults = with_faults ? *plan : fault::FaultPlan{};
  faasload::Runner run(Mode::kOfc, options, faasload::TenantProfile::kNormal, seed + 1);
  faasload::TenantSpec spec;
  spec.name = "t-chaos";
  spec.function = "wand_sepia";
  spec.mean_interval_s = 5.0;
  spec.arrivals = faasload::ArrivalPattern::kExponential;
  EXPECT_TRUE(run.load().AddTenant(spec).ok());
  EXPECT_TRUE(run.Arm().ok());

  run.load().PretrainModels(200);
  EXPECT_TRUE(run.Run(Minutes(4)).ok());
  SetHashSalt(0);
  return run.artifacts();
}

TEST(DeterminismTest, FaultPlanReplaysAreByteIdentical) {
  const RunArtifacts first = RunFaultScenario(19, /*hash_salt=*/0);
  const RunArtifacts second = RunFaultScenario(19, /*hash_salt=*/0);
  ExpectIdentical(first, second);
}

TEST(DeterminismTest, FaultPlanWithPerturbedHashSaltIsIdentical) {
  const RunArtifacts baseline = RunFaultScenario(19, /*hash_salt=*/0);
  const RunArtifacts salted = RunFaultScenario(19, /*hash_salt=*/0x9e3779b97f4a7c15ull);
  ExpectIdentical(baseline, salted);
}

TEST(DeterminismTest, FaultPlanActuallyPerturbsTheRun) {
  // Guards against the fault path silently not firing: the faulted fingerprint
  // must differ from the fault-free one for the same seed.
  const RunArtifacts faulted = RunFaultScenario(19, 0);
  const RunArtifacts clean = RunFaultScenario(19, 0, /*with_faults=*/false);
  EXPECT_NE(faulted.metrics_json, clean.metrics_json);
}

TEST(DeterminismTest, SameSeedReplaysAreByteIdentical) {
  const RunArtifacts first = RunScenario(Mode::kOfc, 7, /*hash_salt=*/0);
  const RunArtifacts second = RunScenario(Mode::kOfc, 7, /*hash_salt=*/0);
  ExpectIdentical(first, second);
}

TEST(DeterminismTest, PerturbedHashSaltDoesNotChangeObservableState) {
  // If any code path iterates an unordered container into observable state,
  // changing the hash salt reorders the buckets and the fingerprints diverge.
  const RunArtifacts baseline = RunScenario(Mode::kOfc, 7, /*hash_salt=*/0);
  const RunArtifacts salted = RunScenario(Mode::kOfc, 7, /*hash_salt=*/0x9e3779b97f4a7c15ull);
  ExpectIdentical(baseline, salted);
}

TEST(DeterminismTest, BaselineModesAreAlsoDeterministic) {
  for (Mode mode : {Mode::kOwkSwift, Mode::kOwkRedis}) {
    SCOPED_TRACE(faasload::ModeName(mode));
    ExpectIdentical(RunScenario(mode, 11, 0, /*sim_minutes=*/2),
                    RunScenario(mode, 11, 0x1234u, /*sim_minutes=*/2));
  }
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity check that the fingerprint is sensitive at all — otherwise the
  // identical-replay assertions above would be vacuous.
  const RunArtifacts a = RunScenario(Mode::kOfc, 7, 0, /*sim_minutes=*/3);
  const RunArtifacts b = RunScenario(Mode::kOfc, 8, 0, /*sim_minutes=*/3);
  EXPECT_NE(a.metrics_json, b.metrics_json);
}

TEST(DeterminismTest, OverloadShedReplayIsByteIdentical) {
  // A burst over a queue-limited platform with a degraded cache sheds some
  // requests and trips the breaker; the shed/complete split and every metric
  // must replay byte-identically, including under a perturbed hash salt.
  const auto run = [](std::uint64_t hash_salt) {
    SetHashSalt(hash_salt);
    chaos::ChaosScenarioOptions options;
    options.env.seed = 29;
    options.num_invocations = 10;
    options.mean_interval_s = 6.0;
    options.env.platform.max_queue_depth = 4;
    options.env.platform.queue_deadline = Seconds(1);
    options.env.ofc.proxy.breaker_failure_threshold = 2;
    options.burst_count = 25;
    options.burst_at = Seconds(40);
    options.env.faults->events.push_back(
        {Seconds(35), fault::FaultKind::kCacheDegraded, -1, Seconds(30), 1.0});
    chaos::ChaosReport report = chaos::RunChaosScenario(options);
    SetHashSalt(0);
    return report;
  };
  const chaos::ChaosReport first = run(0);
  const chaos::ChaosReport second = run(0);
  const chaos::ChaosReport salted = run(0x9e3779b97f4a7c15ull);
  EXPECT_TRUE(first.ok()) << first.ViolationSummary();
  EXPECT_GT(first.shed, 0);  // The scenario actually exercises shedding.
  EXPECT_EQ(first.shed, second.shed);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.Fingerprint(), second.Fingerprint());
  EXPECT_EQ(first.Fingerprint(), salted.Fingerprint());
}

#ifdef OFC_SIM_ASSERTS
TEST(DeterminismDeathTest, SimAssertAbortsWithDiagnostics) {
  EXPECT_DEATH(SIM_ASSERT(1 == 2) << "custom context", "SIM_ASSERT failed: 1 == 2");
}
#endif

TEST(SimAssertTest, PassingAssertHasNoSideEffects) {
  int evaluations = 0;
  auto count = [&] {
    ++evaluations;
    return true;
  };
  SIM_ASSERT(count());
  SIM_DCHECK(count());
#ifdef OFC_SIM_ASSERTS
#ifndef NDEBUG
  EXPECT_EQ(evaluations, 2);
#else
  EXPECT_EQ(evaluations, 1);  // SIM_DCHECK compiled out in NDEBUG builds.
#endif
#else
  EXPECT_EQ(evaluations, 0);  // Both compiled out.
#endif
}

}  // namespace
}  // namespace ofc
