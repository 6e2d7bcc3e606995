// Chaos tests: randomized-but-deterministic fault schedules against the full
// platform, audited by the six invariants in chaos_harness.h. Every scenario
// is replayable — same seed and plan must give a byte-identical fingerprint.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/fault/fault_plan.h"
#include "tests/chaos_harness.h"

namespace ofc {
namespace {

using chaos::ChaosReport;
using chaos::ChaosScenarioOptions;
using chaos::RunChaosScenario;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;

void ExpectClean(const ChaosReport& report) {
  EXPECT_TRUE(report.ok()) << report.ViolationSummary();
  EXPECT_GT(report.completed, 0);
}

TEST(ChaosTest, FaultFreeBaselineIsClean) {
  ChaosScenarioOptions options;
  options.env.seed = 101;
  const ChaosReport report = RunChaosScenario(options);
  ExpectClean(report);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.counter("ofc.fault.injected"), 0u);
}

// The ISSUE acceptance scenario: a RAMCloud master crashes in the middle of
// the workload (while the CacheAgent is actively scaling node pools), the
// object store browns out 4x, and one persistor window is dropped. All four
// invariants must hold, deterministically across two replays of the same seed.
ChaosScenarioOptions AcceptanceScenario(std::uint64_t seed) {
  ChaosScenarioOptions options;
  options.env.seed = seed;
  options.num_invocations = 40;
  options.mean_interval_s = 4.0;
  options.env.faults->events = {
      FaultEvent{Seconds(45), FaultKind::kStoreBrownout, -1, Seconds(60), 4.0},
      FaultEvent{Seconds(60), FaultKind::kNodeCrash, 1, Seconds(30)},
      FaultEvent{Seconds(70), FaultKind::kPersistorDrop, -1, Seconds(20)},
  };
  options.env.faults->Sort();
  return options;
}

TEST(ChaosTest, AcceptanceMasterCrashBrownoutPersistorDrop) {
  const ChaosReport report = RunChaosScenario(AcceptanceScenario(7));
  ExpectClean(report);
  EXPECT_EQ(report.counter("ofc.fault.injected"), 3u);
  EXPECT_EQ(report.counter("ofc.fault.healed"), 3u);
  EXPECT_EQ(report.counter("ofc.ramcloud.node_crashes"), 1u);
  EXPECT_EQ(report.counter("ofc.ramcloud.node_restarts"), 1u);
}

TEST(ChaosTest, AcceptanceScenarioReplaysByteIdentical) {
  const ChaosReport first = RunChaosScenario(AcceptanceScenario(7));
  const ChaosReport second = RunChaosScenario(AcceptanceScenario(7));
  ExpectClean(first);
  EXPECT_EQ(first.Fingerprint(), second.Fingerprint());
}

TEST(ChaosTest, MachineCrashUnderStoreOutageRecovers) {
  // The hardest compound fault: a worker and its storage node die together
  // while the RSDS is down, so in-flight work re-dispatches into a degraded
  // data path and recovery runs with one fewer node.
  ChaosScenarioOptions options;
  options.env.seed = 23;
  options.num_invocations = 30;
  options.env.faults->events = {
      FaultEvent{Seconds(40), FaultKind::kStoreOutage, -1, Seconds(25)},
      FaultEvent{Seconds(50), FaultKind::kMachineCrash, 0, Seconds(40)},
  };
  options.env.faults->Sort();
  const ChaosReport report = RunChaosScenario(options);
  ExpectClean(report);
  EXPECT_EQ(report.counter("ofc.platform.worker_crashes"), 1u);
  EXPECT_EQ(report.counter("ofc.platform.worker_restores"), 1u);
  EXPECT_GT(report.counter("ofc.store.unavailable_errors"), 0u);
}

TEST(ChaosTest, StoreOutageDuringWritesFallsBackTransparently) {
  // A long outage squarely over the busiest arrival window: acknowledged
  // writes must survive via the cache-backed fallback + degraded persistor.
  ChaosScenarioOptions options;
  options.env.seed = 31;
  options.num_invocations = 40;
  options.mean_interval_s = 3.0;
  options.env.faults->events = {
      FaultEvent{Seconds(30), FaultKind::kStoreOutage, -1, Seconds(45)},
  };
  const ChaosReport report = RunChaosScenario(options);
  ExpectClean(report);
  EXPECT_GT(report.counter("ofc.store.unavailable_errors"), 0u);
  // The degradation path saw traffic: retries, fallbacks, or both.
  EXPECT_GT(report.counter("ofc.proxy.rsds_retries") +
                report.counter("ofc.proxy.fallback_writes"),
            0u);
}

TEST(ChaosTest, PersistorDropDelaysButNeverLosesWrites) {
  ChaosScenarioOptions options;
  options.env.seed = 47;
  options.num_invocations = 35;
  options.mean_interval_s = 3.0;
  options.env.faults->events = {
      FaultEvent{Seconds(20), FaultKind::kPersistorDrop, -1, Seconds(90)},
  };
  const ChaosReport report = RunChaosScenario(options);
  ExpectClean(report);
  EXPECT_GT(report.counter("ofc.proxy.persistor_drops"), 0u);
  EXPECT_GT(report.counter("ofc.proxy.persistor_retries"), 0u);
  EXPECT_EQ(report.counter("ofc.proxy.persistor_abandons"), 0u);
}

TEST(ChaosTest, OverlappingNodeCrashesReestablishReplication) {
  // Two staggered node crashes (never all nodes at once): recovery promotes
  // backups twice and the restarts must restore the replication factor.
  ChaosScenarioOptions options;
  options.env.seed = 53;
  options.num_invocations = 30;
  options.env.faults->events = {
      FaultEvent{Seconds(40), FaultKind::kNodeCrash, 0, Seconds(30)},
      FaultEvent{Seconds(55), FaultKind::kNodeCrash, 2, Seconds(30)},
  };
  const ChaosReport report = RunChaosScenario(options);
  ExpectClean(report);
  EXPECT_EQ(report.counter("ofc.ramcloud.node_crashes"), 2u);
  EXPECT_EQ(report.counter("ofc.ramcloud.node_restarts"), 2u);
}

// ---- Overload & graceful degradation ------------------------------------------

// A 2x-sustainable burst lands while the store is browned out and the cache
// path then degrades: bounded admission must shed the overflow explicitly and
// the breaker must route survivors around the sick cache.
ChaosScenarioOptions OverloadScenario(std::uint64_t seed) {
  ChaosScenarioOptions options;
  options.env.seed = seed;
  options.env.platform.num_workers = 2;
  options.num_invocations = 15;
  options.mean_interval_s = 6.0;
  options.env.platform.max_queue_depth = 6;
  options.env.platform.queue_deadline = Seconds(2);
  options.env.ofc.proxy.breaker_failure_threshold = 3;
  options.env.ofc.proxy.breaker_open_duration = Seconds(10);
  options.env.ofc.proxy.breaker_half_open_probes = 2;
  options.burst_count = 40;
  options.burst_at = Seconds(60);
  options.env.faults->events = {
      FaultEvent{Seconds(30), FaultKind::kStoreBrownout, -1, Seconds(60), 4.0},
      FaultEvent{Seconds(45), FaultKind::kCacheDegraded, -1, Seconds(40)},
  };
  options.env.faults->Sort();
  return options;
}

TEST(ChaosTest, OverloadBurstShedsAndResolvesExactlyOnce) {
  const ChaosReport report = RunChaosScenario(OverloadScenario(13));
  ExpectClean(report);  // I3 + I5: every submission resolved exactly once.
  EXPECT_GT(report.shed, 0);       // The burst exceeded the queue bound.
  EXPECT_GT(report.succeeded, 0);  // ... but goodput survived.
  EXPECT_EQ(report.counter("ofc.overload.shed"),
            static_cast<std::uint64_t>(report.shed));
  EXPECT_GT(report.counter("ofc.breaker.opens"), 0u);
  EXPECT_GT(report.counter("ofc.breaker.bypassed_reads") +
                report.counter("ofc.breaker.bypassed_writes"),
            0u);
}

TEST(ChaosTest, OverloadScenarioReplaysByteIdentical) {
  const ChaosReport first = RunChaosScenario(OverloadScenario(13));
  const ChaosReport second = RunChaosScenario(OverloadScenario(13));
  ExpectClean(first);
  EXPECT_EQ(first.Fingerprint(), second.Fingerprint());
}

// The overload scenario with the full observability stack on: windowed
// telemetry scrapes, burn-rate SLOs, and the flight recorder. The timeline
// must localize the fault (shed/breaker activity brackets the injected
// brownout + burst interval instead of smearing over the run), the shed-rate
// SLO must fire a multi-window burn-rate alert, and the flight ring must hold
// the causal story.
ChaosScenarioOptions ObservedOverloadScenario(std::uint64_t seed) {
  ChaosScenarioOptions options = OverloadScenario(seed);
  options.env.flight_capacity = 4096;
  options.env.scrape_interval = Seconds(10);
  std::string error;
  EXPECT_TRUE(obs::ParseSloSpecs(
      "warm=lat:ofc.platform.total_ms:p95:400:fast=30:slow=120:fastburn=3:slowburn=1.5;"
      "shed=rate:ofc.overload.shed/ofc.platform.invocations:0.01"
      ":fast=30:slow=120:fastburn=3:slowburn=1.5",
      &options.env.slos, &error))
      << error;
  return options;
}

TEST(ChaosTest, TimelineBracketsFaultWindowAndSloAlertFires) {
  const ChaosReport report = RunChaosScenario(ObservedOverloadScenario(13));
  ExpectClean(report);
  ASSERT_GT(report.shed, 0);
  ASSERT_GT(report.counter("ofc.breaker.opens"), 0u);

  // Shed activity is burst-driven (burst at t=60s, queue deadline 2s): the
  // windows that saw nonzero shed deltas must bracket it tightly, not cover
  // the whole run.
  EXPECT_GE(report.shed_first_window_start, Seconds(40));
  EXPECT_LE(report.shed_last_window_end, Seconds(120));
  // Breaker opens are driven by the degraded-cache window (45s..85s; the
  // breaker can re-open until the probe after heal succeeds).
  EXPECT_GE(report.breaker_first_window_start, Seconds(30));
  EXPECT_LE(report.breaker_last_window_end, Seconds(120));

  // The shed-rate SLO fired a multi-window burn-rate alert and it shows up in
  // the health artifact.
  EXPECT_GE(report.slo_alerts_fired, 1u);
  EXPECT_GT(report.worst_burn, 1.5);
  EXPECT_NE(report.artifacts.health_json.find("\"slo\": \"shed\""), std::string::npos);

  // The flight ring carries the causal story: lifecycle, overload, breaker,
  // and fault-window records all present.
  for (const char* kind : {"\"kind\": \"submit\"", "\"kind\": \"complete\"",
                           "\"kind\": \"shed\"", "\"kind\": \"breaker_open\"",
                           "\"kind\": \"fault_inject\"", "\"kind\": \"fault_heal\""}) {
    EXPECT_NE(report.artifacts.flight_json.find(kind), std::string::npos) << kind;
  }
}

TEST(ChaosTest, ObservedOverloadReplaysAllArtifactsByteIdentical) {
  // Fingerprint() covers metrics, timeline, health, and flight JSON — this is
  // the artifact-level determinism acceptance for the observability stack.
  const ChaosReport first = RunChaosScenario(ObservedOverloadScenario(13));
  const ChaosReport second = RunChaosScenario(ObservedOverloadScenario(13));
  ExpectClean(first);
  EXPECT_FALSE(first.artifacts.timeline_json.empty());
  EXPECT_FALSE(first.artifacts.health_json.empty());
  EXPECT_FALSE(first.artifacts.flight_json.empty());
  EXPECT_EQ(first.Fingerprint(), second.Fingerprint());
}

TEST(ChaosTest, ViolationDumpsFlightRingForPostMortem) {
  // A plan that addresses a node the cluster does not have is the cheapest
  // deterministic "breach": the harness must still honor dump_on_violation.
  ChaosScenarioOptions options;
  options.env.seed = 5;
  options.env.flight_capacity = 4096;
  options.dump_on_violation = ::testing::TempDir() + "/chaos_flight_dump.json";
  options.env.faults->events = {FaultEvent{Seconds(1), FaultKind::kNodeCrash, 99, Seconds(5)}};
  const ChaosReport report = RunChaosScenario(options);
  EXPECT_FALSE(report.ok());

  std::ifstream in(options.dump_on_violation);
  ASSERT_TRUE(in.good()) << "dump file missing: " << options.dump_on_violation;
  std::ostringstream dump;
  dump << in.rdbuf();
  EXPECT_NE(dump.str().find("\"reason\""), std::string::npos);
  EXPECT_NE(dump.str().find("fault plan rejected"), std::string::npos);
}

TEST(ChaosTest, BreakerOpenMatchesNoCacheBaseline) {
  // With the cache path sick from t=0 and the breaker latched open, the
  // extract+load data path must match a cache-disabled run of the same
  // workload within 5% — graceful degradation, not a new failure mode.
  ChaosScenarioOptions degraded;
  degraded.env.seed = 71;
  degraded.num_invocations = 25;
  degraded.mean_interval_s = 8.0;
  degraded.env.ofc.proxy.breaker_failure_threshold = 1;
  degraded.env.ofc.proxy.breaker_open_duration = Minutes(10);  // Never half-opens during the run.
  degraded.env.faults->events = {
      FaultEvent{0, FaultKind::kCacheDegraded, -1, Minutes(10)},
  };
  ChaosScenarioOptions baseline = degraded;
  baseline.env.ofc.proxy.max_cacheable_size = 0;  // Everything bypasses the cache.
  baseline.env.ofc.proxy.breaker_failure_threshold = 0;
  baseline.env.faults->events.clear();

  const ChaosReport a = RunChaosScenario(degraded);
  const ChaosReport b = RunChaosScenario(baseline);
  ExpectClean(a);
  ExpectClean(b);
  EXPECT_GT(a.counter("ofc.breaker.opens"), 0u);
  EXPECT_GT(a.counter("ofc.breaker.bypassed_reads"), 0u);
  ASSERT_GT(b.mean_el_ms, 0.0);
  EXPECT_NEAR(a.mean_el_ms, b.mean_el_ms, 0.05 * b.mean_el_ms);
}

// ---- Data integrity: corruption storms, scrubbing, self-healing ----------------

// The ISSUE 9 acceptance scenario: a bit-flip storm hits replicas, master
// segments, and the RSDS while the scrubber sweeps in the background. Every
// injected corruption must be detected and repaired by the end of the drain
// (the I6 end-state sweep), and no corrupt payload may ever reach a function.
ChaosScenarioOptions BitFlipStormScenario(std::uint64_t seed) {
  ChaosScenarioOptions options;
  options.env.seed = seed;
  options.num_invocations = 40;
  options.mean_interval_s = 4.0;
  // Repair-only; quarantine is tested below.
  options.env.scrub =
      core::ScrubberOptions{.interval = Seconds(5), .quarantine_threshold = 0};
  options.env.flight_capacity = 4096;
  options.env.faults->events = {
      FaultEvent{Seconds(30), FaultKind::kCorruptSegment, 0, 0, 3.0},
      FaultEvent{Seconds(50), FaultKind::kCorruptReplica, 1, 0, 3.0},
      FaultEvent{Seconds(80), FaultKind::kStoreRot, -1, 0, 4.0},
      FaultEvent{Seconds(110), FaultKind::kCorruptSegment, 2, 0, 2.0},
      FaultEvent{Seconds(140), FaultKind::kStoreRot, -1, 0, 2.0},
  };
  options.env.faults->Sort();
  return options;
}

TEST(ChaosTest, BitFlipStormIsDetectedAndRepaired) {
  const ChaosReport report = RunChaosScenario(BitFlipStormScenario(9));
  ExpectClean(report);  // Includes I6: tripwire at zero + end-state sweep clean.
  EXPECT_GT(report.counter("ofc.fault.objects_corrupted"), 0u);
  // Detection happened somewhere: a verifying read, the scrubber, or both.
  EXPECT_GT(report.counter("ofc.integrity.checksum_failures") +
                report.counter("ofc.scrub.corruptions_found") +
                report.counter("ofc.integrity.store_checksum_failures"),
            0u);
  // ... and so did repair (the sweep already proved it was complete).
  EXPECT_GT(report.counter("ofc.integrity.repairs") +
                report.counter("ofc.scrub.repairs") +
                report.counter("ofc.integrity.store_repairs"),
            0u);
  EXPECT_EQ(report.counter("ofc.integrity.corrupt_acked"), 0u);
  // The scrubber made full passes and the black box kept the causal story.
  EXPECT_GT(report.counter("ofc.scrub.cycles"), 0u);
  EXPECT_NE(report.artifacts.flight_json.find("\"kind\": \"corruption_detected\""),
            std::string::npos);
  EXPECT_NE(report.artifacts.flight_json.find("\"kind\": \"corruption_repaired\""),
            std::string::npos);
}

TEST(ChaosTest, BitFlipStormReplaysByteIdentical) {
  const ChaosReport first = RunChaosScenario(BitFlipStormScenario(9));
  const ChaosReport second = RunChaosScenario(BitFlipStormScenario(9));
  ExpectClean(first);
  EXPECT_EQ(first.Fingerprint(), second.Fingerprint());
}

TEST(ChaosTest, RepeatedCorruptionQuarantinesTheSickNode) {
  // Node 1 keeps rotting its copies; once the scrubber has found enough
  // corrupt copies there it must drain the node gracefully and re-establish
  // replication elsewhere (I4 then holds against the reduced pool).
  ChaosScenarioOptions options;
  options.env.seed = 11;
  options.num_invocations = 30;
  options.env.scrub =
      core::ScrubberOptions{.interval = Seconds(5), .quarantine_threshold = 2};
  options.env.flight_capacity = 4096;
  options.env.faults->events = {
      FaultEvent{Seconds(40), FaultKind::kCorruptSegment, 1, 0, 4.0},
      FaultEvent{Seconds(60), FaultKind::kCorruptReplica, 1, 0, 4.0},
      FaultEvent{Seconds(80), FaultKind::kCorruptSegment, 1, 0, 4.0},
      FaultEvent{Seconds(100), FaultKind::kCorruptReplica, 1, 0, 4.0},
  };
  options.env.faults->Sort();
  const ChaosReport report = RunChaosScenario(options);
  ExpectClean(report);
  EXPECT_GE(report.counter("ofc.scrub.quarantines"), 1u);
  EXPECT_GE(report.counter("ofc.ramcloud.nodes_quarantined"), 1u);
  EXPECT_NE(report.artifacts.flight_json.find("\"kind\": \"node_quarantined\""),
            std::string::npos);
}

TEST(ChaosTest, ScrubInterleavesWithCrashRecoveryCleanly) {
  // The scrub walk races the full lifecycle machinery: a master crashes right
  // after its segments rot (recovery must promote healthy copies or repair),
  // more corruption lands while the node is down, and the store rots during
  // the crash window. No double-repair, no assert, and a clean end state.
  ChaosScenarioOptions options;
  options.env.seed = 29;
  options.num_invocations = 30;
  options.env.scrub =
      core::ScrubberOptions{.interval = Seconds(5), .quarantine_threshold = 0};
  options.env.faults->events = {
      FaultEvent{Seconds(40), FaultKind::kCorruptSegment, 1, 0, 3.0},
      FaultEvent{Seconds(42), FaultKind::kNodeCrash, 1, Seconds(30)},
      FaultEvent{Seconds(50), FaultKind::kCorruptReplica, 0, 0, 3.0},
      FaultEvent{Seconds(55), FaultKind::kStoreRot, -1, 0, 3.0},
  };
  options.env.faults->Sort();
  const ChaosReport report = RunChaosScenario(options);
  ExpectClean(report);
  EXPECT_EQ(report.counter("ofc.ramcloud.node_crashes"), 1u);
  EXPECT_EQ(report.counter("ofc.ramcloud.node_restarts"), 1u);
}

TEST(ChaosTest, ScrubbedCrashRunReplaysByteIdentical) {
  auto scenario = [] {
    ChaosScenarioOptions options;
    options.env.seed = 29;
    options.num_invocations = 30;
    options.env.scrub = core::ScrubberOptions{.interval = Seconds(5)};
    options.env.flight_capacity = 4096;
    options.env.faults->events = {
        FaultEvent{Seconds(40), FaultKind::kCorruptSegment, 1, 0, 3.0},
        FaultEvent{Seconds(42), FaultKind::kNodeCrash, 1, Seconds(30)},
        FaultEvent{Seconds(55), FaultKind::kStoreRot, -1, 0, 3.0},
    };
    options.env.faults->Sort();
    return options;
  };
  const ChaosReport first = RunChaosScenario(scenario());
  const ChaosReport second = RunChaosScenario(scenario());
  ExpectClean(first);
  EXPECT_EQ(first.Fingerprint(), second.Fingerprint());
}

// Randomized schedules: the plan is drawn from the seed, so each seed is a
// distinct-but-reproducible chaos run. Invariants must hold for every seed.
class RandomChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

fault::ChaosPlanOptions RandomPlanOptions() {
  fault::ChaosPlanOptions plan_options;
  plan_options.num_workers = 3;
  plan_options.num_nodes = 3;
  plan_options.start = Seconds(20);
  plan_options.horizon = Minutes(3);
  plan_options.num_events = 5;
  plan_options.max_duration = Seconds(30);
  return plan_options;
}

TEST_P(RandomChaosTest, InvariantsHoldUnderRandomSchedule) {
  const std::uint64_t seed = GetParam();
  Rng plan_rng(seed * 1000003);
  ChaosScenarioOptions options;
  options.env.seed = seed;
  options.fault_horizon = Minutes(3);
  options.env.faults = fault::RandomFaultPlan(RandomPlanOptions(), &plan_rng);
  ASSERT_FALSE(options.env.faults->empty());
  const ChaosReport report = RunChaosScenario(options);
  ExpectClean(report);
  EXPECT_EQ(report.counter("ofc.fault.injected"),
            static_cast<std::uint64_t>(options.env.faults->size()));
}

TEST_P(RandomChaosTest, RandomScheduleReplaysByteIdentical) {
  const std::uint64_t seed = GetParam();
  ChaosReport reports[2];
  for (ChaosReport& report : reports) {
    Rng plan_rng(seed * 1000003);
    ChaosScenarioOptions options;
    options.env.seed = seed;
    options.fault_horizon = Minutes(3);
    options.num_invocations = 20;
    options.env.faults = fault::RandomFaultPlan(RandomPlanOptions(), &plan_rng);
    report = RunChaosScenario(options);
  }
  EXPECT_TRUE(reports[0].ok()) << reports[0].ViolationSummary();
  EXPECT_EQ(reports[0].Fingerprint(), reports[1].Fingerprint());
}

TEST_P(RandomChaosTest, CorruptionScheduleWithScrubberStaysClean) {
  // Random schedules drawn from the corruption-enabled pool, scrubber on:
  // whatever interleaving of crashes and bit flips the seed produces, the six
  // invariants (including the I6 end-state sweep) must hold.
  const std::uint64_t seed = GetParam();
  Rng plan_rng(seed * 2000003);
  fault::ChaosPlanOptions plan_options = RandomPlanOptions();
  plan_options.include_corruption_faults = true;
  ChaosScenarioOptions options;
  options.env.seed = seed;
  options.fault_horizon = Minutes(3);
  options.num_invocations = 20;
  options.env.scrub = core::ScrubberOptions{.interval = Seconds(5)};
  options.env.faults = fault::RandomFaultPlan(plan_options, &plan_rng);
  ASSERT_FALSE(options.env.faults->empty());
  const ChaosReport report = RunChaosScenario(options);
  ExpectClean(report);
  EXPECT_EQ(report.counter("ofc.integrity.corrupt_acked"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChaosTest, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace ofc
