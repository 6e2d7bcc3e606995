// Cache policy subsystem tests (src/core/cache_policy.h, DESIGN.md §14):
// spec parsing, per-policy victim ordering and cold tests, engine accounting
// and per-function routing, same-seed byte-identical replays for every
// policy, default-vs-explicit-lru equivalence, and a crash+corruption chaos
// scenario under gdsf proving the I1–I6 invariants hold no matter which
// policy picks eviction victims.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/cache_policy.h"
#include "src/faasload/environment.h"
#include "src/faasload/injector.h"
#include "src/obs/metrics.h"
#include "tests/chaos_harness.h"

namespace ofc {
namespace {

using core::CachePolicyEngine;
using core::CachePolicyEngineOptions;
using core::CachePolicySpec;
using core::EvictionReason;
using core::KnownCachePolicies;
using core::ParseCachePolicySpec;

// ---- Spec parsing ----------------------------------------------------------------

TEST(CachePolicySpecTest, EmptySpecIsThePaperDefault) {
  const auto spec = ParseCachePolicySpec("");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->default_policy, "lru");
  EXPECT_TRUE(spec->per_function.empty());
}

TEST(CachePolicySpecTest, EveryKnownPolicyParsesAlone) {
  for (const std::string& name : KnownCachePolicies()) {
    const auto spec = ParseCachePolicySpec(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec->default_policy, name);
  }
  EXPECT_EQ(KnownCachePolicies().size(), 4u);
}

TEST(CachePolicySpecTest, PerFunctionOverrides) {
  const auto spec = ParseCachePolicySpec("gdsf,wand_blur=lru,map_reduce=cost-aware");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->default_policy, "gdsf");
  ASSERT_EQ(spec->per_function.size(), 2u);
  EXPECT_EQ(spec->per_function[0].first, "wand_blur");
  EXPECT_EQ(spec->per_function[0].second, "lru");
  EXPECT_EQ(spec->per_function[1].first, "map_reduce");
  EXPECT_EQ(spec->per_function[1].second, "cost-aware");
}

TEST(CachePolicySpecTest, RejectsUnknownNamesAndMalformedOverrides) {
  EXPECT_FALSE(ParseCachePolicySpec("mru").ok());
  EXPECT_FALSE(ParseCachePolicySpec("lru,wand_blur=arc").ok());
  EXPECT_FALSE(ParseCachePolicySpec("lru,wand_blur").ok());      // No '='.
  EXPECT_FALSE(ParseCachePolicySpec("lru,=gdsf").ok());          // Empty function.
  EXPECT_FALSE(ParseCachePolicySpec("lru,wand_blur=").ok());     // Empty policy.
  EXPECT_FALSE(ParseCachePolicySpec("wand_blur=lru").ok());      // Override first.
}

// ---- Engine construction ---------------------------------------------------------

std::unique_ptr<CachePolicyEngine> MakeEngine(const std::string& spec,
                                              obs::MetricsRegistry* metrics = nullptr,
                                              core::BenefitFn benefit = nullptr) {
  CachePolicyEngineOptions options;
  options.metrics = metrics;
  options.benefit = std::move(benefit);
  auto engine = CachePolicyEngine::Create(spec, std::move(options));
  EXPECT_TRUE(engine.ok()) << spec;
  return std::move(*engine);
}

TEST(CachePolicyEngineTest, CreateRejectsInvalidSpecs) {
  EXPECT_FALSE(CachePolicyEngine::Create("mru", {}).ok());
  EXPECT_FALSE(CachePolicyEngine::Create("lru,f=", {}).ok());
}

TEST(CachePolicyEngineTest, ReportsSpecAndMode) {
  const auto single = MakeEngine("gdsf");
  EXPECT_STREQ(single->default_policy_name(), "gdsf");
  EXPECT_TRUE(single->single_policy());
  const auto mixed = MakeEngine("gdsf,wand_blur=lru");
  EXPECT_FALSE(mixed->single_policy());
  EXPECT_EQ(mixed->spec(), "gdsf,wand_blur=lru");
}

// ---- Victim ordering & cold tests ------------------------------------------------

rc::CachedObject Obj(const std::string& key, Bytes size, std::uint32_t accesses,
                     SimTime last_access) {
  rc::CachedObject obj;
  obj.key = key;
  obj.size = size;
  obj.access_count = accesses;
  obj.last_access = last_access;
  return obj;
}

TEST(CachePolicyEngineTest, LruRanksByLastAccess) {
  const auto engine = MakeEngine("lru");
  std::vector<rc::CachedObject> candidates = {
      Obj("c", MiB(1), 50, Minutes(9)),
      Obj("a", MiB(1), 1, Minutes(1)),
      Obj("b", MiB(1), 99, Minutes(5)),
  };
  engine->RankEvictionCandidates(&candidates, Minutes(10));
  EXPECT_EQ(candidates[0].key, "a");  // Oldest access goes first...
  EXPECT_EQ(candidates[1].key, "b");
  EXPECT_EQ(candidates[2].key, "c");  // ...regardless of frequency or size.
}

TEST(CachePolicyEngineTest, LruSweepMatchesThePaperThresholds) {
  const auto engine = MakeEngine("lru");
  const SimTime now = Minutes(60);
  // Hot and recent: kept. Cold count: swept. Long idle: swept.
  EXPECT_FALSE(engine->SweepCold(Obj("hot", MiB(1), 9, now - Minutes(5)), now));
  EXPECT_TRUE(engine->SweepCold(Obj("rare", MiB(1), 4, now - Minutes(5)), now));
  EXPECT_TRUE(engine->SweepCold(Obj("idle", MiB(1), 9, now - Minutes(31)), now));
}

TEST(CachePolicyEngineTest, GdsfProtectsSmallHotObjects) {
  const auto engine = MakeEngine("gdsf");
  const SimTime now = Minutes(10);
  // Equal recency; gdsf must prefer evicting the big rarely-hit object over
  // the small hot one (higher freq * cost / size priority), where lru would
  // tie-break on input order.
  std::vector<rc::CachedObject> candidates = {
      Obj("small-hot", KiB(64), 40, Minutes(9)),
      Obj("big-cold", MiB(8), 2, Minutes(9)),
  };
  engine->RankEvictionCandidates(&candidates, now);
  EXPECT_EQ(candidates[0].key, "big-cold");
  EXPECT_EQ(candidates[1].key, "small-hot");
}

TEST(CachePolicyEngineTest, LfuDecayForgetsYesterdaysHotObject) {
  const auto engine = MakeEngine("lfu-decay");
  // 40 accesses, but 50 half-lives ago: the decayed frequency is ~0, so the
  // sweep treats it as cold even though the raw count clears the paper's bar.
  const rc::CachedObject stale = Obj("stale", MiB(1), 40, Minutes(60));
  EXPECT_TRUE(engine->SweepCold(stale, Minutes(560)));
  // The same object observed right after its burst is still hot.
  EXPECT_FALSE(engine->SweepCold(stale, Minutes(61)));
}

TEST(CachePolicyEngineTest, CostAwareDiscountsByBenefitConfidence) {
  // Two identical engines, one told the ml_service has zero confidence that
  // caching f-low's objects helps: its objects must rank evict-first against
  // an otherwise-equal object of a full-confidence function.
  obs::MetricsRegistry metrics;
  const auto engine = MakeEngine("cost-aware", &metrics,
                                 [](const std::string& function) {
                                   return function == "f-low" ? 0.0 : 1.0;
                                 });
  engine->OnAdmit("k-low", MiB(1), "f-low", Minutes(1));
  engine->OnAdmit("k-high", MiB(1), "f-high", Minutes(1));
  std::vector<rc::CachedObject> candidates = {
      Obj("k-high", MiB(1), 10, Minutes(9)),
      Obj("k-low", MiB(1), 10, Minutes(9)),
  };
  engine->RankEvictionCandidates(&candidates, Minutes(10));
  EXPECT_EQ(candidates[0].key, "k-low");
  EXPECT_EQ(candidates[1].key, "k-high");
}

// ---- Accounting & routing state --------------------------------------------------

TEST(CachePolicyEngineTest, NoteEvictionLabelsReasonCells) {
  obs::MetricsRegistry metrics;
  const auto engine = MakeEngine("lru", &metrics);
  engine->NoteEviction(Obj("a", MiB(2), 1, 0), EvictionReason::kCapacity, 0, Seconds(1));
  engine->NoteEviction(Obj("b", MiB(3), 1, 0), EvictionReason::kSweep, 1, Seconds(2));
  engine->NoteEviction(Obj("c", MiB(5), 1, 0), EvictionReason::kPersistedDiscard, 0,
                       Seconds(3));
  EXPECT_EQ(metrics.GetCounter("ofc.policy.evictions", "capacity")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("ofc.policy.evictions", "sweep")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("ofc.policy.evictions", "persisted_discard")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("ofc.policy.bytes_evicted", "capacity")->value(), MiB(2));
  EXPECT_EQ(metrics.GetCounter("ofc.policy.bytes_evicted", "sweep")->value(), MiB(3));
  EXPECT_EQ(metrics.GetGauge("ofc.policy.selected", "lru")->value(), 1.0);
}

TEST(CachePolicyEngineTest, MixedModeRoutesAndPrunesKeys) {
  obs::MetricsRegistry metrics;
  const auto engine = MakeEngine("gdsf,wand_blur=lru", &metrics);
  engine->OnAdmit("k1", MiB(1), "wand_blur", Seconds(1));
  engine->OnAdmit("k2", MiB(1), "wand_edge", Seconds(2));
  EXPECT_EQ(metrics.GetGauge("ofc.policy.tracked_keys")->value(), 2.0);
  engine->OnRemove("k1");
  EXPECT_EQ(metrics.GetGauge("ofc.policy.tracked_keys")->value(), 1.0);
  engine->Prune({});  // k2 is no longer live anywhere.
  EXPECT_EQ(metrics.GetGauge("ofc.policy.tracked_keys")->value(), 0.0);
}

// ---- Same-seed determinism per policy --------------------------------------------

// Small-worker scenario so capacity evictions and sweeps actually exercise
// the policy before the fingerprint is taken.
std::string RunScenario(const std::string& policy, std::uint64_t seed) {
  faasload::EnvironmentOptions options;
  options.platform.num_workers = 2;
  options.platform.worker_memory = GiB(6);
  options.ofc.cache_policy = policy;
  options.seed = seed;
  faasload::Environment env(faasload::Mode::kOfc, options);
  faasload::LoadInjector injector(&env, faasload::TenantProfile::kNormal, seed + 1);
  for (const char* function : {"wand_blur", "wand_sepia", "wand_edge"}) {
    faasload::TenantSpec spec;
    spec.name = std::string("t-") + function;
    spec.function = function;
    spec.mean_interval_s = 5.0;
    spec.dataset_objects = 6;
    EXPECT_TRUE(injector.AddTenant(spec).ok());
  }
  injector.PretrainModels(300);
  injector.Run(Minutes(4));
  return env.metrics().SnapshotJson(env.loop().now());
}

TEST(CachePolicyDeterminismTest, SameSeedReplaysByteIdenticalPerPolicy) {
  for (const std::string& policy : KnownCachePolicies()) {
    const std::string first = RunScenario(policy, 7);
    const std::string second = RunScenario(policy, 7);
    EXPECT_EQ(first, second) << policy;
  }
}

TEST(CachePolicyDeterminismTest, MixedSpecReplaysByteIdentical) {
  const std::string spec = "gdsf,wand_blur=lru,wand_edge=cost-aware";
  EXPECT_EQ(RunScenario(spec, 11), RunScenario(spec, 11));
}

TEST(CachePolicyDeterminismTest, ExplicitLruEqualsTheDefault) {
  // OfcOptions defaults to "lru"; spelling it out must change nothing — this
  // is the plumbing half of the golden tests' paper-faithfulness guarantee.
  faasload::EnvironmentOptions options;
  options.platform.num_workers = 2;
  options.platform.worker_memory = GiB(6);
  options.seed = 7;
  EXPECT_EQ(options.ofc.cache_policy, "lru");
  EXPECT_EQ(RunScenario("lru", 7), RunScenario(options.ofc.cache_policy, 7));
}

// ---- Chaos under a non-default policy --------------------------------------------

// Crash + corruption storm with gdsf picking victims: all six invariants
// (docs/invariants.md) must hold, and the run must replay byte-identically.
chaos::ChaosScenarioOptions GdsfChaosScenario(std::uint64_t seed) {
  chaos::ChaosScenarioOptions options;
  options.env.seed = seed;
  options.env.ofc.cache_policy = "gdsf";
  options.num_invocations = 40;
  options.mean_interval_s = 4.0;
  options.env.scrub =
      core::ScrubberOptions{.interval = Seconds(5), .quarantine_threshold = 0};
  options.env.flight_capacity = 4096;
  options.env.faults->events = {
      fault::FaultEvent{Seconds(25), fault::FaultKind::kNodeCrash, 1, Seconds(30)},
      fault::FaultEvent{Seconds(40), fault::FaultKind::kCorruptSegment, 0, 0, 3.0},
      fault::FaultEvent{Seconds(70), fault::FaultKind::kStoreRot, -1, 0, 3.0},
      fault::FaultEvent{Seconds(95), fault::FaultKind::kPersistorDrop, -1, Seconds(15)},
  };
  options.env.faults->Sort();
  return options;
}

TEST(CachePolicyChaosTest, InvariantsHoldUnderGdsf) {
  const chaos::ChaosReport report = chaos::RunChaosScenario(GdsfChaosScenario(13));
  EXPECT_TRUE(report.ok()) << report.ViolationSummary();
  EXPECT_EQ(report.scheduled, report.completed);
  EXPECT_EQ(report.counter("ofc.integrity.corrupt_acked"), 0u);
}

TEST(CachePolicyChaosTest, GdsfChaosReplaysByteIdentical) {
  const chaos::ChaosReport first = chaos::RunChaosScenario(GdsfChaosScenario(13));
  const chaos::ChaosReport second = chaos::RunChaosScenario(GdsfChaosScenario(13));
  EXPECT_EQ(first.Fingerprint(), second.Fingerprint());
}

}  // namespace
}  // namespace ofc
