// Unit tests for the fault subsystem: FaultPlan JSON parsing / validation /
// random generation, ObjectStore outage + brownout + webhook-drop hooks, the
// proxy's bounded-retry degradation path, and FaultInjector scheduling.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/checksum.h"
#include "src/core/proxy.h"
#include "src/faasload/environment.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/sim/latency.h"
#include "src/store/object_store.h"

namespace ofc::fault {
namespace {

// ---- FaultPlan: names, JSON, validation -------------------------------------------

TEST(FaultPlanTest, KindNamesRoundTrip) {
  for (FaultKind kind :
       {FaultKind::kWorkerCrash, FaultKind::kNodeCrash, FaultKind::kMachineCrash,
        FaultKind::kStoreOutage, FaultKind::kStoreBrownout, FaultKind::kPersistorDrop,
        FaultKind::kWebhookDrop, FaultKind::kCorruptReplica, FaultKind::kCorruptSegment,
        FaultKind::kStoreRot}) {
    const auto parsed = FaultKindFromName(FaultKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(FaultKindFromName("meteor_strike").ok());
}

TEST(FaultPlanTest, ParsesDocumentedSchema) {
  const std::string json = R"({"events": [
      {"at_ms": 60000, "kind": "node_crash", "target": 1, "duration_ms": 30000},
      {"at_ms": 45000, "kind": "store_brownout", "duration_ms": 20000, "severity": 4},
      {"at_ms": 70000, "kind": "persistor_drop", "duration_ms": 5000}
  ]})";
  const auto plan = ParseFaultPlanJson(json);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  ASSERT_EQ(plan->size(), 3u);
  // Parsing sorts by time.
  EXPECT_EQ(plan->events[0].kind, FaultKind::kStoreBrownout);
  EXPECT_EQ(plan->events[0].at, Seconds(45));
  EXPECT_EQ(plan->events[0].severity, 4.0);
  EXPECT_EQ(plan->events[1].kind, FaultKind::kNodeCrash);
  EXPECT_EQ(plan->events[1].target, 1);
  EXPECT_EQ(plan->events[1].duration, Seconds(30));
  EXPECT_EQ(plan->events[2].kind, FaultKind::kPersistorDrop);
}

TEST(FaultPlanTest, JsonRoundTripPreservesEvents) {
  FaultPlan plan;
  plan.events = {
      FaultEvent{Seconds(10), FaultKind::kWorkerCrash, 0, Seconds(5)},
      FaultEvent{Seconds(20), FaultKind::kStoreBrownout, -1, Seconds(15), 8.0},
      FaultEvent{Seconds(30), FaultKind::kWebhookDrop, -1, Seconds(5)},
  };
  const auto reparsed = ParseFaultPlanJson(FaultPlanToJson(plan));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(reparsed->events, plan.events);
}

TEST(FaultPlanTest, RejectsMalformedJson) {
  for (const char* bad : {
           "",                                               // Empty.
           "[]",                                             // Not an object.
           R"({"plan": []})",                                // Wrong key.
           R"({"events": [{"kind": "node_crash"}]})",        // Missing at_ms.
           R"({"events": [{"at_ms": 1}]})",                  // Missing kind.
           R"({"events": [{"at_ms": 1, "kind": "nope"}]})",  // Unknown kind.
           R"({"events": [{"at_ms": 1, "kind": "node_crash", "bogus": 2}]})",
           R"({"events": []} trailing)",                     // Trailing content.
           R"({"events": [{"at_ms": x, "kind": "node_crash"}]})",
       }) {
    EXPECT_FALSE(ParseFaultPlanJson(bad).ok()) << bad;
  }
}

TEST(FaultPlanTest, ValidateChecksTargetsAndParameters) {
  auto one = [](FaultEvent event) {
    FaultPlan plan;
    plan.events = {event};
    return plan;
  };
  // Valid baseline.
  EXPECT_TRUE(one(FaultEvent{Seconds(1), FaultKind::kWorkerCrash, 1, Seconds(1)})
                  .Validate(2, 2)
                  .ok());
  // Out-of-range targets.
  EXPECT_FALSE(one(FaultEvent{Seconds(1), FaultKind::kWorkerCrash, 2, 0})
                   .Validate(2, 2)
                   .ok());
  EXPECT_FALSE(one(FaultEvent{Seconds(1), FaultKind::kNodeCrash, -1, 0})
                   .Validate(2, 2)
                   .ok());
  EXPECT_FALSE(one(FaultEvent{Seconds(1), FaultKind::kMachineCrash, 3, 0})
                   .Validate(4, 2)
                   .ok());
  // Negative time, weak brownout, duration-less drops.
  EXPECT_FALSE(one(FaultEvent{-1, FaultKind::kStoreOutage, -1, 0}).Validate(2, 2).ok());
  EXPECT_FALSE(one(FaultEvent{Seconds(1), FaultKind::kStoreBrownout, -1, 0, 0.5})
                   .Validate(2, 2)
                   .ok());
  EXPECT_FALSE(one(FaultEvent{Seconds(1), FaultKind::kPersistorDrop, -1, 0})
                   .Validate(2, 2)
                   .ok());
  EXPECT_FALSE(one(FaultEvent{Seconds(1), FaultKind::kWebhookDrop, -1, 0})
                   .Validate(2, 2)
                   .ok());
}

TEST(FaultPlanTest, SortOrdersByTimeKindTarget) {
  FaultPlan plan;
  plan.events = {
      FaultEvent{Seconds(2), FaultKind::kNodeCrash, 1, 0},
      FaultEvent{Seconds(1), FaultKind::kStoreOutage, -1, Seconds(1)},
      FaultEvent{Seconds(2), FaultKind::kNodeCrash, 0, 0},
      FaultEvent{Seconds(2), FaultKind::kWorkerCrash, 0, 0},
  };
  plan.Sort();
  EXPECT_EQ(plan.events[0].kind, FaultKind::kStoreOutage);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kWorkerCrash);
  EXPECT_EQ(plan.events[2].target, 0);
  EXPECT_EQ(plan.events[3].target, 1);
}

TEST(FaultPlanTest, RandomPlanIsDeterministicAndValid) {
  ChaosPlanOptions options;
  options.num_workers = 3;
  options.num_nodes = 3;
  Rng a(99);
  Rng b(99);
  const FaultPlan first = RandomFaultPlan(options, &a);
  const FaultPlan second = RandomFaultPlan(options, &b);
  ASSERT_EQ(first.size(), static_cast<std::size_t>(options.num_events));
  EXPECT_EQ(first.events, second.events);
  EXPECT_TRUE(first.Validate(options.num_workers, options.num_nodes).ok());
  for (const FaultEvent& event : first.events) {
    EXPECT_GE(event.at, options.start);
    EXPECT_LT(event.at, options.horizon);
    EXPECT_GE(event.duration, options.min_duration);
    EXPECT_LE(event.duration, options.max_duration);
  }
  Rng c(100);
  EXPECT_NE(RandomFaultPlan(options, &c).events, first.events);
}

TEST(FaultPlanTest, CorruptionEventsValidateTargetsSeverityAndInstantaneity) {
  auto one = [](FaultEvent event) {
    FaultPlan plan;
    plan.events = {event};
    return plan;
  };
  // Valid baselines: node-targeted cache corruption and untargeted store rot.
  EXPECT_TRUE(one(FaultEvent{Seconds(1), FaultKind::kCorruptReplica, 1, 0, 3.0})
                  .Validate(2, 2)
                  .ok());
  EXPECT_TRUE(one(FaultEvent{Seconds(1), FaultKind::kCorruptSegment, 0, 0, 1.0})
                  .Validate(2, 2)
                  .ok());
  EXPECT_TRUE(
      one(FaultEvent{Seconds(1), FaultKind::kStoreRot, -1, 0, 2.0}).Validate(2, 2).ok());
  // Out-of-range node targets.
  EXPECT_FALSE(one(FaultEvent{Seconds(1), FaultKind::kCorruptReplica, 2, 0, 1.0})
                   .Validate(2, 2)
                   .ok());
  EXPECT_FALSE(one(FaultEvent{Seconds(1), FaultKind::kCorruptSegment, -1, 0, 1.0})
                   .Validate(2, 2)
                   .ok());
  // Severity is a flip count: at least one.
  EXPECT_FALSE(one(FaultEvent{Seconds(1), FaultKind::kCorruptReplica, 0, 0, 0.0})
                   .Validate(2, 2)
                   .ok());
  EXPECT_FALSE(one(FaultEvent{Seconds(1), FaultKind::kStoreRot, -1, 0, -2.0})
                   .Validate(2, 2)
                   .ok());
  // Corruption is instantaneous: durations are rejected, not silently ignored.
  EXPECT_FALSE(one(FaultEvent{Seconds(1), FaultKind::kCorruptSegment, 0, Seconds(5), 1.0})
                   .Validate(2, 2)
                   .ok());
  EXPECT_FALSE(one(FaultEvent{Seconds(1), FaultKind::kStoreRot, -1, Seconds(1), 1.0})
                   .Validate(2, 2)
                   .ok());
}

TEST(FaultPlanTest, CorruptionEventsRoundTripThroughJson) {
  FaultPlan plan;
  plan.events = {
      FaultEvent{Seconds(10), FaultKind::kCorruptSegment, 0, 0, 3.0},
      FaultEvent{Seconds(20), FaultKind::kCorruptReplica, 1, 0, 1.0},
      FaultEvent{Seconds(30), FaultKind::kStoreRot, -1, 0, 4.0},
  };
  const auto reparsed = ParseFaultPlanJson(FaultPlanToJson(plan));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(reparsed->events, plan.events);  // Severity (flip count) survives.
}

TEST(FaultPlanTest, RandomPlanAddsCorruptionKindsOnlyWhenOptedIn) {
  ChaosPlanOptions options;
  options.num_workers = 3;
  options.num_nodes = 3;
  options.num_events = 40;
  auto has_corruption = [](const FaultPlan& plan) {
    for (const FaultEvent& event : plan.events) {
      if (event.kind == FaultKind::kCorruptReplica ||
          event.kind == FaultKind::kCorruptSegment ||
          event.kind == FaultKind::kStoreRot) {
        return true;
      }
    }
    return false;
  };
  Rng off(3);
  EXPECT_FALSE(has_corruption(RandomFaultPlan(options, &off)));

  options.include_corruption_faults = true;
  Rng on(3);
  const FaultPlan plan = RandomFaultPlan(options, &on);
  EXPECT_TRUE(has_corruption(plan));
  EXPECT_TRUE(plan.Validate(options.num_workers, options.num_nodes).ok());
}

// ---- ObjectStore fault hooks -------------------------------------------------------

class StoreFaultTest : public ::testing::Test {
 protected:
  StoreFaultTest()
      : rsds_(&loop_, sim::LatencyProfiles::SwiftRequest(), Rng(1), "swift",
              sim::LatencyProfiles::SwiftControl()) {}

  sim::EventLoop loop_;
  store::ObjectStore rsds_;
};

TEST_F(StoreFaultTest, OutageFailsEveryOperationWithUnavailable) {
  rsds_.Seed("obj", KiB(64), {});
  rsds_.SetAvailable(false);
  std::vector<StatusCode> codes;
  rsds_.Put("p", KiB(1), {}, [&](Status s) { codes.push_back(s.code()); });
  rsds_.Get("obj", [&](Result<store::ObjectMetadata> r) { codes.push_back(r.status().code()); });
  rsds_.Head("obj", [&](Result<store::ObjectMetadata> r) { codes.push_back(r.status().code()); });
  rsds_.PutShadow("obj", KiB(1),
                  [&](Result<store::ObjectMetadata> r) { codes.push_back(r.status().code()); });
  rsds_.FinalizePayload("obj", 1, KiB(1), PayloadFingerprint("obj", KiB(1)),
                        [&](Status s) { codes.push_back(s.code()); });
  rsds_.Delete("obj", [&](Status s) { codes.push_back(s.code()); });
  loop_.Run();
  ASSERT_EQ(codes.size(), 6u);
  for (StatusCode code : codes) {
    EXPECT_EQ(code, StatusCode::kUnavailable);
  }
  EXPECT_EQ(rsds_.metrics().CounterTotal("ofc.store.unavailable_errors"), 6u);
  EXPECT_TRUE(rsds_.Exists("obj"));  // Data survives the outage.

  rsds_.SetAvailable(true);
  bool ok = false;
  rsds_.Get("obj", [&](Result<store::ObjectMetadata> r) { ok = r.ok(); });
  loop_.Run();
  EXPECT_TRUE(ok);
}

TEST_F(StoreFaultTest, OutageErrorsArriveAfterControlLatencyNotInstantly) {
  rsds_.SetAvailable(false);
  const SimTime start = loop_.now();
  SimTime failed_at = 0;
  rsds_.Get("obj", [&](Result<store::ObjectMetadata>) { failed_at = loop_.now(); });
  loop_.Run();
  EXPECT_GT(failed_at, start);  // A fast error, but still a round-trip.
}

TEST_F(StoreFaultTest, BrownoutInflatesLatencyByFactor) {
  auto timed_get = [](double factor) {
    sim::EventLoop loop;
    store::ObjectStore rsds(&loop, sim::LatencyProfiles::SwiftRequest(), Rng(1), "swift",
                            sim::LatencyProfiles::SwiftControl());
    rsds.Seed("obj", MiB(1), {});
    rsds.SetLatencyFactor(factor);
    SimTime done_at = 0;
    rsds.Get("obj", [&](Result<store::ObjectMetadata>) { done_at = loop.now(); });
    loop.Run();
    return done_at;
  };
  const SimTime healthy = timed_get(1.0);
  const SimTime browned = timed_get(4.0);
  ASSERT_GT(healthy, 0);
  // Same store seed -> same base latency draw; the brownout scales it exactly.
  EXPECT_EQ(browned, healthy * 4);
}

TEST_F(StoreFaultTest, LatencyFactorClampsBelowOne) {
  rsds_.SetLatencyFactor(0.25);
  EXPECT_EQ(rsds_.latency_factor(), 1.0);
}

TEST_F(StoreFaultTest, WebhookDropBypassesInterposition) {
  rsds_.Seed("obj", KiB(64), {});
  int hook_calls = 0;
  rsds_.set_read_webhook([&](const std::string&, store::ObjectStore::Resume resume) {
    ++hook_calls;
    resume();
  });
  bool ok = false;
  rsds_.ExternalRead("obj", [&](Result<store::ObjectMetadata> r) { ok = r.ok(); });
  loop_.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(hook_calls, 1);

  rsds_.SetWebhooksEnabled(false);
  ok = false;
  rsds_.ExternalRead("obj", [&](Result<store::ObjectMetadata> r) { ok = r.ok(); });
  loop_.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(hook_calls, 1);  // Bypassed.
  EXPECT_EQ(rsds_.metrics().CounterTotal("ofc.store.webhook_bypasses"), 1u);

  rsds_.SetWebhooksEnabled(true);
  rsds_.ExternalRead("obj", [&](Result<store::ObjectMetadata>) {});
  loop_.Run();
  EXPECT_EQ(hook_calls, 2);
}

TEST_F(StoreFaultTest, PutIfVersionIsCompareAndSwap) {
  bool created = false;
  rsds_.PutIfVersion("obj", 0, KiB(1), {}, PayloadFingerprint("obj", KiB(1)),
                     [&](Status s) { created = s.ok(); });
  loop_.Run();
  EXPECT_TRUE(created);
  const auto meta = rsds_.Stat("obj");
  ASSERT_TRUE(meta.ok());
  EXPECT_FALSE(meta->IsShadow());

  // Stale expectation: the object advanced past "absent".
  Status stale = OkStatus();
  rsds_.PutIfVersion("obj", 0, KiB(2), {}, PayloadFingerprint("obj", KiB(2)),
                     [&](Status s) { stale = s; });
  loop_.Run();
  EXPECT_EQ(stale.code(), StatusCode::kAborted);
  EXPECT_EQ(rsds_.Stat("obj")->size, KiB(1));  // Untouched.

  // Matching expectation swaps in the new payload.
  Status swapped = InternalError("unset");
  rsds_.PutIfVersion("obj", meta->latest_version, KiB(2), {}, PayloadFingerprint("obj", KiB(2)),
                     [&](Status s) { swapped = s; });
  loop_.Run();
  EXPECT_TRUE(swapped.ok());
  EXPECT_EQ(rsds_.Stat("obj")->size, KiB(2));

  // The check runs when the write *lands*: a shadow write issued later but
  // completing first (control vs payload latency) must defeat the swap.
  const store::ObjectVersion current = rsds_.Stat("obj")->latest_version;
  Status raced = OkStatus();
  rsds_.PutIfVersion("obj", current, KiB(4), {}, PayloadFingerprint("obj", KiB(4)),
                     [&](Status s) { raced = s; });
  rsds_.PutShadow("obj", KiB(8), [](Result<store::ObjectMetadata>) {});
  loop_.Run();
  EXPECT_EQ(raced.code(), StatusCode::kAborted);
  EXPECT_EQ(rsds_.Stat("obj")->size, KiB(2));
}

// ---- Proxy degradation path --------------------------------------------------------

class ProxyFaultTest : public ::testing::Test {
 protected:
  ProxyFaultTest()
      : rsds_(&loop_, sim::LatencyProfiles::SwiftRequest(), Rng(1), "swift",
              sim::LatencyProfiles::SwiftControl()),
        cluster_(&loop_, 2, MakeClusterOptions(), Rng(2)),
        proxy_(&loop_, &cluster_, &rsds_, MakeProxyOptions()) {}

  static rc::ClusterOptions MakeClusterOptions() {
    rc::ClusterOptions options;
    options.default_capacity = GiB(1);
    options.replication_factor = 1;
    return options;
  }

  static core::ProxyOptions MakeProxyOptions() {
    core::ProxyOptions options;
    options.rsds_deadline = Seconds(5);
    options.rsds_max_retries = 4;
    options.persistor_max_retries = 6;
    return options;
  }

  faas::InvocationContext Ctx(bool should_cache = true) {
    faas::InvocationContext ctx;
    ctx.worker = 0;
    ctx.function = "f";
    ctx.should_cache = should_cache;
    return ctx;
  }

  workloads::MediaDescriptor Media(Bytes size) {
    workloads::MediaDescriptor media;
    media.kind = workloads::InputKind::kImage;
    media.byte_size = size;
    return media;
  }

  sim::EventLoop loop_;
  store::ObjectStore rsds_;
  rc::Cluster cluster_;
  core::Proxy proxy_;
};

TEST_F(ProxyFaultTest, ReadRetriesThroughShortOutage) {
  rsds_.Seed("obj", KiB(64), {});
  rsds_.SetAvailable(false);
  loop_.ScheduleAfter(Millis(120), [this] { rsds_.SetAvailable(true); });
  Result<Bytes> out = InternalError("unset");
  proxy_.Read(Ctx(), "obj", [&](Result<Bytes> r) { out = std::move(r); });
  loop_.Run();
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_EQ(*out, KiB(64));
  EXPECT_GT(proxy_.metrics().CounterValue("ofc.proxy.rsds_retries"), 0u);
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.read_deadlines"), 0u);
}

TEST_F(ProxyFaultTest, ReadFailsDeadlineWhenOutagePersists) {
  rsds_.Seed("obj", KiB(64), {});
  rsds_.SetAvailable(false);
  Result<Bytes> out = InternalError("unset");
  proxy_.Read(Ctx(), "obj", [&](Result<Bytes> r) { out = std::move(r); });
  loop_.Run();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.read_deadlines"), 1u);
  // Full retry budget spent.
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.rsds_retries"), 4u);
}

TEST_F(ProxyFaultTest, CacheHitServesReadsDuringOutage) {
  rsds_.Seed("obj", KiB(64), {});
  Result<Bytes> warm = InternalError("unset");
  proxy_.Read(Ctx(), "obj", [&](Result<Bytes> r) { warm = std::move(r); });
  loop_.Run();
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(cluster_.Contains("obj"));

  rsds_.SetAvailable(false);
  Result<Bytes> hit = InternalError("unset");
  proxy_.Read(Ctx(), "obj", [&](Result<Bytes> r) { hit = std::move(r); });
  loop_.Run();
  ASSERT_TRUE(hit.ok());  // The cache masks the outage entirely.
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.cache_hits"), 1u);
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.rsds_retries"), 0u);
}

TEST_F(ProxyFaultTest, WriteFallsBackToDurableCacheDuringOutage) {
  rsds_.SetAvailable(false);
  loop_.ScheduleAfter(Seconds(2), [this] { rsds_.SetAvailable(true); });
  Status ack = InternalError("unset");
  proxy_.Write(Ctx(), "out", MiB(1), Media(MiB(1)), [&](Status s) { ack = s; });
  loop_.Run();
  ASSERT_TRUE(ack.ok());  // Acknowledged from the replicated cache copy.
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.fallback_writes"), 1u);
  // Once the store heals, the degraded persistor pushes the full payload.
  const auto meta = rsds_.Stat("out");
  ASSERT_TRUE(meta.ok());
  EXPECT_FALSE(meta->IsShadow());
  EXPECT_EQ(meta->size, MiB(1));
  EXPECT_GT(proxy_.metrics().CounterValue("ofc.proxy.persistor_retries"), 0u);
  EXPECT_FALSE(cluster_.Contains("out"));  // Final output dropped after persist.
}

TEST_F(ProxyFaultTest, WriteFailsWhenFallbackImpossible) {
  // Not cacheable -> no durable cache copy -> the outage must surface.
  rsds_.SetAvailable(false);
  Status ack = InternalError("unset");
  proxy_.Write(Ctx(/*should_cache=*/false), "out", MiB(1), Media(MiB(1)),
               [&](Status s) { ack = s; });
  loop_.Run();
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.code(), StatusCode::kUnavailable);
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.fallback_writes"), 0u);
}

// Regression: a write acknowledged *after* the store healed must not be
// clobbered by the earlier write's retried fallback push (the degraded
// persistor stands down when its epoch goes stale).
TEST_F(ProxyFaultTest, StaleFallbackDoesNotClobberNewerWrite) {
  rsds_.SetAvailable(false);
  loop_.ScheduleAfter(Seconds(1), [this] { rsds_.SetAvailable(true); });
  Status first = InternalError("unset");
  proxy_.Write(Ctx(), "out", MiB(1), Media(MiB(1)), [&](Status s) { first = s; });
  loop_.RunUntil(Millis(500));
  ASSERT_TRUE(first.ok());  // Acked from the cache; fallback push still pending.
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.fallback_writes"), 1u);

  // A second write to the same key lands after heal, before the retried
  // fallback push fires.
  Status second = InternalError("unset");
  loop_.ScheduleAt(Seconds(1) + Millis(50), [&, this] {
    proxy_.Write(Ctx(), "out", MiB(2), Media(MiB(2)), [&](Status s) { second = s; });
  });
  loop_.Run();
  ASSERT_TRUE(second.ok());
  const auto meta = rsds_.Stat("out");
  ASSERT_TRUE(meta.ok());
  EXPECT_FALSE(meta->IsShadow());
  EXPECT_EQ(meta->size, MiB(2));  // The newer write won.
  // Fallback stood down.
  EXPECT_GE(proxy_.metrics().CounterValue("ofc.proxy.persistor_conflicts"), 1u);
  EXPECT_FALSE(cluster_.Contains("out"));  // Dropped by the *newer* persistor.
}

// ISSUE 9 satellite: the degraded-mode fallback path carries the payload
// fingerprint end to end — the durable-cache ack, the retried CAS push, and
// the winning object all verify, whether the fallback lands or stands down.
TEST_F(ProxyFaultTest, FallbackWritesCarryChecksumsEndToEnd) {
  rsds_.SetAvailable(false);
  loop_.ScheduleAfter(Seconds(1), [this] { rsds_.SetAvailable(true); });
  Status ack = InternalError("unset");
  proxy_.Write(Ctx(), "out", MiB(1), Media(MiB(1)), [&](Status s) { ack = s; });
  loop_.RunUntil(Millis(500));
  ASSERT_TRUE(ack.ok());
  // The durable cache copy acked under the outage already verifies.
  const auto cached = cluster_.Inspect("out");
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->checksum, ExpectedChecksum("out", cached->size, cached->version));

  loop_.Run();  // Heal; the retried fallback push lands through PutIfVersion.
  const auto meta = rsds_.Stat("out");
  ASSERT_TRUE(meta.ok());
  EXPECT_FALSE(meta->IsShadow());
  EXPECT_EQ(meta->checksum, ExpectedChecksum("out", meta->size, meta->rsds_version));
  EXPECT_EQ(rsds_.metrics().CounterTotal("ofc.integrity.store_checksum_failures"), 0u);
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.integrity.corrupt_acked"), 0u);
}

// And when a newer write beats the stale fallback, the winner's checksum is
// the one that survives — the losing CAS never half-stamps the object.
TEST_F(ProxyFaultTest, NewerWriteBeatingStaleFallbackKeepsVerifiableChecksum) {
  rsds_.SetAvailable(false);
  loop_.ScheduleAfter(Seconds(1), [this] { rsds_.SetAvailable(true); });
  Status first = InternalError("unset");
  proxy_.Write(Ctx(), "out", MiB(1), Media(MiB(1)), [&](Status s) { first = s; });
  loop_.RunUntil(Millis(500));
  ASSERT_TRUE(first.ok());
  Status second = InternalError("unset");
  loop_.ScheduleAt(Seconds(1) + Millis(50), [&, this] {
    proxy_.Write(Ctx(), "out", MiB(2), Media(MiB(2)), [&](Status s) { second = s; });
  });
  loop_.Run();
  ASSERT_TRUE(second.ok());
  const auto meta = rsds_.Stat("out");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->size, MiB(2));
  EXPECT_EQ(meta->checksum, ExpectedChecksum("out", meta->size, meta->rsds_version));
  // No corrupt push was attempted.
  EXPECT_EQ(rsds_.metrics().CounterTotal("ofc.integrity.store_checksum_failures"), 0u);
}

// Regression: an external client's write after heal beats the stale fallback
// through the store-side compare-and-swap (no proxy epoch involved).
TEST_F(ProxyFaultTest, ExternalWriteAfterHealBeatsStaleFallback) {
  proxy_.InstallWebhooks();
  rsds_.SetAvailable(false);
  loop_.ScheduleAfter(Seconds(1), [this] { rsds_.SetAvailable(true); });
  Status ack = InternalError("unset");
  proxy_.Write(Ctx(), "out", MiB(1), Media(MiB(1)), [&](Status s) { ack = s; });
  Status external = InternalError("unset");
  loop_.ScheduleAt(Seconds(1) + Millis(50), [&, this] {
    rsds_.ExternalWrite("out", KiB(512), [&](Status s) { external = s; });
  });
  loop_.Run();
  ASSERT_TRUE(ack.ok());
  ASSERT_TRUE(external.ok());
  const auto meta = rsds_.Stat("out");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->size, KiB(512));  // The external overwrite is preserved.
  // CAS aborted the push.
  EXPECT_GE(proxy_.metrics().CounterValue("ofc.proxy.persistor_conflicts"), 1u);
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.external_write_invalidations"), 1u);
}

// Regression: two fallback writes to one key during the same outage converge
// on the newest acknowledged payload, not on whichever persistor fires last.
TEST_F(ProxyFaultTest, ConcurrentFallbacksConvergeToNewestWrite) {
  rsds_.SetAvailable(false);
  loop_.ScheduleAfter(Seconds(2), [this] { rsds_.SetAvailable(true); });
  Status first = InternalError("unset");
  proxy_.Write(Ctx(), "out", MiB(1), Media(MiB(1)), [&](Status s) { first = s; });
  Status second = InternalError("unset");
  loop_.ScheduleAt(Millis(100), [&, this] {
    proxy_.Write(Ctx(), "out", MiB(3), Media(MiB(3)), [&](Status s) { second = s; });
  });
  loop_.Run();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.fallback_writes"), 2u);
  const auto meta = rsds_.Stat("out");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->size, MiB(3));  // Newest ack wins.
  EXPECT_GE(proxy_.metrics().CounterValue("ofc.proxy.persistor_conflicts"), 1u);
  EXPECT_FALSE(cluster_.Contains("out"));
}

// Regression: with retries disabled (deadline 0) the store's own kUnavailable
// must surface — not a fabricated kDeadlineExceeded for a budget never spent.
TEST_F(ProxyFaultTest, DisabledRetriesSurfaceUnavailable) {
  core::ProxyOptions options = MakeProxyOptions();
  options.rsds_deadline = 0;  // Documented: disables retries.
  core::Proxy proxy(&loop_, &cluster_, &rsds_, options);
  rsds_.Seed("obj", KiB(64), {});
  rsds_.SetAvailable(false);
  Result<Bytes> out = InternalError("unset");
  proxy.Read(Ctx(), "obj", [&](Result<Bytes> r) { out = std::move(r); });
  loop_.Run();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(proxy.metrics().CounterValue("ofc.proxy.read_deadlines"), 0u);
  EXPECT_EQ(proxy.metrics().CounterValue("ofc.proxy.rsds_retries"), 0u);
}

// Regression: an overlapping drop window that ends earlier must not shorten a
// longer window already in force.
TEST_F(ProxyFaultTest, ShorterDropWindowDoesNotShortenLongerOne) {
  proxy_.InjectPersistorDropUntil(Seconds(5));
  proxy_.InjectPersistorDropUntil(Seconds(1));  // Overlap ending earlier.
  Status ack = InternalError("unset");
  proxy_.Write(Ctx(), "out", MiB(1), Media(MiB(1)), [&](Status s) { ack = s; });
  loop_.ScheduleAt(Seconds(3), [this] {
    const auto mid = rsds_.Stat("out");
    ASSERT_TRUE(mid.ok());
    EXPECT_TRUE(mid->IsShadow());  // Long window still open: no push landed.
  });
  loop_.Run();
  ASSERT_TRUE(ack.ok());
  const auto meta = rsds_.Stat("out");
  ASSERT_TRUE(meta.ok());
  EXPECT_FALSE(meta->IsShadow());  // Converged once the *longer* window closed.
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.persistor_abandons"), 0u);
}

TEST_F(ProxyFaultTest, PersistorDropWindowRetriesAfterExpiry) {
  proxy_.InjectPersistorDropUntil(loop_.now() + Seconds(1));
  Status ack = InternalError("unset");
  proxy_.Write(Ctx(), "out", MiB(1), Media(MiB(1)), [&](Status s) { ack = s; });
  loop_.Run();
  ASSERT_TRUE(ack.ok());
  EXPECT_GT(proxy_.metrics().CounterValue("ofc.proxy.persistor_drops"), 0u);
  EXPECT_GT(proxy_.metrics().CounterValue("ofc.proxy.persistor_retries"), 0u);
  const auto meta = rsds_.Stat("out");
  ASSERT_TRUE(meta.ok());
  EXPECT_FALSE(meta->IsShadow());  // Converged after the window closed.
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.persistor_abandons"), 0u);
}

// The shadow (versioned) path: a first write's persistor is held back by a
// drop window while a second write to the same key is acknowledged and
// persisted first. The late push must stand down on the store's version order
// and leave the newer write's state alone: the cached copy goes exactly once,
// dropped by the second write's persistor.
TEST_F(ProxyFaultTest, HeldBackShadowPersistorStandsDownBehindNewerWrite) {
  proxy_.InjectPersistorDropUntil(Seconds(1));
  Status first = InternalError("unset");
  proxy_.Write(Ctx(), "out", MiB(1), Media(MiB(1)), [&](Status s) { first = s; });
  loop_.RunUntil(Millis(900));
  ASSERT_TRUE(first.ok());
  ASSERT_GT(proxy_.metrics().CounterValue("ofc.proxy.persistor_drops"), 0u);
  ASSERT_TRUE(rsds_.Stat("out")->IsShadow());

  // The window closes at 1 s; the second write lands and persists before the
  // first persistor's next retry (its backoff has grown past 1 s).
  Status second = InternalError("unset");
  bool second_persisted_first = false;
  loop_.ScheduleAt(Seconds(1) + Millis(50), [&, this] {
    proxy_.Write(Ctx(), "out", MiB(2), Media(MiB(2)), [&](Status s) { second = s; });
  });
  loop_.ScheduleAt(Seconds(1) + Millis(600), [&, this] {
    const auto mid = rsds_.Stat("out");
    second_persisted_first = mid.ok() && !mid->IsShadow() && mid->size == MiB(2) &&
                             proxy_.metrics().CounterValue("ofc.proxy.persistor_conflicts") == 0;
  });
  loop_.Run();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second_persisted_first);
  const auto meta = rsds_.Stat("out");
  ASSERT_TRUE(meta.ok());
  EXPECT_FALSE(meta->IsShadow());
  EXPECT_EQ(meta->size, MiB(2));  // The newer write won.
  EXPECT_GE(proxy_.metrics().CounterValue("ofc.proxy.persistor_conflicts"), 1u);
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.persistor_abandons"), 0u);
  EXPECT_FALSE(cluster_.Contains("out"));
  EXPECT_EQ(cluster_.metrics().CounterValue("ofc.ramcloud.evictions"), 1u);
}

// The write-epoch table holds a key only while one of its persistors is in
// flight: it empties after each way a persistor can finish — success, a
// conflict with a newer version, a stale-epoch stand-down, and abandonment.
TEST_F(ProxyFaultTest, EpochTableEmptiesOnceEveryPersistorFinishes) {
  auto write = [this](const std::string& key, Bytes size) {
    proxy_.Write(Ctx(), key, size, Media(size), [](Status s) { ASSERT_TRUE(s.ok()); });
  };
  EXPECT_EQ(proxy_.PersistorKeysInFlight(), 0u);

  // Success.
  write("ok", MiB(1));
  loop_.RunUntil(Millis(30));
  EXPECT_EQ(proxy_.PersistorKeysInFlight(), 1u);
  loop_.RunUntil(Seconds(2));
  EXPECT_EQ(proxy_.PersistorKeysInFlight(), 0u);
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.persistor_conflicts"), 0u);

  // Conflict: a held-back shadow persistor loses to a newer persisted write.
  proxy_.InjectPersistorDropUntil(Seconds(3));
  write("held", MiB(1));
  loop_.ScheduleAt(Seconds(3) + Millis(50), [&] { write("held", MiB(2)); });
  loop_.RunUntil(Seconds(3) + Millis(60));
  EXPECT_EQ(proxy_.PersistorKeysInFlight(), 1u);  // Two persistors, one key.
  loop_.RunUntil(Seconds(8));
  EXPECT_EQ(proxy_.PersistorKeysInFlight(), 0u);
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.persistor_conflicts"), 1u);

  // Stale-epoch stand-down: a fallback acked in an outage is superseded by a
  // write acknowledged after heal, before the fallback's retry fires.
  loop_.ScheduleAt(Seconds(10), [this] { rsds_.SetAvailable(false); });
  loop_.ScheduleAt(Seconds(10), [&] { write("stale", MiB(1)); });
  loop_.ScheduleAt(Seconds(11), [this] { rsds_.SetAvailable(true); });
  loop_.ScheduleAt(Seconds(11) + Millis(50), [&] { write("stale", MiB(2)); });
  loop_.RunUntil(Seconds(20));
  EXPECT_EQ(proxy_.PersistorKeysInFlight(), 0u);
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.persistor_conflicts"), 2u);
  EXPECT_EQ(rsds_.Stat("stale")->size, MiB(2));

  // Abandonment: the store never comes back.
  loop_.ScheduleAt(Seconds(20), [this] { rsds_.SetAvailable(false); });
  loop_.ScheduleAt(Seconds(20), [&] { write("lost", MiB(1)); });
  loop_.RunUntil(Seconds(21));
  EXPECT_EQ(proxy_.PersistorKeysInFlight(), 1u);
  loop_.Run();
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.persistor_abandons"), 1u);
  EXPECT_EQ(proxy_.PersistorKeysInFlight(), 0u);
}

TEST_F(ProxyFaultTest, PersistorAbandonsAfterRetryBudgetButStaysDirty) {
  rsds_.SetAvailable(false);  // Permanent outage.
  Status ack = InternalError("unset");
  proxy_.Write(Ctx(), "out", MiB(1), Media(MiB(1)), [&](Status s) { ack = s; });
  loop_.Run();  // Terminates: the retry budget is bounded.
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.persistor_abandons"), 1u);
  // The payload is not lost — it stays dirty in the cache for the CacheAgent's
  // write-back sweep to retry later.
  const auto cached = cluster_.Inspect("out");
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->dirty);
}

TEST_F(ProxyFaultTest, BackoffIsDeterministicAcrossRuns) {
  auto run_once = [] {
    sim::EventLoop loop;
    store::ObjectStore rsds(&loop, sim::LatencyProfiles::SwiftRequest(), Rng(1), "swift",
                            sim::LatencyProfiles::SwiftControl());
    rc::Cluster cluster(&loop, 2, MakeClusterOptions(), Rng(2));
    core::Proxy proxy(&loop, &cluster, &rsds, MakeProxyOptions());
    rsds.Seed("obj", KiB(64), {});
    rsds.SetAvailable(false);
    SimTime failed_at = 0;
    faas::InvocationContext ctx;
    ctx.worker = 0;
    ctx.function = "f";
    proxy.Read(ctx, "obj", [&](Result<Bytes>) { failed_at = loop.now(); });
    loop.Run();
    return failed_at;
  };
  const SimTime first = run_once();
  EXPECT_GT(first, 0);
  EXPECT_EQ(first, run_once());  // No jitter: byte-identical replay.
}

// ---- FaultInjector -----------------------------------------------------------------

TEST(FaultInjectorTest, ScheduleRejectsUnwiredTargets) {
  sim::EventLoop loop;
  store::ObjectStore rsds(&loop, sim::LatencyProfiles::SwiftRequest(), Rng(1), "swift");
  FaultInjector injector(&loop, FaultInjectorTargets{nullptr, nullptr, &rsds, nullptr});
  FaultPlan plan;
  plan.events = {FaultEvent{Seconds(1), FaultKind::kWorkerCrash, 0, Seconds(1)}};
  EXPECT_EQ(injector.Schedule(plan).code(), StatusCode::kInvalidArgument);
  plan.events = {FaultEvent{Seconds(1), FaultKind::kPersistorDrop, -1, Seconds(1)}};
  EXPECT_EQ(injector.Schedule(plan).code(), StatusCode::kFailedPrecondition);
  plan.events = {FaultEvent{Seconds(1), FaultKind::kStoreOutage, -1, Seconds(1)}};
  EXPECT_TRUE(injector.Schedule(plan).ok());
}

TEST(FaultInjectorTest, OverlappingOutagesHealWhenLastWindowCloses) {
  sim::EventLoop loop;
  store::ObjectStore rsds(&loop, sim::LatencyProfiles::SwiftRequest(), Rng(1), "swift");
  FaultInjector injector(&loop, FaultInjectorTargets{nullptr, nullptr, &rsds, nullptr});
  FaultPlan plan;
  plan.events = {
      FaultEvent{Seconds(1), FaultKind::kStoreOutage, -1, Seconds(2)},   // Heals at 3.
      FaultEvent{Seconds(2), FaultKind::kStoreOutage, -1, Seconds(3)},   // Heals at 5.
  };
  ASSERT_TRUE(injector.Schedule(plan).ok());
  loop.RunUntil(Seconds(2) + Millis(500));
  EXPECT_FALSE(rsds.available());
  loop.RunUntil(Seconds(3) + Millis(500));
  EXPECT_FALSE(rsds.available());  // The first heal must not end the second window.
  loop.RunUntil(Seconds(5) + Millis(500));
  EXPECT_TRUE(rsds.available());
  EXPECT_EQ(injector.metrics().CounterValue("ofc.fault.injected"), 2u);
  EXPECT_EQ(injector.metrics().CounterValue("ofc.fault.healed"), 2u);
}

TEST(FaultInjectorTest, OverlappingBrownoutsRestoreHealthyFactor) {
  sim::EventLoop loop;
  store::ObjectStore rsds(&loop, sim::LatencyProfiles::SwiftRequest(), Rng(1), "swift");
  FaultInjector injector(&loop, FaultInjectorTargets{nullptr, nullptr, &rsds, nullptr});
  FaultPlan plan;
  plan.events = {
      FaultEvent{Seconds(1), FaultKind::kStoreBrownout, -1, Seconds(4), 2.0},
      FaultEvent{Seconds(2), FaultKind::kStoreBrownout, -1, Seconds(1), 8.0},
  };
  ASSERT_TRUE(injector.Schedule(plan).ok());
  loop.RunUntil(Seconds(2) + Millis(500));
  EXPECT_EQ(rsds.latency_factor(), 8.0);
  loop.RunUntil(Seconds(3) + Millis(500));
  EXPECT_EQ(rsds.latency_factor(), 8.0);  // Still one window open.
  loop.RunUntil(Seconds(6));
  EXPECT_EQ(rsds.latency_factor(), 1.0);
}

TEST(FaultInjectorTest, WorkerCrashHealsIntoRestore) {
  faasload::EnvironmentOptions env_options;
  env_options.platform.num_workers = 2;
  env_options.seed = 5;
  faasload::Environment env(faasload::Mode::kOfc, env_options);
  FaultInjector injector(&env.loop(),
                         FaultInjectorTargets{&env.platform(), env.cluster(), &env.rsds(),
                                              &env.ofc()->proxy()},
                         FaultInjectorOptions{&env.metrics(), &env.trace()});
  FaultPlan plan;
  plan.events = {FaultEvent{Seconds(1), FaultKind::kWorkerCrash, 1, Seconds(2)}};
  ASSERT_TRUE(injector.Schedule(plan).ok());
  env.loop().RunUntil(Seconds(2));
  EXPECT_FALSE(env.platform().WorkerAlive(1));
  env.loop().RunUntil(Seconds(4));
  EXPECT_TRUE(env.platform().WorkerAlive(1));
  EXPECT_EQ(env.platform().metrics().CounterValue("ofc.platform.worker_crashes"), 1u);
  EXPECT_EQ(env.platform().metrics().CounterValue("ofc.platform.worker_restores"), 1u);
}

// Regression: overlapping crash windows on the same target nest by depth — the
// first window's heal must not restore the target while the second is open.
TEST(FaultInjectorTest, OverlappingCrashWindowsRestoreAtLastClose) {
  faasload::EnvironmentOptions env_options;
  env_options.platform.num_workers = 2;
  env_options.seed = 7;
  faasload::Environment env(faasload::Mode::kOfc, env_options);
  FaultInjector injector(&env.loop(),
                         FaultInjectorTargets{&env.platform(), env.cluster(), &env.rsds(),
                                              &env.ofc()->proxy()},
                         FaultInjectorOptions{&env.metrics(), &env.trace()});
  FaultPlan plan;
  plan.events = {
      FaultEvent{Seconds(1), FaultKind::kWorkerCrash, 1, Seconds(2)},  // Heals at 3.
      FaultEvent{Seconds(2), FaultKind::kWorkerCrash, 1, Seconds(3)},  // Heals at 5.
      FaultEvent{Seconds(1), FaultKind::kNodeCrash, 0, Seconds(2)},
      FaultEvent{Seconds(2), FaultKind::kNodeCrash, 0, Seconds(3)},
  };
  ASSERT_TRUE(injector.Schedule(plan).ok());
  env.loop().RunUntil(Seconds(3) + Millis(500));
  EXPECT_FALSE(env.platform().WorkerAlive(1));  // First heal must not restore.
  EXPECT_FALSE(env.cluster()->Alive(0));
  env.loop().RunUntil(Seconds(5) + Millis(500));
  EXPECT_TRUE(env.platform().WorkerAlive(1));
  EXPECT_TRUE(env.cluster()->Alive(0));
  // The overlapped crash is injected/restored once: no double-counting.
  EXPECT_EQ(env.platform().metrics().CounterValue("ofc.platform.worker_crashes"), 1u);
  EXPECT_EQ(env.platform().metrics().CounterValue("ofc.platform.worker_restores"), 1u);
  EXPECT_EQ(env.cluster()->metrics().CounterValue("ofc.ramcloud.node_crashes"), 1u);
  EXPECT_EQ(env.cluster()->metrics().CounterValue("ofc.ramcloud.node_restarts"), 1u);
  EXPECT_EQ(injector.metrics().CounterValue("ofc.fault.injected"), 4u);
  EXPECT_EQ(injector.metrics().CounterValue("ofc.fault.healed"), 4u);
}

TEST(FaultInjectorTest, MachineCrashTakesDownWorkerAndNode) {
  faasload::EnvironmentOptions env_options;
  env_options.platform.num_workers = 2;
  env_options.seed = 6;
  faasload::Environment env(faasload::Mode::kOfc, env_options);
  FaultInjector injector(&env.loop(),
                         FaultInjectorTargets{&env.platform(), env.cluster(), &env.rsds(),
                                              &env.ofc()->proxy()},
                         FaultInjectorOptions{&env.metrics(), &env.trace()});
  FaultPlan plan;
  plan.events = {FaultEvent{Seconds(1), FaultKind::kMachineCrash, 0, Seconds(2)}};
  ASSERT_TRUE(injector.Schedule(plan).ok());
  env.loop().RunUntil(Seconds(2));
  EXPECT_FALSE(env.platform().WorkerAlive(0));
  EXPECT_FALSE(env.cluster()->Alive(0));
  env.loop().RunUntil(Seconds(4));
  EXPECT_TRUE(env.platform().WorkerAlive(0));
  EXPECT_TRUE(env.cluster()->Alive(0));
  EXPECT_EQ(env.metrics().CounterTotal("ofc.fault.injected"), 1u);
  EXPECT_EQ(env.metrics().CounterTotal("ofc.fault.healed"), 1u);
}

TEST(FaultInjectorTest, CorruptionFiresInstantlyAndCountsDamagedObjects) {
  faasload::EnvironmentOptions env_options;
  env_options.platform.num_workers = 2;
  env_options.seed = 8;
  faasload::Environment env(faasload::Mode::kOfc, env_options);
  FaultInjector injector(&env.loop(),
                         FaultInjectorTargets{&env.platform(), env.cluster(), &env.rsds(),
                                              &env.ofc()->proxy()},
                         FaultInjectorOptions{&env.metrics(), &env.trace()});
  // One cache object mastered on node 0, one durable store object. The events
  // fire shortly after the write lands, before the cache agent's sweeps can
  // reclaim the untouched object.
  for (int node = 0; node < env.cluster()->num_nodes(); ++node) {
    ASSERT_TRUE(env.cluster()->SetCapacity(node, MiB(64)).ok());
  }
  Status write = InternalError("unset");
  env.cluster()->Write(0, "k", MiB(1), 1, rc::ObjectClass::kInput, false,
                       [&](Status s) { write = s; });
  env.loop().RunUntil(Millis(50));  // Environment timers never drain: bounded run.
  ASSERT_TRUE(write.ok());
  env.rsds().Seed("c/x", KiB(64), {});

  FaultPlan plan;
  plan.events = {
      FaultEvent{Millis(100), FaultKind::kCorruptSegment, 0, 0, 4.0},
      FaultEvent{Millis(100), FaultKind::kStoreRot, -1, 0, 4.0},
  };
  ASSERT_TRUE(injector.Schedule(plan).ok());
  env.loop().RunUntil(Millis(200));

  // Each event flipped the one healthy object in its blast radius; severity
  // above the population does not inflate the count.
  EXPECT_EQ(env.metrics().CounterTotal("ofc.fault.objects_corrupted"), 2u);
  EXPECT_EQ(injector.metrics().CounterValue("ofc.fault.injected"), 2u);
  // Instantaneous faults never open a heal window: the active gauge is flat
  // and no heal is pending at any future time.
  EXPECT_EQ(injector.metrics().CounterValue("ofc.fault.healed"), 0u);
  EXPECT_EQ(env.metrics().GetGauge("ofc.fault.active")->value(), 0.0);

  // The damage itself outlives the event until scrubbed or read.
  const auto obj = env.cluster()->Inspect("k");
  ASSERT_TRUE(obj.ok());
  EXPECT_NE(obj->checksum, ExpectedChecksum("k", obj->size, obj->version));
  EXPECT_EQ(env.cluster()->ScrubObject("k").corrupt_copies, 1);
}

// ---- Cluster crash/restart mechanics ----------------------------------------------

TEST(ClusterFaultTest, CrashingDeadNodeIsNoOp) {
  sim::EventLoop loop;
  rc::ClusterOptions options;
  options.default_capacity = MiB(64);
  rc::Cluster cluster(&loop, 3, options, Rng(3));
  (void)cluster.CrashNode(1);
  EXPECT_FALSE(cluster.Alive(1));
  EXPECT_EQ(cluster.AliveNodes(), 2);
  const auto second = cluster.CrashNode(1);
  EXPECT_EQ(second.objects_recovered, 0u);
  EXPECT_EQ(second.objects_lost, 0u);
  // The no-op is not counted.
  EXPECT_EQ(cluster.metrics().CounterValue("ofc.ramcloud.node_crashes"), 1u);
}

TEST(ClusterFaultTest, RestartReplicatesUnderReplicatedObjects) {
  sim::EventLoop loop;
  rc::ClusterOptions options;
  options.default_capacity = MiB(64);
  options.replication_factor = 2;
  rc::Cluster cluster(&loop, 3, options, Rng(4));
  for (int i = 0; i < 10; ++i) {
    cluster.Write(0, "k" + std::to_string(i), KiB(64), 1, rc::ObjectClass::kInput,
                  false, [](Status) {});
  }
  loop.Run();
  (void)cluster.CrashNode(2);
  // With two survivors, rf=2 cannot be met: every object has at most 1 backup.
  for (int i = 0; i < 10; ++i) {
    const auto obj = cluster.Inspect("k" + std::to_string(i));
    ASSERT_TRUE(obj.ok());
    EXPECT_LE(obj->backups.size(), 1u);
  }
  cluster.RestartNode(2);
  EXPECT_TRUE(cluster.Alive(2));
  EXPECT_EQ(cluster.metrics().CounterValue("ofc.ramcloud.node_restarts"), 1u);
  for (int i = 0; i < 10; ++i) {
    const auto obj = cluster.Inspect("k" + std::to_string(i));
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ(obj->backups.size(), 2u) << "k" << i;  // rf restored.
    EXPECT_NE(obj->master, 2);                       // DRAM was lost; backup only.
  }
  cluster.RestartNode(2);  // Restarting an alive node is a no-op.
  EXPECT_EQ(cluster.metrics().CounterValue("ofc.ramcloud.node_restarts"), 1u);
}

// Regression: a crash racing a vertical-scaling master migration. The migration
// promotes a backup to master; crashing the *old* master immediately afterwards
// must not lose the object or leave a dead node in its replica set.
TEST(ClusterFaultTest, CrashAfterMigrationKeepsObjectConsistent) {
  sim::EventLoop loop;
  rc::ClusterOptions options;
  options.default_capacity = MiB(64);
  options.replication_factor = 2;
  rc::Cluster cluster(&loop, 3, options, Rng(5));
  cluster.Write(0, "hot", MiB(1), 1, rc::ObjectClass::kInput, false, [](Status) {});
  loop.Run();
  const auto before = cluster.Inspect("hot");
  ASSERT_TRUE(before.ok());
  const int old_master = before->master;

  const auto migration = cluster.MigrateMaster("hot");
  ASSERT_TRUE(migration.ok());
  ASSERT_EQ(migration->old_master, old_master);
  ASSERT_NE(migration->new_master, old_master);

  // Mid-scaling crash: the demoted node dies right after the promotion.
  const auto recovery = cluster.CrashNode(old_master);
  EXPECT_EQ(recovery.objects_lost, 0u);
  const auto after = cluster.Inspect("hot");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->master, migration->new_master);
  EXPECT_TRUE(cluster.Alive(after->master));
  for (const rc::Replica& backup : after->backups) {
    EXPECT_TRUE(cluster.Alive(backup.node)) << "dead backup " << backup.node;
    EXPECT_NE(backup.node, after->master);
  }
  // And the reverse race: crash the *new* master right after promotion.
  const auto migration2 = cluster.MigrateMaster("hot");
  ASSERT_TRUE(migration2.ok());
  const auto recovery2 = cluster.CrashNode(migration2->new_master);
  EXPECT_EQ(recovery2.objects_lost, 0u);
  const auto final_obj = cluster.Inspect("hot");
  ASSERT_TRUE(final_obj.ok());
  EXPECT_TRUE(cluster.Alive(final_obj->master));
}

}  // namespace
}  // namespace ofc::fault
