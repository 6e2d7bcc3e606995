// Unit tests for the OFC core: memory intervals, per-function models with the
// §5.3.1 maturation criterion, Predictor fallback, CacheAgent hoarding and
// reclamation, Proxy caching/shadow/persistor behaviour.
#include <gtest/gtest.h>

#include "src/core/cache_agent.h"
#include "src/core/function_model.h"
#include "src/core/intervals.h"
#include "src/core/ml_service.h"
#include "src/core/proxy.h"
#include "src/core/scrubber.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/store/object_store.h"

namespace ofc::core {
namespace {

// ---- MemoryIntervals -----------------------------------------------------------

TEST(IntervalsTest, DefaultIs128Classes) {
  MemoryIntervals intervals;
  EXPECT_EQ(intervals.num_classes(), 128);
  EXPECT_EQ(intervals.interval_size(), MiB(16));
}

TEST(IntervalsTest, LabelAndBounds) {
  MemoryIntervals intervals(MiB(16), GiB(2));
  EXPECT_EQ(intervals.Label(0), 0);
  EXPECT_EQ(intervals.Label(MiB(16) - 1), 0);
  EXPECT_EQ(intervals.Label(MiB(16)), 1);
  EXPECT_EQ(intervals.Label(MiB(100)), 6);
  EXPECT_EQ(intervals.Label(GiB(4)), 127);  // Clamped.
  EXPECT_EQ(intervals.UpperBound(0), MiB(16));
  EXPECT_EQ(intervals.UpperBound(6), MiB(112));
}

TEST(IntervalsTest, ConservativeAllocationIsNextInterval) {
  MemoryIntervals intervals(MiB(16), GiB(2));
  EXPECT_EQ(intervals.ConservativeAllocation(6), MiB(128));
  // Top class cannot be bumped further.
  EXPECT_EQ(intervals.ConservativeAllocation(127), GiB(2));
}

TEST(IntervalsTest, ClassAttributeOrdered) {
  MemoryIntervals intervals(MiB(32), GiB(2));
  const ml::Attribute attr = intervals.ClassAttribute();
  EXPECT_EQ(attr.num_values(), 64u);
  EXPECT_EQ(attr.values[0], "m0");
  EXPECT_EQ(attr.values[63], "m63");
}

// ---- FunctionModel --------------------------------------------------------------

ModelConfig FastConfig() {
  ModelConfig config;
  config.min_train = 10;
  config.retrain_every = 10;
  config.maturity_min_invocations = 50;
  return config;
}

std::vector<ml::Attribute> SimpleFeatures() {
  return {ml::Attribute::Numeric("x"), ml::Attribute::Numeric("y")};
}

// Learnable memory: mem = x * y bytes scaled into a few intervals.
Bytes TrueMemory(double x, double y) {
  return static_cast<Bytes>(MiB(40) + static_cast<Bytes>(x * y * 1e4));
}

TEST(FunctionModelTest, StartsBlankAndImmature) {
  FunctionModel model("f", SimpleFeatures(), FastConfig());
  EXPECT_FALSE(model.trained());
  EXPECT_FALSE(model.mature());
  EXPECT_EQ(model.PredictClass({1.0, 1.0}), std::nullopt);
  EXPECT_EQ(model.PredictBenefit({1.0, 1.0}), std::nullopt);
  EXPECT_EQ(model.matured_at(), -1);
}

TEST(FunctionModelTest, MaturesOnLearnableWorkload) {
  FunctionModel model("f", SimpleFeatures(), FastConfig());
  Rng rng(3);
  for (int i = 0; i < 300 && !model.mature(); ++i) {
    const double x = rng.Uniform(10, 100);
    const double y = rng.Uniform(10, 100);
    model.Learn({x, y}, TrueMemory(x, y), true);
  }
  EXPECT_TRUE(model.trained());
  EXPECT_TRUE(model.mature());
  EXPECT_GE(model.matured_at(), 50);
  EXPECT_GE(model.eo_rate(), 0.9);
  EXPECT_GE(model.under_within_one_rate(), 0.5);
}

TEST(FunctionModelTest, PredictsAccuratelyWhenMature) {
  FunctionModel model("f", SimpleFeatures(), FastConfig());
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.Uniform(10, 100);
    const double y = rng.Uniform(10, 100);
    model.Learn({x, y}, TrueMemory(x, y), true);
  }
  ASSERT_TRUE(model.mature());
  const MemoryIntervals& intervals = model.config().intervals;
  int exact_or_over = 0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    const double x = rng.Uniform(10, 100);
    const double y = rng.Uniform(10, 100);
    const auto cls = model.PredictClass({x, y});
    ASSERT_TRUE(cls.has_value());
    // With the §5.3.1 conservative bump, the allocation covers the truth.
    exact_or_over +=
        intervals.ConservativeAllocation(*cls) >= TrueMemory(x, y) ? 1 : 0;
  }
  EXPECT_GE(exact_or_over, 90);
}

TEST(FunctionModelTest, CuratesTrainingSetAfterMaturity) {
  FunctionModel model("f", SimpleFeatures(), FastConfig());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform(10, 100);
    const double y = rng.Uniform(10, 100);
    model.Learn({x, y}, TrueMemory(x, y), true);
  }
  ASSERT_TRUE(model.mature());
  const std::size_t before = model.training_set_size();
  // Accurate post-maturity samples are mostly NOT retained.
  for (int i = 0; i < 100; ++i) {
    const double x = rng.Uniform(10, 100);
    const double y = rng.Uniform(10, 100);
    model.Learn({x, y}, TrueMemory(x, y), true);
  }
  EXPECT_LT(model.training_set_size(), before + 30);
}

TEST(FunctionModelTest, RejectsInvalidSamples) {
  FunctionModel model("f", SimpleFeatures(), FastConfig());
  // Wrong arity: neither curated set keeps the sample, so nothing trains.
  for (int i = 0; i < 20; ++i) {
    model.Learn({1.0}, MiB(64), true);
  }
  EXPECT_EQ(model.training_set_size(), 0u);
  EXPECT_FALSE(model.trained());
  EXPECT_EQ(model.observations(), 20);
}

TEST(FunctionModelTest, BenefitModelLearnsSeparably) {
  FunctionModel model("f", SimpleFeatures(), FastConfig());
  Rng rng(9);
  // Benefit iff x < 50 (crisp rule).
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform(10, 100);
    const double y = rng.Uniform(10, 100);
    model.Learn({x, y}, TrueMemory(x, y), x < 50);
  }
  ASSERT_TRUE(model.trained());
  EXPECT_EQ(model.PredictBenefit({20.0, 50.0}), true);
  EXPECT_EQ(model.PredictBenefit({90.0, 50.0}), false);
}

// ---- Predictor / ModelTrainer ----------------------------------------------------

TEST(PredictorTest, FallsBackToBookedWhileImmature) {
  ModelRegistry registry(FastConfig());
  Predictor predictor(&registry);
  const workloads::FunctionSpec& spec = workloads::AllFunctions().front();
  workloads::MediaGenerator gen(Rng(11));
  Rng rng(13);
  const auto media = gen.Generate(spec.kind);
  const auto args = workloads::SampleArgs(spec, rng);
  const Prediction prediction = predictor.Predict(spec, media, args, GiB(2));
  EXPECT_FALSE(prediction.from_model);
  EXPECT_EQ(prediction.memory, GiB(2));
  EXPECT_FALSE(prediction.should_cache);
}

TEST(PredictorTest, UsesModelAfterPretraining) {
  ModelRegistry registry(FastConfig());
  Predictor predictor(&registry);
  ModelTrainer trainer(&registry, store::StoreProfile::Swift());
  const workloads::FunctionSpec* spec = workloads::FindFunction("wand_sepia");
  ASSERT_NE(spec, nullptr);
  Rng rng(17);
  trainer.Pretrain(*spec, 600, rng);
  ASSERT_TRUE(registry.Find("wand_sepia")->mature());

  workloads::MediaGenerator gen(Rng(19));
  int covered = 0;
  const int trials = 50;
  for (int i = 0; i < trials; ++i) {
    const auto media = gen.Generate(spec->kind);
    const auto args = workloads::SampleArgs(*spec, rng);
    const Prediction prediction = predictor.Predict(*spec, media, args, GiB(2));
    EXPECT_TRUE(prediction.from_model);
    EXPECT_LT(prediction.memory, GiB(2));  // Prediction hoards real memory.
    const auto demand = workloads::ComputeDemand(*spec, media, args, &rng);
    covered += prediction.memory >= demand.memory ? 1 : 0;
  }
  EXPECT_GE(covered, 44);  // ~95 % EO-coverage per §5.3.1.
}

TEST(PredictorTest, BenefitFollowsEtlDominance) {
  // Small images on a slow RSDS: E+L dominates -> caching predicted useful.
  ModelRegistry registry(FastConfig());
  Predictor predictor(&registry);
  ModelTrainer trainer(&registry, store::StoreProfile::Swift());
  const workloads::FunctionSpec* spec = workloads::FindFunction("wand_sepia");
  Rng rng(23);
  trainer.Pretrain(*spec, 600, rng);

  workloads::MediaGenerator gen(Rng(29));
  int should_cache = 0;
  const int trials = 50;
  for (int i = 0; i < trials; ++i) {
    const auto media = gen.Generate(spec->kind);
    const auto args = workloads::SampleArgs(*spec, rng);
    should_cache += predictor.Predict(*spec, media, args, GiB(2)).should_cache;
  }
  // wand_sepia computes ~15 us/MB: E&L dominates for nearly every input.
  EXPECT_GE(should_cache, trials * 8 / 10);
}

// ---- CacheAgent -------------------------------------------------------------------

class CacheAgentTest : public ::testing::Test {
 protected:
  CacheAgentTest() : cluster_(&loop_, 2, MakeClusterOptions(), Rng(1)) {}

  static rc::ClusterOptions MakeClusterOptions() {
    rc::ClusterOptions options;
    options.default_capacity = 0;
    options.replication_factor = 1;
    options.max_object_size = GiB(1);  // Tests use large objects for pressure.
    return options;
  }

  CacheAgentOptions MakeAgentOptions() {
    CacheAgentOptions options;
    options.worker_memory = GiB(1);
    options.initial_slack = MiB(100);
    return options;
  }

  // Sandbox memory event: a 1 GiB-booked sandbox whose cgroup limit moves from
  // `old_limit` to `new_limit` on `worker`.
  static faas::SandboxMemoryEvent Ev(int worker, Bytes old_limit, Bytes new_limit,
                                     Bytes booked = GiB(1)) {
    faas::SandboxMemoryEvent event;
    event.worker = worker;
    event.booked = booked;
    event.old_limit = old_limit;
    event.new_limit = new_limit;
    return event;
  }

  // CacheAgent::Start() arms perpetual periodic timers, so tests must advance
  // the loop by bounded amounts instead of running it dry.
  void RunFor(SimDuration duration) { loop_.RunUntil(loop_.now() + duration); }

  void WriteObject(int node, const std::string& key, Bytes size,
                   rc::ObjectClass cls = rc::ObjectClass::kInput, bool dirty = false) {
    Status status = InternalError("unset");
    cluster_.Write(node, key, size, 1, cls, dirty, [&](Status s) { status = s; });
    RunFor(Seconds(1));
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  sim::EventLoop loop_;
  rc::Cluster cluster_;
};

TEST_F(CacheAgentTest, NoSandboxesMeansNoCache) {
  // The cache is fed exclusively by booked-but-unused sandbox memory; with no
  // sandboxes alive there is nothing to hoard.
  CacheAgent agent(&loop_, &cluster_, MakeAgentOptions());
  agent.Start();
  EXPECT_EQ(cluster_.Capacity(0), 0);
  EXPECT_EQ(cluster_.Capacity(1), 0);
}

TEST_F(CacheAgentTest, HoardFollowsBookedMinusLimit) {
  CacheAgent agent(&loop_, &cluster_, MakeAgentOptions());
  agent.Start();
  // A 1 GiB-booked sandbox sized to 64 MiB leaves 960 MiB of hoardable memory
  // (bounded by the same physical amount), minus the 100 MiB slack pool.
  agent.OnSandboxMemoryChange(Ev(0, 0, MiB(64)));
  EXPECT_EQ(agent.hoard(0), GiB(1) - MiB(64));
  EXPECT_EQ(cluster_.Capacity(0), GiB(1) - MiB(64) - MiB(100));
  // Sandbox destruction returns the hoard to zero.
  agent.OnSandboxMemoryChange(Ev(0, MiB(64), 0));
  EXPECT_EQ(agent.hoard(0), 0);
  EXPECT_EQ(cluster_.Capacity(0), 0);
}

TEST_F(CacheAgentTest, SandboxGrowthShrinksCache) {
  CacheAgent agent(&loop_, &cluster_, MakeAgentOptions());
  agent.Start();
  agent.OnSandboxMemoryChange(Ev(0, 0, MiB(64)));
  // Baselines exclude the initial-hoard scale-up.
  const obs::MetricsRegistry& m = agent.metrics();
  const std::uint64_t ups_before = m.CounterValue("ofc.cache_agent.scale_ups");
  const std::uint64_t downs_before = m.CounterValue("ofc.cache_agent.scale_downs_plain");
  agent.OnSandboxMemoryChange(Ev(0, MiB(64), MiB(512)));
  EXPECT_EQ(cluster_.Capacity(0), GiB(1) - MiB(512) - MiB(100));
  agent.OnSandboxMemoryChange(Ev(0, MiB(512), MiB(128)));  // Sandbox shrinks back.
  EXPECT_EQ(cluster_.Capacity(0), GiB(1) - MiB(128) - MiB(100));
  EXPECT_EQ(m.CounterValue("ofc.cache_agent.scale_ups") - ups_before, 1u);
  EXPECT_GE(m.CounterValue("ofc.cache_agent.scale_downs_plain") - downs_before, 1u);
}

TEST_F(CacheAgentTest, ShrinkEvictsPersistedOutputsFirst) {
  CacheAgent agent(&loop_, &cluster_, MakeAgentOptions());
  agent.Start();
  agent.OnSandboxMemoryChange(Ev(0, 0, MiB(64)));  // Cache capacity 860 MiB.
  WriteObject(0, "input_hot", MiB(300));
  WriteObject(0, "output_done", MiB(400), rc::ObjectClass::kFinalOutput, false);
  // Sandbox grows to 600 MiB: target 324 MiB, must free ~376 MiB. The
  // persisted output goes; the input stays.
  agent.OnSandboxMemoryChange(Ev(0, MiB(64), MiB(600)));
  EXPECT_FALSE(cluster_.Contains("output_done"));
  EXPECT_TRUE(cluster_.Contains("input_hot"));
}

TEST_F(CacheAgentTest, ShrinkMigratesInputsToOtherNode) {
  CacheAgent agent(&loop_, &cluster_, MakeAgentOptions());
  agent.Start();
  agent.OnSandboxMemoryChange(Ev(0, 0, MiB(64)));
  agent.OnSandboxMemoryChange(Ev(1, 0, MiB(64)));  // Node 1 can host migrations.
  WriteObject(0, "in1", MiB(5));
  WriteObject(0, "in2", MiB(5));
  const Bytes before_total = cluster_.TotalUsed();
  agent.OnSandboxMemoryChange(Ev(0, MiB(64), MiB(920)));  // Target (4 MiB) < used (10 MiB).
  // Objects migrated to node 1 rather than evicted (replication=1 backup).
  EXPECT_EQ(cluster_.TotalUsed(), before_total);
  EXPECT_TRUE(cluster_.Contains("in1"));
  EXPECT_TRUE(cluster_.Contains("in2"));
  EXPECT_EQ(*cluster_.MasterOf("in1"), 1);
  EXPECT_GE(agent.metrics().CounterValue("ofc.cache_agent.objects_migrated"), 2u);
  EXPECT_GE(agent.metrics().CounterValue("ofc.cache_agent.scale_downs_migration"), 1u);
}

TEST_F(CacheAgentTest, SweepEvictsColdObjects) {
  CacheAgentOptions options = MakeAgentOptions();
  CacheAgent agent(&loop_, &cluster_, options);
  agent.Start();
  agent.OnSandboxMemoryChange(Ev(0, 0, MiB(64)));
  WriteObject(0, "cold", MiB(2));
  WriteObject(0, "hot", MiB(2));
  // Make "hot" genuinely hot: >= 5 accesses.
  for (int i = 0; i < 6; ++i) {
    cluster_.Read(0, "hot", [](Result<rc::ReadHit>) {});
  }
  // Age both past one sweep period, then sweep.
  RunFor(Seconds(301));
  agent.SweepOnce();
  EXPECT_FALSE(cluster_.Contains("cold"));  // n_access < 5.
  EXPECT_TRUE(cluster_.Contains("hot"));
  EXPECT_GE(agent.metrics().CounterValue("ofc.cache_agent.objects_swept"), 1u);
}

TEST_F(CacheAgentTest, SweepEvictsIdleObjectsEvenIfOnceHot) {
  CacheAgent agent(&loop_, &cluster_, MakeAgentOptions());
  agent.Start();
  agent.OnSandboxMemoryChange(Ev(0, 0, MiB(64)));
  WriteObject(0, "idle", MiB(2));
  for (int i = 0; i < 8; ++i) {
    cluster_.Read(0, "idle", [](Result<rc::ReadHit>) {});
  }
  RunFor(Minutes(31));  // Past the 30 min idle bound.
  agent.SweepOnce();
  EXPECT_FALSE(cluster_.Contains("idle"));
}

TEST_F(CacheAgentTest, ReleaseForSandboxFreesCapacity) {
  CacheAgent agent(&loop_, &cluster_, MakeAgentOptions());
  agent.Start();
  agent.OnSandboxMemoryChange(Ev(0, 0, MiB(64)));
  const Bytes before = cluster_.Capacity(0);
  EXPECT_TRUE(agent.ReleaseForSandbox(0, MiB(200)));
  EXPECT_EQ(cluster_.Capacity(0), before - MiB(200));
}

TEST_F(CacheAgentTest, SlackAdjustsWithChurn) {
  CacheAgentOptions options = MakeAgentOptions();
  CacheAgent agent(&loop_, &cluster_, options);
  agent.Start();
  // Heavy churn: repeated large sandbox resizes.
  for (int i = 0; i < 10; ++i) {
    agent.OnSandboxMemoryChange(Ev(0, 0, MiB(400)));
    agent.OnSandboxMemoryChange(Ev(0, MiB(400), 0));
    RunFor(Seconds(30));
  }
  RunFor(Seconds(130));  // Cover a slack-adjust tick.
  EXPECT_GT(agent.slack(0), options.initial_slack);
}

// ---- Proxy --------------------------------------------------------------------------

class ProxyTest : public ::testing::Test {
 protected:
  ProxyTest()
      : rsds_(&loop_, sim::LatencyProfiles::SwiftRequest(), Rng(1), "swift",
              sim::LatencyProfiles::SwiftControl()),
        cluster_(&loop_, 2, MakeClusterOptions(), Rng(2)),
        proxy_(&loop_, &cluster_, &rsds_, ProxyOptions{}) {}

  static rc::ClusterOptions MakeClusterOptions() {
    rc::ClusterOptions options;
    options.default_capacity = GiB(1);
    options.replication_factor = 1;
    return options;
  }

  faas::InvocationContext Ctx(bool should_cache = true, std::uint64_t pipeline = 0,
                              bool final_stage = true) {
    faas::InvocationContext ctx;
    ctx.worker = 0;
    ctx.function = "f";
    ctx.should_cache = should_cache;
    ctx.pipeline_id = pipeline;
    ctx.final_stage = final_stage;
    return ctx;
  }

  Result<Bytes> ReadSync(const faas::InvocationContext& ctx, const std::string& key) {
    Result<Bytes> out = InternalError("unset");
    proxy_.Read(ctx, key, [&](Result<Bytes> r) { out = std::move(r); });
    loop_.Run();
    return out;
  }

  Status WriteSync(const faas::InvocationContext& ctx, const std::string& key, Bytes size) {
    Status out = InternalError("unset");
    workloads::MediaDescriptor media;
    media.kind = workloads::InputKind::kImage;
    media.byte_size = size;
    proxy_.Write(ctx, key, size, media, [&](Status s) { out = s; });
    loop_.Run();
    return out;
  }

  sim::EventLoop loop_;
  store::ObjectStore rsds_;
  rc::Cluster cluster_;
  Proxy proxy_;
};

TEST_F(ProxyTest, MissReadsRsdsAndAdmits) {
  rsds_.Seed("obj", MiB(1), {});
  const auto size = ReadSync(Ctx(), "obj");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, MiB(1));
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.cache_misses"), 1u);
  EXPECT_TRUE(cluster_.Contains("obj"));  // Admitted off the critical path.
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.admissions"), 1u);
  // Second read hits.
  const auto again = ReadSync(Ctx(), "obj");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.cache_hits"), 1u);
}

TEST_F(ProxyTest, NoAdmissionWhenNotBeneficial) {
  rsds_.Seed("obj", MiB(1), {});
  ASSERT_TRUE(ReadSync(Ctx(/*should_cache=*/false), "obj").ok());
  EXPECT_FALSE(cluster_.Contains("obj"));
}

TEST_F(ProxyTest, NoAdmissionAboveSizeCap) {
  rsds_.Seed("big", MiB(11), {});
  ASSERT_TRUE(ReadSync(Ctx(), "big").ok());
  EXPECT_FALSE(cluster_.Contains("big"));
}

TEST_F(ProxyTest, HitIsMuchFasterThanMiss) {
  rsds_.Seed("obj", MiB(2), {});
  const SimTime t0 = loop_.now();
  ASSERT_TRUE(ReadSync(Ctx(), "obj").ok());
  const SimDuration miss_time = loop_.now() - t0;
  const SimTime t1 = loop_.now();
  ASSERT_TRUE(ReadSync(Ctx(), "obj").ok());
  const SimDuration hit_time = loop_.now() - t1;
  EXPECT_LT(hit_time * 5, miss_time);
}

TEST_F(ProxyTest, CachedWriteCreatesShadowThenPersists) {
  // Drive the write only until its ack so the in-between state is observable
  // (the persistor has not yet run).
  workloads::MediaDescriptor media;
  media.kind = workloads::InputKind::kImage;
  media.byte_size = MiB(1);
  bool acked = false;
  proxy_.Write(Ctx(), "out", MiB(1), media, [&](Status s) {
    ASSERT_TRUE(s.ok());
    acked = true;
  });
  while (!acked) {
    ASSERT_TRUE(loop_.Step());
  }
  // Immediately after the ack: payload cached + dirty, RSDS holds a shadow.
  const auto cached = cluster_.Inspect("out");
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->dirty);
  const auto meta = rsds_.Stat("out");
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->IsShadow());
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.shadow_writes"), 1u);
  // Run the persistor: payload lands in the RSDS, final output leaves cache.
  loop_.Run();
  EXPECT_FALSE(rsds_.Stat("out")->IsShadow());
  EXPECT_EQ(rsds_.Stat("out")->size, MiB(1));
  EXPECT_FALSE(cluster_.Contains("out"));  // §6.3: dropped after write-back.
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.persistor_runs"), 1u);
}

TEST_F(ProxyTest, CachedWriteAckFasterThanDirectWrite) {
  // Write-back acks after shadow (control-cost) + cache write, not after the
  // full payload upload.
  const SimTime t0 = loop_.now();
  ASSERT_TRUE(WriteSync(Ctx(/*should_cache=*/true), "cached_out", MiB(5)).ok());
  // Note: WriteSync runs the loop fully, so measure with a manual sequence.
  sim::EventLoop loop2;
  store::ObjectStore rsds2(&loop2, sim::LatencyProfiles::SwiftRequest(), Rng(3), "swift2",
                           sim::LatencyProfiles::SwiftControl());
  rc::Cluster cluster2(&loop2, 2, MakeClusterOptions(), Rng(4));
  Proxy proxy2(&loop2, &cluster2, &rsds2, ProxyOptions{});
  workloads::MediaDescriptor media;
  media.byte_size = MiB(5);
  SimTime cached_ack = 0;
  proxy2.Write(Ctx(true), "w1", MiB(5), media, [&](Status) { cached_ack = loop2.now(); });
  loop2.Run();
  SimTime direct_ack_start = loop2.now();
  SimTime direct_ack = 0;
  proxy2.Write(Ctx(false), "w2", MiB(5), media, [&](Status) { direct_ack = loop2.now(); });
  loop2.Run();
  EXPECT_LT(cached_ack, direct_ack - direct_ack_start);
  (void)t0;
}

TEST_F(ProxyTest, PipelineIntermediatesNeverTouchRsds) {
  ASSERT_TRUE(WriteSync(Ctx(true, /*pipeline=*/7, /*final_stage=*/false), "mid", MiB(1)).ok());
  EXPECT_TRUE(cluster_.Contains("mid"));
  EXPECT_FALSE(rsds_.Exists("mid"));
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.intermediates_cached"), 1u);
  // End of pipeline: intermediates dropped (§6.3).
  proxy_.OnPipelineComplete(7);
  EXPECT_FALSE(cluster_.Contains("mid"));
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.intermediates_dropped"), 1u);
}

TEST_F(ProxyTest, WritebackPushesDirtyObject) {
  ASSERT_TRUE(WriteSync(Ctx(true, 9, false), "mid", MiB(2)).ok());  // Dirty? No: intermediate.
  // Make a dirty final output without running its persistor: use relaxed mode.
  sim::EventLoop loop2;
  store::ObjectStore rsds2(&loop2, sim::LatencyProfiles::SwiftRequest(), Rng(5), "swift2");
  rc::Cluster cluster2(&loop2, 2, MakeClusterOptions(), Rng(6));
  ProxyOptions relaxed;
  relaxed.transparent_consistency = false;
  Proxy proxy2(&loop2, &cluster2, &rsds2, relaxed);
  workloads::MediaDescriptor media;
  media.byte_size = MiB(2);
  Status write_status = InternalError("unset");
  proxy2.Write(Ctx(true), "lazy", MiB(2), media, [&](Status s) { write_status = s; });
  loop2.Run();
  ASSERT_TRUE(write_status.ok());
  EXPECT_FALSE(rsds2.Exists("lazy"));  // Relaxed: no shadow, no persistor.
  ASSERT_TRUE(cluster2.Inspect("lazy")->dirty);

  Status wb_status = InternalError("unset");
  proxy2.Writeback("lazy", [&](Status s) { wb_status = s; });
  loop2.Run();
  EXPECT_TRUE(wb_status.ok());
  EXPECT_TRUE(rsds2.Exists("lazy"));
  EXPECT_FALSE(cluster2.Inspect("lazy")->dirty);
}

TEST_F(ProxyTest, ExternalReadBlocksUntilPersisted) {
  proxy_.InstallWebhooks();
  ASSERT_TRUE(WriteSync(Ctx(), "out", MiB(1)).ok());
  // At this instant the RSDS holds only the shadow... but WriteSync ran the
  // loop to completion, so re-create the situation manually: write again and
  // issue the external read before running the persistor.
  workloads::MediaDescriptor media;
  media.byte_size = MiB(1);
  bool write_acked = false;
  proxy_.Write(Ctx(), "out2", MiB(1), media, [&](Status) { write_acked = true; });
  // Run only until the write acks (shadow + cache write done).
  while (!write_acked) {
    ASSERT_TRUE(loop_.Step());
  }
  ASSERT_TRUE(rsds_.Stat("out2")->IsShadow());
  Result<store::ObjectMetadata> external = InternalError("unset");
  rsds_.ExternalRead("out2", [&](Result<store::ObjectMetadata> m) { external = std::move(m); });
  loop_.Run();
  ASSERT_TRUE(external.ok());
  EXPECT_FALSE(external->IsShadow());  // The webhook boosted the persistor.
  EXPECT_EQ(external->size, MiB(1));
  EXPECT_GE(proxy_.metrics().CounterValue("ofc.proxy.external_read_boosts"), 1u);
}

// ---- CacheAgent: write-backs ---------------------------------------------------

TEST_F(CacheAgentTest, WritebackDeduplicatesPendingKeys) {
  CacheAgent agent(&loop_, &cluster_, MakeAgentOptions());
  int calls = 0;
  agent.set_writeback([&](const std::string&, CacheAgent::WritebackDone done) {
    ++calls;
    loop_.ScheduleAfter(Seconds(10), [done = std::move(done)]() mutable { done(OkStatus()); });
  });
  agent.Start();
  agent.OnSandboxMemoryChange(Ev(0, 0, MiB(64)));
  WriteObject(0, "dup", MiB(2), rc::ObjectClass::kFinalOutput, /*dirty=*/true);
  RunFor(Seconds(301));  // The periodic sweep at t=300 starts the write-back.
  agent.SweepOnce();
  agent.SweepOnce();  // Same dirty object re-encountered while in flight.
  RunFor(Seconds(1));
  EXPECT_EQ(calls, 1);
}

TEST_F(CacheAgentTest, ShrinkRetryLaunchesOneWritebackPerKey) {
  CacheAgent agent(&loop_, &cluster_, MakeAgentOptions());
  int calls = 0;
  agent.set_writeback([&](const std::string&, CacheAgent::WritebackDone done) {
    ++calls;
    loop_.ScheduleAfter(Seconds(10), [done = std::move(done)]() mutable { done(OkStatus()); });
  });
  agent.Start();
  agent.OnSandboxMemoryChange(Ev(0, 0, MiB(64)));  // Cache capacity 860 MiB.
  WriteObject(0, "out0", MiB(300), rc::ObjectClass::kFinalOutput, /*dirty=*/true);
  WriteObject(0, "out1", MiB(300), rc::ObjectClass::kFinalOutput, /*dirty=*/true);
  // Sandbox grows to 704 MiB: target 220 MiB, but both outputs are dirty, so
  // the shrink launches their write-backs and retries every 50 ms until they
  // land. Twenty retries meet both write-backs still in flight.
  agent.OnSandboxMemoryChange(Ev(0, MiB(64), MiB(704)));
  RunFor(Seconds(1));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(agent.metrics().CounterValue("ofc.cache_agent.writebacks_triggered"), 2u);
  RunFor(Seconds(10));  // Both land; the next retry reaches the target.
  EXPECT_FALSE(cluster_.Contains("out0"));
  EXPECT_FALSE(cluster_.Contains("out1"));
  EXPECT_EQ(cluster_.Capacity(0), MiB(220));
}

TEST_F(CacheAgentTest, FailedWritebackIsLaunchedAgain) {
  CacheAgent agent(&loop_, &cluster_, MakeAgentOptions());
  int calls = 0;
  agent.set_writeback([&](const std::string&, CacheAgent::WritebackDone done) {
    ++calls;
    if (calls == 1) {
      loop_.ScheduleAfter(Millis(10), [done = std::move(done)]() mutable {
        done(UnavailableError("rsds down"));
      });
      return;
    }
    loop_.ScheduleAfter(Seconds(1), [done = std::move(done)]() mutable { done(OkStatus()); });
  });
  agent.Start();
  agent.OnSandboxMemoryChange(Ev(0, 0, MiB(64)));
  WriteObject(0, "out", MiB(300), rc::ObjectClass::kFinalOutput, /*dirty=*/true);
  // Target 220 MiB. The first write-back fails before the first 50 ms retry,
  // which launches it again; later retries find that one in flight.
  agent.OnSandboxMemoryChange(Ev(0, MiB(64), MiB(704)));
  RunFor(Seconds(2));
  EXPECT_EQ(calls, 2);
  EXPECT_FALSE(cluster_.Contains("out"));
  EXPECT_EQ(cluster_.Capacity(0), MiB(220));
}

// ---- Proxy circuit breaker ----------------------------------------------------

class BreakerTest : public ::testing::Test {
 protected:
  BreakerTest()
      : rsds_(&loop_, sim::LatencyProfiles::SwiftRequest(), Rng(1), "swift",
              sim::LatencyProfiles::SwiftControl()),
        cluster_(&loop_, 2, MakeClusterOptions(), Rng(2)) {}

  static rc::ClusterOptions MakeClusterOptions() {
    rc::ClusterOptions options;
    options.default_capacity = GiB(1);
    options.replication_factor = 1;
    return options;
  }

  void MakeProxy(int threshold, SimDuration open = Seconds(5), int probes = 2,
                 SimDuration slo = 0) {
    ProxyOptions options;
    options.breaker_failure_threshold = threshold;
    options.breaker_open_duration = open;
    options.breaker_half_open_probes = probes;
    options.breaker_latency_slo = slo;
    proxy_ = std::make_unique<Proxy>(&loop_, &cluster_, &rsds_, options);
  }

  faas::InvocationContext Ctx() {
    faas::InvocationContext ctx;
    ctx.worker = 0;
    ctx.function = "f";
    ctx.should_cache = true;
    return ctx;
  }

  Result<Bytes> ReadSync(const std::string& key) {
    Result<Bytes> out = InternalError("unset");
    proxy_->Read(Ctx(), key, [&](Result<Bytes> r) { out = std::move(r); });
    loop_.Run();
    return out;
  }

  Status WriteSync(const std::string& key, Bytes size) {
    Status out = InternalError("unset");
    workloads::MediaDescriptor media;
    media.kind = workloads::InputKind::kImage;
    media.byte_size = size;
    proxy_->Write(Ctx(), key, size, media, [&](Status s) { out = s; });
    loop_.Run();
    return out;
  }

  sim::EventLoop loop_;
  store::ObjectStore rsds_;
  rc::Cluster cluster_;
  std::unique_ptr<Proxy> proxy_;
};

TEST_F(BreakerTest, TripsAfterConsecutiveCacheFailuresAndBypasses) {
  MakeProxy(/*threshold=*/3);
  for (int i = 0; i < 4; ++i) {
    rsds_.Seed("k" + std::to_string(i), MiB(1), {});
  }
  proxy_->InjectCacheFaultUntil(loop_.now() + Minutes(10));
  // Reads keep succeeding throughout — the RSDS serves every miss/failure.
  ASSERT_TRUE(ReadSync("k0").ok());
  ASSERT_TRUE(ReadSync("k1").ok());
  EXPECT_EQ(proxy_->breaker_state(), Proxy::BreakerState::kClosed);
  ASSERT_TRUE(ReadSync("k2").ok());  // Third consecutive failure: trip.
  EXPECT_EQ(proxy_->breaker_state(), Proxy::BreakerState::kOpen);
  EXPECT_EQ(proxy_->metrics().CounterValue("ofc.breaker.opens"), 1u);
  ASSERT_TRUE(ReadSync("k3").ok());  // Open: served via bypass, not the cache.
  EXPECT_EQ(proxy_->metrics().CounterValue("ofc.breaker.bypassed_reads"), 1u);
}

TEST_F(BreakerTest, HalfOpenProbesCloseAfterSuccesses) {
  MakeProxy(/*threshold=*/2, /*open=*/Seconds(5), /*probes=*/2);
  for (int i = 0; i < 4; ++i) {
    rsds_.Seed("k" + std::to_string(i), MiB(1), {});
  }
  proxy_->InjectCacheFaultUntil(loop_.now() + Seconds(1));  // Heals before open ends.
  ASSERT_TRUE(ReadSync("k0").ok());
  ASSERT_TRUE(ReadSync("k1").ok());
  ASSERT_EQ(proxy_->breaker_state(), Proxy::BreakerState::kOpen);
  loop_.RunUntil(loop_.now() + Seconds(6));  // Past the open window.
  ASSERT_TRUE(ReadSync("k2").ok());  // First probe: healthy miss.
  EXPECT_EQ(proxy_->breaker_state(), Proxy::BreakerState::kHalfOpen);
  ASSERT_TRUE(ReadSync("k3").ok());  // Second probe success: close.
  EXPECT_EQ(proxy_->breaker_state(), Proxy::BreakerState::kClosed);
  EXPECT_EQ(proxy_->metrics().CounterValue("ofc.breaker.closes"), 1u);
  EXPECT_EQ(proxy_->metrics().CounterValue("ofc.breaker.probes"), 2u);
  EXPECT_EQ(proxy_->metrics().CounterValue("ofc.breaker.probe_failures"), 0u);
}

TEST_F(BreakerTest, FailedProbeReopensImmediately) {
  MakeProxy(/*threshold=*/2, /*open=*/Seconds(5), /*probes=*/2);
  for (int i = 0; i < 3; ++i) {
    rsds_.Seed("k" + std::to_string(i), MiB(1), {});
  }
  proxy_->InjectCacheFaultUntil(loop_.now() + Seconds(60));  // Outlives the window.
  ASSERT_TRUE(ReadSync("k0").ok());
  ASSERT_TRUE(ReadSync("k1").ok());
  ASSERT_EQ(proxy_->breaker_state(), Proxy::BreakerState::kOpen);
  loop_.RunUntil(loop_.now() + Seconds(6));
  ASSERT_TRUE(ReadSync("k2").ok());  // Probe hits the still-sick cache path.
  EXPECT_EQ(proxy_->breaker_state(), Proxy::BreakerState::kOpen);
  EXPECT_EQ(proxy_->metrics().CounterValue("ofc.breaker.opens"), 2u);
  EXPECT_EQ(proxy_->metrics().CounterValue("ofc.breaker.probe_failures"), 1u);
  EXPECT_EQ(proxy_->metrics().CounterValue("ofc.breaker.closes"), 0u);
}

TEST_F(BreakerTest, LatencySloBreachCountsAsFailure) {
  // A 1 us SLO that every genuine cache hit breaches: a crawling cache trips
  // the breaker even though it serves data.
  MakeProxy(/*threshold=*/2, Seconds(5), 2, /*slo=*/Micros(1));
  rsds_.Seed("obj", MiB(1), {});
  ASSERT_TRUE(ReadSync("obj").ok());  // Miss (healthy) + admission.
  ASSERT_TRUE(cluster_.Contains("obj"));
  ASSERT_TRUE(ReadSync("obj").ok());  // Hit, slower than 1 us: strike one.
  EXPECT_EQ(proxy_->breaker_state(), Proxy::BreakerState::kClosed);
  ASSERT_TRUE(ReadSync("obj").ok());  // Strike two: trip.
  EXPECT_EQ(proxy_->breaker_state(), Proxy::BreakerState::kOpen);
  EXPECT_EQ(proxy_->metrics().CounterValue("ofc.breaker.opens"), 1u);
}

TEST_F(BreakerTest, OpenBreakerWritesGoDirectToRsds) {
  MakeProxy(/*threshold=*/1);
  rsds_.Seed("k0", MiB(1), {});
  proxy_->InjectCacheFaultUntil(loop_.now() + Minutes(10));
  ASSERT_TRUE(ReadSync("k0").ok());  // One failure trips a threshold of 1.
  ASSERT_EQ(proxy_->breaker_state(), Proxy::BreakerState::kOpen);
  ASSERT_TRUE(WriteSync("out", MiB(1)).ok());
  EXPECT_EQ(proxy_->metrics().CounterValue("ofc.breaker.bypassed_writes"), 1u);
  EXPECT_TRUE(rsds_.Exists("out"));
  EXPECT_FALSE(cluster_.Contains("out"));  // Nothing touched the sick cache.
}

TEST_F(BreakerTest, CapacityRejectionIsNotACacheFailure) {
  // kResourceExhausted from a full cache is normal back-pressure, not
  // sickness: it must not open the breaker.
  MakeProxy(/*threshold=*/1);
  sim::EventLoop loop2;
  store::ObjectStore rsds2(&loop2, sim::LatencyProfiles::SwiftRequest(), Rng(3), "swift2",
                           sim::LatencyProfiles::SwiftControl());
  rc::ClusterOptions tiny = MakeClusterOptions();
  tiny.default_capacity = KiB(1);  // Every cached write is rejected for space.
  rc::Cluster cluster2(&loop2, 2, tiny, Rng(4));
  ProxyOptions options;
  options.breaker_failure_threshold = 1;
  Proxy proxy2(&loop2, &cluster2, &rsds2, options);
  workloads::MediaDescriptor media;
  media.kind = workloads::InputKind::kImage;
  media.byte_size = MiB(1);
  for (int i = 0; i < 3; ++i) {
    Status status = InternalError("unset");
    proxy2.Write(Ctx(), "w" + std::to_string(i), MiB(1), media,
                 [&](Status s) { status = s; });
    loop2.Run();
    ASSERT_TRUE(status.ok());  // Falls back to the RSDS transparently.
  }
  EXPECT_EQ(proxy2.breaker_state(), Proxy::BreakerState::kClosed);
  EXPECT_EQ(proxy2.metrics().CounterValue("ofc.breaker.opens"), 0u);
}

TEST_F(ProxyTest, ExternalWriteInvalidatesCache) {
  proxy_.InstallWebhooks();
  rsds_.Seed("obj", MiB(1), {});
  ASSERT_TRUE(ReadSync(Ctx(), "obj").ok());
  ASSERT_TRUE(cluster_.Contains("obj"));
  Status status = InternalError("unset");
  rsds_.ExternalWrite("obj", MiB(2), [&](Status s) { status = s; });
  loop_.Run();
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(cluster_.Contains("obj"));
  EXPECT_EQ(proxy_.metrics().CounterValue("ofc.proxy.external_write_invalidations"), 1u);
}

// The store slice walks the keyspace in budget-sized steps and wraps on the
// tick that scans the last key: a rot after the second of two slices over
// four keys is found by the very next tick, from the top of the keyspace.
TEST(ScrubberTest, StoreSliceWrapsOnTheTickThatScansTheLastKey) {
  sim::EventLoop loop;
  rc::Cluster cluster(&loop, 2, rc::ClusterOptions{}, Rng(1));
  store::ObjectStore rsds(&loop, sim::LatencyModel{Millis(10), 100e6, 0.0}, Rng(1), "s");
  for (const char* key : {"c/a", "c/b", "c/c", "c/d"}) {
    rsds.Seed(key, KiB(1), {});
  }
  obs::MetricsRegistry metrics;
  ScrubberOptions options;
  options.interval = Seconds(10);
  options.objects_per_cycle = 2;
  options.metrics = &metrics;
  Scrubber scrubber(&loop, &cluster, &rsds, options);
  scrubber.Start();
  loop.RunUntil(Seconds(25));  // Two ticks: c/a c/b, then c/c c/d.
  EXPECT_EQ(metrics.CounterValue("ofc.scrub.objects_scanned"), 4u);
  ASSERT_EQ(rsds.Rot(4), 4);
  loop.RunUntil(Seconds(35));  // Third tick: back at c/a c/b.
  EXPECT_EQ(metrics.CounterValue("ofc.scrub.objects_scanned"), 6u);
  EXPECT_EQ(metrics.CounterValue("ofc.scrub.repairs"), 2u);
  loop.RunUntil(Seconds(45));
  EXPECT_EQ(metrics.CounterValue("ofc.scrub.repairs"), 4u);
  scrubber.Stop();
}

}  // namespace
}  // namespace ofc::core
