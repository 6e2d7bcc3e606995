// Unit tests for the FAASLOAD harness: environment factory, tenant setup,
// dataset preparation, booking profiles, arrival processes, and the runner's
// contract (the final partial scrape, and requests it refuses up front).
#include <string>

#include <gtest/gtest.h>

#include "src/faasload/environment.h"
#include "src/faasload/injector.h"
#include "src/faasload/runner.h"

namespace ofc::faasload {
namespace {

EnvironmentOptions SmallEnv(std::uint64_t seed) {
  EnvironmentOptions options;
  options.platform.num_workers = 2;
  options.seed = seed;
  return options;
}

TEST(EnvironmentTest, ModeNames) {
  EXPECT_EQ(ModeName(Mode::kOwkSwift), "OWK-Swift");
  EXPECT_EQ(ModeName(Mode::kOwkRedis), "OWK-Redis");
  EXPECT_EQ(ModeName(Mode::kOfc), "OFC");
}

TEST(EnvironmentTest, RedisModeUsesFasterStore) {
  Environment swift(Mode::kOwkSwift, SmallEnv(1));
  Environment redis(Mode::kOwkRedis, SmallEnv(1));
  swift.rsds().Seed("x", MiB(1), {});
  redis.rsds().Seed("x", MiB(1), {});
  SimTime swift_done = 0;
  SimTime redis_done = 0;
  swift.rsds().Get("x", [&](Result<store::ObjectMetadata>) { swift_done = swift.loop().now(); });
  redis.rsds().Get("x", [&](Result<store::ObjectMetadata>) { redis_done = redis.loop().now(); });
  swift.loop().Run();
  redis.loop().Run();
  EXPECT_LT(redis_done, swift_done);
}

TEST(EnvironmentTest, ProfileOverrideApplies) {
  EnvironmentOptions options = SmallEnv(2);
  options.rsds_profile = store::StoreProfile::S3();
  Environment env(Mode::kOwkSwift, options);
  env.rsds().Seed("x", KiB(1), {});
  SimTime done = 0;
  env.rsds().Get("x", [&](Result<store::ObjectMetadata>) { done = env.loop().now(); });
  env.loop().Run();
  // S3 reads carry a ~28 ms base latency vs Swift's ~18 ms.
  EXPECT_GT(done, Millis(24));
}

TEST(InjectorTest, AddTenantRejectsUnknownFunction) {
  Environment env(Mode::kOwkSwift, SmallEnv(3));
  LoadInjector injector(&env, TenantProfile::kNormal, 4);
  TenantSpec spec;
  spec.name = "t";
  spec.function = "no_such_function";
  EXPECT_EQ(injector.AddTenant(spec).code(), StatusCode::kNotFound);
  spec.is_pipeline = true;
  spec.function = "no_such_pipeline";
  EXPECT_EQ(injector.AddTenant(spec).code(), StatusCode::kNotFound);
}

TEST(InjectorTest, DatasetIsSeededInRsds) {
  Environment env(Mode::kOwkSwift, SmallEnv(5));
  LoadInjector injector(&env, TenantProfile::kNormal, 6);
  TenantSpec spec;
  spec.name = "alice";
  spec.function = "wand_blur";
  spec.dataset_objects = 5;
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  EXPECT_EQ(env.rsds().NumObjects(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(env.rsds().Exists("data/alice/obj" + std::to_string(i)));
  }
  EXPECT_NE(env.platform().GetFunction("wand_blur"), nullptr);
}

TEST(InjectorTest, ObjectSizeTargetIsRespected) {
  Environment env(Mode::kOwkSwift, SmallEnv(7));
  LoadInjector injector(&env, TenantProfile::kNormal, 8);
  TenantSpec spec;
  spec.name = "bob";
  spec.function = "wand_blur";
  spec.dataset_objects = 8;
  spec.object_size = KiB(256);
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  for (int i = 0; i < 8; ++i) {
    const auto meta = env.rsds().Stat("data/bob/obj" + std::to_string(i));
    ASSERT_TRUE(meta.ok());
    EXPECT_GT(meta->size, KiB(128));
    EXPECT_LT(meta->size, KiB(512));
  }
}

TEST(InjectorTest, PipelineTenantSeedsChunksAndRegistersStages) {
  Environment env(Mode::kOwkSwift, SmallEnv(9));
  LoadInjector injector(&env, TenantProfile::kNormal, 10);
  TenantSpec spec;
  spec.name = "carol";
  spec.function = "map_reduce";
  spec.is_pipeline = true;
  spec.pipeline_input_size = MiB(5);
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  EXPECT_EQ(env.rsds().NumObjects(), 10u);  // 5 MiB / 512 KiB chunks.
  EXPECT_NE(env.platform().GetFunction("mr_map"), nullptr);
  EXPECT_NE(env.platform().GetFunction("mr_reduce"), nullptr);
}

TEST(InjectorTest, FanInStagesGetLargerBookings) {
  // The reduce stage aggregates every map output, so a profile-aware booking
  // must exceed the map stage's for a large enough input.
  Environment env(Mode::kOwkSwift, SmallEnv(11));
  LoadInjector injector(&env, TenantProfile::kAdvanced, 12);
  TenantSpec spec;
  spec.name = "dave";
  spec.function = "map_reduce";
  spec.is_pipeline = true;
  spec.pipeline_input_size = MiB(30);
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  const Bytes map_booked = env.platform().GetFunction("mr_map")->booked_memory;
  const Bytes reduce_booked = env.platform().GetFunction("mr_reduce")->booked_memory;
  EXPECT_GT(reduce_booked, map_booked / 2);
  EXPECT_GE(map_booked, MiB(64));  // Clamped up to OWK's minimum.
}

TEST(InjectorTest, NaiveProfileBooksPlatformMax) {
  Environment env(Mode::kOwkSwift, SmallEnv(13));
  LoadInjector injector(&env, TenantProfile::kNaive, 14);
  TenantSpec spec;
  spec.name = "erin";
  spec.function = "wand_sepia";
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  EXPECT_EQ(env.platform().GetFunction("wand_sepia")->booked_memory,
            env.platform().options().max_sandbox_memory);
}

TEST(InjectorTest, PeriodicArrivalsAreRegular) {
  Environment env(Mode::kOwkSwift, SmallEnv(15));
  LoadInjector injector(&env, TenantProfile::kNormal, 16);
  TenantSpec spec;
  spec.name = "frank";
  spec.function = "wand_thumbnail";
  spec.mean_interval_s = 30.0;
  spec.arrivals = ArrivalPattern::kPeriodic;
  spec.dataset_objects = 1;
  spec.object_size = KiB(64);
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  injector.Run(Minutes(5));
  // 300 s / 30 s = 10 invocations, minus edge effects.
  const auto& result = injector.results()[0];
  EXPECT_GE(result.invocations.size(), 9u);
  EXPECT_LE(result.invocations.size(), 10u);
}

TEST(InjectorTest, ExponentialArrivalCountIsPlausible) {
  Environment env(Mode::kOwkSwift, SmallEnv(17));
  LoadInjector injector(&env, TenantProfile::kNormal, 18);
  TenantSpec spec;
  spec.name = "grace";
  spec.function = "wand_thumbnail";
  spec.mean_interval_s = 10.0;
  spec.dataset_objects = 1;
  spec.object_size = KiB(64);
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  injector.Run(Minutes(30));
  // Poisson with mean 180 arrivals: within +-40 % is a safe deterministic-seed
  // bound.
  const auto& result = injector.results()[0];
  EXPECT_GE(result.invocations.size(), 108u);
  EXPECT_LE(result.invocations.size(), 252u);
}

TEST(InjectorTest, BurstyArrivalsComeInTrains) {
  Environment env(Mode::kOwkSwift, SmallEnv(19));
  LoadInjector injector(&env, TenantProfile::kNormal, 20);
  TenantSpec spec;
  spec.name = "heidi";
  spec.function = "wand_thumbnail";
  spec.arrivals = ArrivalPattern::kBursty;
  spec.mean_interval_s = 120.0;
  spec.burst_size = 6;
  spec.burst_spacing_s = 1.0;
  spec.dataset_objects = 1;
  spec.object_size = KiB(64);
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  injector.Run(Minutes(30));
  const auto& result = injector.results()[0];
  // Roughly 15 bursts x 6 invocations.
  EXPECT_GE(result.invocations.size(), 30u);
  // Bursts mean multiples of burst_size cluster in time: verify the total is
  // consistent with whole trains (within edge-of-horizon truncation).
  EXPECT_LE(result.invocations.size() % 6, 5u);
}

TEST(TenantResultTest, AggregationHelpers) {
  TenantResult result;
  result.name = "t";
  faas::InvocationRecord a;
  a.total = Seconds(2);
  faas::InvocationRecord b;
  b.total = Seconds(3);
  b.failed = true;
  result.invocations = {a, b};
  faas::PipelineRecord p;
  p.total = Seconds(5);
  result.pipelines = {p};
  EXPECT_EQ(result.TotalExecutionTime(), Seconds(10));
  EXPECT_EQ(result.FailureCount(), 1u);
}

TEST(RunnerTest, FinalPartialScrapeClosesAtTheFinalSimulatedTime) {
  // A 7 s scrape period does not divide the run's end (the one-minute horizon
  // plus LoadInjector::Run's 10-minute drain step, 660 s): the last window is
  // the partial tail from the last full tick to the end, and the SLO health is
  // evaluated at the end too.
  EnvironmentOptions options = SmallEnv(21);
  options.scrape_interval = Seconds(7);
  std::string error;
  ASSERT_TRUE(obs::ParseSloSpecs("shed=rate:ofc.overload.shed/ofc.platform.invocations:0.01",
                                 &options.slos, &error))
      << error;
  Runner run(Mode::kOwkSwift, options, TenantProfile::kNormal, 22);
  TenantSpec spec;
  spec.name = "ivan";
  spec.function = "wand_thumbnail";
  spec.mean_interval_s = 10.0;
  spec.dataset_objects = 1;
  spec.object_size = KiB(64);
  ASSERT_TRUE(run.load().AddTenant(spec).ok());
  ASSERT_TRUE(run.Run(Minutes(1)).ok());

  const RunArtifacts& artifacts = run.artifacts();
  ASSERT_EQ(artifacts.final_time, Seconds(660));
  ASSERT_NE(run.timeline(), nullptr);
  ASSERT_FALSE(run.timeline()->windows().empty());
  const obs::TimelineWindow& last = run.timeline()->windows().back();
  EXPECT_EQ(last.end, artifacts.final_time);
  EXPECT_EQ(last.start, Seconds(658));  // The 94th tick.
  EXPECT_EQ(artifacts.health_json.rfind("{\"sim_time_us\": 660000000,", 0), 0u)
      << artifacts.health_json.substr(0, 60);
  EXPECT_GT(artifacts.invocations_completed, 0u);
  EXPECT_EQ(artifacts.invocations_fired, artifacts.invocations_completed);
}

TEST(RunnerTest, InvalidRequestsFailBeforeAnyEventRuns) {
  // Each request fails Arm() and Run() alike, naming its cause, and nothing
  // has been dispatched or fired.
  const auto expect_refused = [](Mode mode, const EnvironmentOptions& options,
                                 const std::string& cause) {
    SCOPED_TRACE(cause);
    Runner run(mode, options, TenantProfile::kNormal, 24);
    TenantSpec spec;
    spec.name = "judy";
    spec.function = "wand_thumbnail";
    ASSERT_TRUE(run.load().AddTenant(spec).ok());
    const Status armed = run.Arm();
    EXPECT_NE(armed.message().find(cause), std::string::npos) << armed.message();
    const Status ran = run.Run(Minutes(1));
    EXPECT_FALSE(ran.ok());
    EXPECT_EQ(ran.message(), armed.message());
    EXPECT_EQ(run.env().loop().total_dispatched(), 0u);
    EXPECT_EQ(run.load().invocations_fired(), 0u);
  };
  EnvironmentOptions options = SmallEnv(23);
  options.scrub = core::ScrubberOptions{};
  expect_refused(Mode::kOwkSwift, options, "the scrubber needs a cache cluster");
  options.scrub = core::ScrubberOptions{.interval = 0};
  expect_refused(Mode::kOfc, options, "scrub interval is below 1 us");
  options = SmallEnv(23);
  options.faults = fault::FaultPlan{{{Seconds(1), fault::FaultKind::kNodeCrash, 0, Seconds(1)}}};
  expect_refused(Mode::kOwkSwift, options, "fault plan rejected");
  options = SmallEnv(23);
  options.scrape_interval = -1;
  expect_refused(Mode::kOfc, options, "scrape interval is below 1 us");
  options.scrape_interval = 0;
  std::string error;
  ASSERT_TRUE(obs::ParseSloSpecs("warm=lat:ofc.platform.total_ms:p99:250", &options.slos,
                                 &error));
  expect_refused(Mode::kOfc, options, "SLO specs need a scrape interval");
}

}  // namespace
}  // namespace ofc::faasload
