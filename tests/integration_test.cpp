// Integration tests: the full OFC stack (platform + hooks + proxy + cache +
// RSDS) driven end-to-end, plus the FAASLOAD injector.
#include <gtest/gtest.h>

#include "src/faasload/environment.h"
#include "src/faasload/injector.h"

namespace ofc {
namespace {

using faasload::Environment;
using faasload::EnvironmentOptions;
using faasload::Mode;

EnvironmentOptions SmallEnv(std::uint64_t seed) {
  EnvironmentOptions options;
  options.platform.num_workers = 2;
  options.platform.worker_memory = GiB(8);
  options.seed = seed;
  return options;
}

// Drives the loop until `done` or the (simulated) deadline; OFC's periodic
// timers keep the loop non-empty forever, so Run() is not an option.
template <typename DoneFn>
void DriveUntil(Environment& env, SimDuration budget, DoneFn done) {
  const SimTime deadline = env.loop().now() + budget;
  while (!done() && env.loop().now() < deadline && env.loop().Step()) {
  }
}

faas::InvocationRecord InvokeSync(Environment& env, const std::string& function,
                                  const std::string& key,
                                  const workloads::MediaDescriptor& media,
                                  std::vector<double> args = {}) {
  faas::InvocationRecord record;
  bool done = false;
  env.platform().Invoke(function, {faas::InputObject{key, media}}, std::move(args),
                        [&](const faas::InvocationRecord& r) {
                          record = r;
                          done = true;
                        });
  DriveUntil(env, Minutes(10), [&] { return done; });
  EXPECT_TRUE(done);
  return record;
}

void RegisterAndPretrain(Environment& env, const std::string& function, Bytes booked) {
  faas::FunctionConfig config;
  config.spec = *workloads::FindFunction(function);
  config.booked_memory = booked;
  ASSERT_TRUE(env.platform().RegisterFunction(config).ok());
  if (env.ofc() != nullptr) {
    Rng rng(1234);
    env.ofc()->trainer().Pretrain(config.spec, 1000, rng);
  }
}

TEST(EnvironmentTest, ConstructsAllModes) {
  for (Mode mode : {Mode::kOwkSwift, Mode::kOwkRedis, Mode::kOfc}) {
    Environment env(mode, SmallEnv(1));
    EXPECT_EQ(env.mode(), mode);
    EXPECT_EQ(env.cluster() != nullptr, mode == Mode::kOfc);
    EXPECT_EQ(env.ofc() != nullptr, mode == Mode::kOfc);
  }
}

TEST(OfcEndToEndTest, SecondInvocationHitsCache) {
  Environment env(Mode::kOfc, SmallEnv(2));
  RegisterAndPretrain(env, "wand_sepia", GiB(2));
  workloads::MediaGenerator generator(Rng(3));
  const auto media = generator.GenerateWithByteSize(workloads::InputKind::kImage, KiB(256));
  env.rsds().Seed("img", media.byte_size, faas::MediaToTags(media));

  const auto first = InvokeSync(env, "wand_sepia", "img", media, {0.5});
  const auto second = InvokeSync(env, "wand_sepia", "img", media, {0.5});
  EXPECT_FALSE(first.failed);
  EXPECT_FALSE(second.failed);
  EXPECT_EQ(env.metrics().CounterValue("ofc.proxy.cache_hits"), 1u);
  EXPECT_LT(second.extract_time, first.extract_time / 5);
  EXPECT_LT(second.total, first.total);  // No cold start, cache hit.
}

TEST(OfcEndToEndTest, PredictionShrinksSandboxBelowBooked) {
  Environment env(Mode::kOfc, SmallEnv(4));
  RegisterAndPretrain(env, "wand_sepia", GiB(2));
  workloads::MediaGenerator generator(Rng(5));
  const auto media = generator.GenerateWithByteSize(workloads::InputKind::kImage, KiB(512));
  env.rsds().Seed("img", media.byte_size, faas::MediaToTags(media));
  const auto record = InvokeSync(env, "wand_sepia", "img", media, {0.5});
  EXPECT_FALSE(record.failed);
  EXPECT_LT(record.memory_limit, GiB(2) / 4);  // Far below the booking.
  EXPECT_GE(record.memory_limit, record.memory_used);
  EXPECT_GE(env.metrics().CounterValue("ofc.predictor.model_predictions"), 1u);
}

TEST(OfcEndToEndTest, HoardedCacheTracksSandboxes) {
  Environment env(Mode::kOfc, SmallEnv(6));
  RegisterAndPretrain(env, "wand_sepia", GiB(2));
  EXPECT_EQ(env.cluster()->TotalCapacity(), 0);  // No sandboxes yet.
  workloads::MediaGenerator generator(Rng(7));
  const auto media = generator.GenerateWithByteSize(workloads::InputKind::kImage, KiB(128));
  env.rsds().Seed("img", media.byte_size, faas::MediaToTags(media));
  const auto record = InvokeSync(env, "wand_sepia", "img", media, {0.5});
  // The idle sandbox's booked-but-unused memory now feeds the cache.
  const Bytes hoard = GiB(2) - record.memory_limit;
  EXPECT_GT(env.cluster()->TotalCapacity(), hoard / 2);
  EXPECT_LE(env.cluster()->TotalCapacity(), hoard);
}

TEST(OfcEndToEndTest, OutputIsWrittenBackAndDroppedFromCache) {
  Environment env(Mode::kOfc, SmallEnv(8));
  RegisterAndPretrain(env, "wand_sepia", GiB(2));
  workloads::MediaGenerator generator(Rng(9));
  const auto media = generator.GenerateWithByteSize(workloads::InputKind::kImage, KiB(256));
  env.rsds().Seed("img", media.byte_size, faas::MediaToTags(media));
  const auto record = InvokeSync(env, "wand_sepia", "img", media, {0.5});
  ASSERT_FALSE(record.failed);
  // Let the persistor finish.
  DriveUntil(env, Seconds(5), [] { return false; });
  const auto meta = env.rsds().Stat(record.output_key);
  ASSERT_TRUE(meta.ok());
  EXPECT_FALSE(meta->IsShadow());
  EXPECT_EQ(meta->size, record.output_bytes);
  EXPECT_FALSE(env.cluster()->Contains(record.output_key));  // §6.3 drop.
}

TEST(OfcEndToEndTest, PipelineIntermediatesStayOutOfRsds) {
  Environment env(Mode::kOfc, SmallEnv(10));
  const workloads::PipelineSpec* pipeline = workloads::FindPipeline("map_reduce");
  for (const auto& stage : pipeline->stages) {
    RegisterAndPretrain(env, stage.function, GiB(1));
  }
  workloads::MediaGenerator generator(Rng(11));
  std::vector<faas::InputObject> chunks;
  for (int c = 0; c < 6; ++c) {
    const auto media = generator.GenerateWithByteSize(workloads::InputKind::kText, KiB(512));
    const std::string key = "chunk" + std::to_string(c);
    env.rsds().Seed(key, media.byte_size, faas::MediaToTags(media));
    chunks.push_back(faas::InputObject{key, media});
  }
  faas::PipelineRecord record;
  bool done = false;
  env.platform().InvokePipeline(*pipeline, chunks, [&](const faas::PipelineRecord& r) {
    record = r;
    done = true;
  });
  DriveUntil(env, Minutes(30), [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_FALSE(record.failed);
  EXPECT_EQ(record.num_tasks, 7u);  // 6 map + 1 reduce.
  // Map outputs (stage-0 intermediates) were cached, never persisted, and
  // dropped at pipeline completion.
  EXPECT_GE(env.metrics().CounterValue("ofc.proxy.intermediates_cached"), 1u);
  EXPECT_EQ(env.metrics().CounterValue("ofc.proxy.intermediates_cached"),
            env.metrics().CounterValue("ofc.proxy.intermediates_dropped"));
  for (std::size_t t = 0; t < 6; ++t) {
    const std::string key = "pipe/1/s0/t" + std::to_string(t);
    EXPECT_FALSE(env.rsds().Exists(key)) << key;
    EXPECT_FALSE(env.cluster()->Contains(key)) << key;
  }
}

TEST(OfcEndToEndTest, ExternalReaderNeverSeesStalePayload) {
  Environment env(Mode::kOfc, SmallEnv(12));
  RegisterAndPretrain(env, "wand_sepia", GiB(2));
  workloads::MediaGenerator generator(Rng(13));
  const auto media = generator.GenerateWithByteSize(workloads::InputKind::kImage, KiB(256));
  env.rsds().Seed("img", media.byte_size, faas::MediaToTags(media));
  const auto record = InvokeSync(env, "wand_sepia", "img", media, {0.5});
  ASSERT_FALSE(record.failed);
  // Immediately read the output externally (non-FaaS client): the webhook must
  // block until the payload is persisted, even if the persistor has not yet
  // run on its own.
  bool read_done = false;
  bool was_shadow_when_served = true;
  env.rsds().ExternalRead(record.output_key, [&](Result<store::ObjectMetadata> meta) {
    ASSERT_TRUE(meta.ok());
    was_shadow_when_served = meta->IsShadow();
    read_done = true;
  });
  DriveUntil(env, Minutes(1), [&] { return read_done; });
  ASSERT_TRUE(read_done);
  EXPECT_FALSE(was_shadow_when_served);
}

TEST(InjectorTest, MultiTenantRunCompletesWithoutFailures) {
  Environment env(Mode::kOfc, SmallEnv(14));
  faasload::LoadInjector injector(&env, faasload::TenantProfile::kNormal, 15);
  for (const char* function : {"wand_sepia", "wand_thumbnail", "audio_normalize"}) {
    faasload::TenantSpec spec;
    spec.name = std::string("t-") + function;
    spec.function = function;
    spec.mean_interval_s = 10.0;
    spec.dataset_objects = 2;
    ASSERT_TRUE(injector.AddTenant(spec).ok());
  }
  injector.PretrainModels(400);
  injector.Run(Minutes(5));
  std::size_t total = 0;
  for (const auto& tenant : injector.results()) {
    total += tenant.invocations.size();
    EXPECT_EQ(tenant.FailureCount(), 0u) << tenant.name;
  }
  EXPECT_GT(total, 30u);  // ~3 tenants x ~30 invocations expected.
}

TEST(InjectorTest, BookedMemoryOrderingAcrossProfiles) {
  const workloads::FunctionSpec* spec = workloads::FindFunction("wand_blur");
  const Bytes naive =
      faasload::BookedMemoryFor(*spec, faasload::TenantProfile::kNaive, GiB(2), 1);
  const Bytes advanced =
      faasload::BookedMemoryFor(*spec, faasload::TenantProfile::kAdvanced, GiB(2), 1);
  const Bytes normal =
      faasload::BookedMemoryFor(*spec, faasload::TenantProfile::kNormal, GiB(2), 1);
  EXPECT_EQ(naive, GiB(2));
  EXPECT_LT(advanced, normal);
  EXPECT_LE(normal, naive);
  EXPECT_GT(advanced, MiB(64));
}

TEST(InjectorTest, OfcOutperformsSwiftBaseline) {
  // A small head-to-head of the macro experiment's headline claim.
  SimDuration totals[2] = {0, 0};
  int idx = 0;
  for (Mode mode : {Mode::kOwkSwift, Mode::kOfc}) {
    Environment env(mode, SmallEnv(16));
    faasload::LoadInjector injector(&env, faasload::TenantProfile::kNormal, 17);
    faasload::TenantSpec spec;
    spec.name = "bench";
    spec.function = "wand_sepia";
    spec.mean_interval_s = 10.0;
    spec.dataset_objects = 2;
    spec.object_size = KiB(512);  // Cacheable (<= 10 MB admission cap).
    ASSERT_TRUE(injector.AddTenant(spec).ok());
    injector.PretrainModels(1000);
    injector.Run(Minutes(5));
    totals[idx++] = injector.results()[0].TotalExecutionTime();
  }
  EXPECT_LT(totals[1], totals[0] * 3 / 4);  // At least 25 % better.
}

TEST(OfcEndToEndTest, SurvivesSimultaneousWorkerAndCacheNodeCrash) {
  // The full fault story (§6.1): a worker fail-stops mid-run, taking its
  // sandboxes AND its cache instance with it. The platform re-dispatches the
  // in-flight invocations; the cache recovers master copies from backups; no
  // invocation fails and cached data stays readable.
  Environment env(Mode::kOfc, SmallEnv(20));
  RegisterAndPretrain(env, "wand_sepia", GiB(2));
  workloads::MediaGenerator generator(Rng(21));
  Rng rng(22);

  // Seed and prime several cacheable objects.
  std::vector<faas::InputObject> objects;
  for (int i = 0; i < 6; ++i) {
    const auto media =
        generator.GenerateWithByteSize(workloads::InputKind::kImage, KiB(512));
    const std::string key = "img" + std::to_string(i);
    env.rsds().Seed(key, media.byte_size, faas::MediaToTags(media));
    objects.push_back(faas::InputObject{key, media});
    (void)InvokeSync(env, "wand_sepia", key, media, {0.5});
  }
  ASSERT_GT(env.cluster()->NumObjects(), 0u);

  // Fire a batch of invocations, then crash worker 0 while they are in flight.
  int completed = 0;
  int failed = 0;
  for (const auto& object : objects) {
    env.platform().Invoke("wand_sepia", {object}, {0.5},
                          [&](const faas::InvocationRecord& record) {
                            ++completed;
                            failed += record.failed;
                          });
  }
  DriveUntil(env, Millis(30), [] { return false; });  // Let them get going.
  env.platform().CrashWorker(0);
  const rc::RecoveryResult recovery = env.cluster()->CrashNode(0);
  EXPECT_EQ(recovery.objects_lost, 0u);

  DriveUntil(env, Minutes(10), [&] { return completed == 6; });
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(failed, 0);
  // Cached objects are all still readable from promoted masters.
  for (const auto& object : objects) {
    if (!env.cluster()->Contains(object.key)) {
      continue;  // May have been legitimately evicted.
    }
    const auto master = env.cluster()->MasterOf(object.key);
    ASSERT_TRUE(master.has_value());
    EXPECT_NE(*master, 0);
  }
}

TEST(DeterminismTest, SameSeedSameResults) {
  auto run = [](std::uint64_t seed) {
    Environment env(Mode::kOfc, SmallEnv(seed));
    faas::FunctionConfig config;
    config.spec = *workloads::FindFunction("wand_sepia");
    config.booked_memory = GiB(2);
    (void)env.platform().RegisterFunction(config);
    Rng rng(42);
    env.ofc()->trainer().Pretrain(config.spec, 300, rng);
    workloads::MediaGenerator generator(Rng(43));
    const auto media =
        generator.GenerateWithByteSize(workloads::InputKind::kImage, KiB(256));
    env.rsds().Seed("img", media.byte_size, faas::MediaToTags(media));
    return InvokeSync(env, "wand_sepia", "img", media, {0.5}).total;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // Different seeds: different latency draws.
}

}  // namespace
}  // namespace ofc
