// Unit tests for the FaaS platform: sandbox lifecycle, cold/warm starts,
// keep-alive, OOM semantics, capacity reclaim, pipelines.
#include <gtest/gtest.h>

#include "src/faas/direct_data_service.h"
#include "src/faas/platform.h"
#include "src/sim/event_loop.h"
#include "src/store/object_store.h"

namespace ofc::faas {
namespace {

workloads::FunctionSpec TinySpec(const std::string& name, double base_mem_mb = 100,
                                 double compute_us_per_mb = 50) {
  workloads::FunctionSpec spec;
  spec.name = name;
  spec.kind = workloads::InputKind::kImage;
  spec.base_mem_mb = base_mem_mb;
  spec.mem_copies = 5.0;
  spec.mem_noise = 0.0;
  spec.compute_us_per_mb = compute_us_per_mb;
  return spec;
}

workloads::MediaDescriptor TinyImage(Bytes byte_size = KiB(64), int side = 800) {
  workloads::MediaDescriptor media;
  media.kind = workloads::InputKind::kImage;
  media.width = side;
  media.height = side;
  media.byte_size = byte_size;
  return media;
}

TEST(MediaToTagsTest, RecordsEachKindsFeatures) {
  workloads::MediaDescriptor image;
  image.kind = workloads::InputKind::kImage;
  image.width = 1920;
  image.height = 1080;
  image.format = 1;
  const store::Tags image_tags = MediaToTags(image);
  EXPECT_EQ(image_tags.kind, store::MediaKind::kImage);
  EXPECT_EQ(image_tags.format, 1);
  EXPECT_EQ(image_tags.width, 1920);
  EXPECT_EQ(image_tags.height, 1080);
  EXPECT_EQ(image_tags.duration_s, 0.0);
  EXPECT_EQ(image_tags.channels, 0);

  workloads::MediaDescriptor audio;
  audio.kind = workloads::InputKind::kAudio;
  audio.duration_s = 183.257;
  audio.channels = 2;
  audio.format = 3;
  const store::Tags audio_tags = MediaToTags(audio);
  EXPECT_EQ(audio_tags.kind, store::MediaKind::kAudio);
  EXPECT_EQ(audio_tags.format, 3);
  EXPECT_EQ(audio_tags.duration_s, 183.257);
  EXPECT_EQ(audio_tags.channels, 2);
  EXPECT_EQ(audio_tags.width, 0);
  EXPECT_EQ(audio_tags.height, 0);

  workloads::MediaDescriptor video;
  video.kind = workloads::InputKind::kVideo;
  video.width = 1280;
  video.height = 720;
  video.duration_s = 42.5;
  video.fps = 30;
  video.format = 2;
  const store::Tags video_tags = MediaToTags(video);
  EXPECT_EQ(video_tags.kind, store::MediaKind::kVideo);
  EXPECT_EQ(video_tags.format, 2);
  EXPECT_EQ(video_tags.width, 1280);
  EXPECT_EQ(video_tags.height, 720);
  EXPECT_EQ(video_tags.duration_s, 42.5);
  EXPECT_EQ(video_tags.channels, 0);

  workloads::MediaDescriptor text;
  text.kind = workloads::InputKind::kText;
  EXPECT_EQ(MediaToTags(text), (store::Tags{.kind = store::MediaKind::kText}));

  // The baseline data plane stores them with the object it writes.
  sim::EventLoop loop;
  store::ObjectStore rsds(&loop, sim::LatencyModel{Millis(5), 200e6, 0.0}, Rng(1), "rsds");
  DirectDataService data(&rsds);
  data.Write(InvocationContext{}, "out/clip", KiB(64), audio, [](Status) {});
  loop.Run();
  EXPECT_EQ(*rsds.TagsOf("out/clip"), audio_tags);
}

class PlatformTest : public ::testing::Test {
 protected:
  PlatformTest()
      : rsds_(&loop_, sim::LatencyModel{Millis(5), 200e6, 0.0}, Rng(1), "rsds"),
        data_(&rsds_) {}

  void MakePlatform(PlatformOptions options, PlatformHooks* hooks = nullptr) {
    platform_ = std::make_unique<Platform>(&loop_, options, &data_, hooks, Rng(2));
  }

  void RegisterTiny(const std::string& name, Bytes booked = MiB(512)) {
    FunctionConfig config;
    config.spec = TinySpec(name);
    config.booked_memory = booked;
    ASSERT_TRUE(platform_->RegisterFunction(config).ok());
  }

  InvocationRecord InvokeSync(const std::string& fn, Bytes input_size = KiB(64)) {
    rsds_.Seed("in/obj", input_size, {});
    InvocationRecord out;
    bool done = false;
    platform_->Invoke(fn, {InputObject{"in/obj", TinyImage(input_size)}}, {},
                      [&](const InvocationRecord& r) {
                        out = r;
                        done = true;
                      });
    // Step (not Run): draining the whole queue would also fire the sandbox
    // keep-alive timer and destroy the warm sandbox under test.
    while (!done && loop_.Step()) {
    }
    EXPECT_TRUE(done);
    return out;
  }

  sim::EventLoop loop_;
  store::ObjectStore rsds_;
  DirectDataService data_;
  std::unique_ptr<Platform> platform_;
};

TEST_F(PlatformTest, RegisterRejectsDuplicates) {
  MakePlatform({});
  RegisterTiny("f");
  FunctionConfig config;
  config.spec = TinySpec("f");
  EXPECT_EQ(platform_->RegisterFunction(config).code(), StatusCode::kAlreadyExists);
}

TEST_F(PlatformTest, UnknownFunctionFails) {
  MakePlatform({});
  InvocationRecord record = InvokeSync("nope");
  EXPECT_TRUE(record.failed);
}

TEST_F(PlatformTest, FirstInvocationIsColdSecondIsWarm) {
  MakePlatform({});
  RegisterTiny("f");
  const InvocationRecord first = InvokeSync("f");
  EXPECT_TRUE(first.cold_start);
  EXPECT_FALSE(first.failed);
  const InvocationRecord second = InvokeSync("f");
  EXPECT_FALSE(second.cold_start);
  EXPECT_LT(second.startup_time, first.startup_time);
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.cold_starts"), 1u);
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.warm_starts"), 1u);
}

TEST_F(PlatformTest, PhasesAreMeasured) {
  MakePlatform({});
  RegisterTiny("f");
  const InvocationRecord record = InvokeSync("f", MiB(1));
  EXPECT_GT(record.extract_time, 0);
  EXPECT_GT(record.compute_time, 0);
  EXPECT_GT(record.load_time, 0);
  EXPECT_GE(record.total,
            record.startup_time + record.extract_time + record.compute_time + record.load_time);
  EXPECT_EQ(record.input_bytes, MiB(1));
  EXPECT_GT(record.output_bytes, 0);
  EXPECT_TRUE(rsds_.Exists(record.output_key));
}

TEST_F(PlatformTest, KeepAliveDestroysIdleSandbox) {
  PlatformOptions options;
  options.keep_alive = Seconds(600);
  MakePlatform(options);
  RegisterTiny("f");
  (void)InvokeSync("f");
  EXPECT_EQ(platform_->NumSandboxes(0) + platform_->NumSandboxes(1) +
                platform_->NumSandboxes(2) + platform_->NumSandboxes(3),
            1u);
  loop_.RunUntil(loop_.now() + Seconds(601));
  std::size_t total = 0;
  for (int w = 0; w < platform_->num_workers(); ++w) {
    total += platform_->NumSandboxes(w);
  }
  EXPECT_EQ(total, 0u);
}

TEST_F(PlatformTest, SandboxReservationTracksBookedMemory) {
  MakePlatform({});
  RegisterTiny("f", MiB(512));
  const InvocationRecord record = InvokeSync("f");
  EXPECT_EQ(platform_->SandboxReserved(record.worker), MiB(512));
  EXPECT_EQ(record.memory_limit, MiB(512));
}

TEST_F(PlatformTest, OomKillTriggersRetryWithBookedMemory) {
  MakePlatform({});
  // Booked 2 GB, but the hook below will underprovision the first run.
  struct UnderpredictHooks : PlatformHooks {
    Sizing SizeInvocation(const FunctionConfig& fn, const std::vector<InputObject>&,
                          const std::vector<double>&) override {
      ++calls;
      if (calls == 1) {
        return Sizing{MiB(64), false};  // Way below the ~115 MB actual demand.
      }
      return Sizing{fn.booked_memory, false};
    }
    int calls = 0;
  } hooks;
  MakePlatform({}, &hooks);
  FunctionConfig config;
  config.spec = TinySpec("f");
  config.booked_memory = GiB(1);
  ASSERT_TRUE(platform_->RegisterFunction(config).ok());

  const InvocationRecord record = InvokeSync("f", MiB(1));
  EXPECT_FALSE(record.failed);
  EXPECT_TRUE(record.oom_killed);
  EXPECT_EQ(record.retries, 1);
  EXPECT_EQ(record.memory_limit, GiB(1));  // Retried with the booked amount.
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.oom_kills"), 1u);
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.retries"), 1u);
}

TEST_F(PlatformTest, CrashRetryKeepsOomRetryWithBookedMemory) {
  // Regression: the OOM retry used to require retries == 0, so an invocation
  // re-dispatched after a worker crash failed on its first OOM kill instead of
  // running once at the booked memory.
  struct UnderpredictHooks : PlatformHooks {
    Sizing SizeInvocation(const FunctionConfig&, const std::vector<InputObject>&,
                          const std::vector<double>&) override {
      return Sizing{MiB(64), false};  // Always below the ~113 MiB demand.
    }
  } hooks;
  PlatformOptions options;
  options.num_workers = 2;
  MakePlatform(options, &hooks);
  FunctionConfig config;
  config.spec = TinySpec("f");
  config.booked_memory = GiB(1);
  ASSERT_TRUE(platform_->RegisterFunction(config).ok());

  rsds_.Seed("in/obj", MiB(1), {});
  InvocationRecord record;
  bool done = false;
  platform_->Invoke("f", {InputObject{"in/obj", TinyImage(MiB(1))}}, {},
                    [&](const InvocationRecord& r) {
                      record = r;
                      done = true;
                    });
  loop_.RunUntil(loop_.now() + Millis(50));  // Mid cold start.
  int victim = -1;
  for (int w = 0; w < 2; ++w) {
    if (platform_->NumSandboxes(w) > 0) {
      victim = w;
    }
  }
  ASSERT_GE(victim, 0);
  platform_->CrashWorker(victim);
  while (!done && loop_.Step()) {
  }
  ASSERT_TRUE(done);
  EXPECT_FALSE(record.failed);
  EXPECT_TRUE(record.oom_killed);
  EXPECT_EQ(record.retries, 2);  // One crash retry, one OOM retry.
  EXPECT_EQ(record.memory_limit, GiB(1));
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.oom_kills"), 1u);
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.retries"), 2u);
}

TEST_F(PlatformTest, CrashRetriesDispatchInRequestIdOrder) {
  // Records the order of dispatches; each request reads one input named after it.
  struct OrderHooks : PlatformHooks {
    std::vector<std::string> dispatched;
    Sizing SizeInvocation(const FunctionConfig& fn, const std::vector<InputObject>& inputs,
                          const std::vector<double>& args) override {
      dispatched.push_back(inputs.front().key);
      return PlatformHooks::SizeInvocation(fn, inputs, args);
    }
  } hooks;
  PlatformOptions options;
  options.num_workers = 2;
  MakePlatform(options, &hooks);
  FunctionConfig config;
  config.spec = TinySpec("f", /*base_mem_mb=*/100, /*compute_us_per_mb=*/50000);
  config.booked_memory = MiB(512);
  ASSERT_TRUE(platform_->RegisterFunction(config).ok());
  int completed = 0;
  const auto invoke = [&](const std::string& key, int side) {
    rsds_.Seed(key, KiB(64), {});
    platform_->Invoke("f", {InputObject{key, TinyImage(KiB(64), side)}}, {},
                      [&completed](const InvocationRecord&) { ++completed; });
  };
  // "in/a" computes for under 2 ms, the others for seconds. Once "in/a" is
  // done, the later "in/d" takes over its in-flight slot, ahead of the
  // older "in/b" and "in/c".
  invoke("in/a", 100);
  invoke("in/b", 4000);
  invoke("in/c", 4000);
  loop_.RunUntil(Millis(500));
  ASSERT_EQ(completed, 1);
  invoke("in/d", 4000);
  invoke("in/e", 4000);
  loop_.RunUntil(Millis(800));
  int victim = -1;
  for (int w = 0; w < 2; ++w) {
    if (platform_->NumSandboxes(w) == 4) {
      victim = w;
    }
  }
  ASSERT_GE(victim, 0);
  hooks.dispatched.clear();
  platform_->CrashWorker(victim);
  loop_.RunUntil(Millis(800) + options.retry_delay);
  EXPECT_EQ(hooks.dispatched,
            (std::vector<std::string>{"in/b", "in/c", "in/d", "in/e"}));
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.crash_retries"), 4u);
}

TEST_F(PlatformTest, MonitorRescueAvoidsOomKill) {
  struct RescueHooks : PlatformHooks {
    Sizing SizeInvocation(const FunctionConfig&, const std::vector<InputObject>&,
                          const std::vector<double>&) override {
      return Sizing{MiB(64), false};
    }
    bool TryRaiseMemory(int, Bytes, Bytes, SimDuration expected_compute) override {
      // §5.3.1: rescue only long-running invocations.
      return expected_compute >= Seconds(3);
    }
  } hooks;
  MakePlatform({}, &hooks);
  // Long compute: 100 ms/decoded-MB over a ~45 MB raster -> > 3 s.
  FunctionConfig config;
  config.spec = TinySpec("slow", /*base_mem_mb=*/100, /*compute_us_per_mb=*/100000);
  config.booked_memory = GiB(1);
  ASSERT_TRUE(platform_->RegisterFunction(config).ok());

  rsds_.Seed("in/obj", MiB(2), {});
  InvocationRecord record;
  platform_->Invoke("slow", {InputObject{"in/obj", TinyImage(MiB(2), 4000)}}, {},
                    [&](const InvocationRecord& r) { record = r; });
  loop_.Run();
  EXPECT_FALSE(record.failed);
  EXPECT_FALSE(record.oom_killed);
  EXPECT_TRUE(record.oom_rescued);
  EXPECT_EQ(record.retries, 0);
  EXPECT_GE(record.memory_limit, record.memory_used);
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.oom_rescues"), 1u);
}

TEST_F(PlatformTest, CapacityPressureReclaimsIdleSandboxes) {
  PlatformOptions options;
  options.num_workers = 1;
  options.worker_memory = GiB(1);
  MakePlatform(options);
  RegisterTiny("a", MiB(512));
  FunctionConfig config;
  config.spec = TinySpec("b");
  config.booked_memory = MiB(768);
  ASSERT_TRUE(platform_->RegisterFunction(config).ok());

  (void)InvokeSync("a");  // Leaves one idle 512 MiB sandbox.
  const InvocationRecord record = InvokeSync("b");  // Needs 768 MiB: must reclaim.
  EXPECT_FALSE(record.failed);
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.sandbox_reclaims"), 1u);
  EXPECT_EQ(platform_->NumIdleSandboxes("a"), 0u);
}

TEST_F(PlatformTest, CapacityPressureReclaimsOldestIdleSandboxFirst) {
  PlatformOptions options;
  options.num_workers = 1;
  options.worker_memory = MiB(1536);  // Room for three 512 MiB sandboxes.
  MakePlatform(options);
  for (const char* name : {"a", "b", "c", "d", "e", "f"}) {
    RegisterTiny(name, MiB(512));
  }
  // Idle sandboxes of a, b and c (ids 1, 2 and 3), released one second apart.
  for (const char* name : {"a", "b", "c"}) {
    (void)InvokeSync(name);
    loop_.RunUntil(loop_.now() + Seconds(1));
  }
  // A warm run makes a's sandbox the most recently used while it keeps the
  // lowest id, so least-recently-used order differs from id order.
  ASSERT_FALSE(InvokeSync("a").cold_start);
  loop_.RunUntil(loop_.now() + Seconds(1));
  ASSERT_EQ(platform_->metrics().CounterValue("ofc.platform.sandbox_reclaims"), 0u);

  // Each later cold start must reclaim the least recently used idle sandbox;
  // the newcomer itself is released last, so it outlives the older ones.
  (void)InvokeSync("d");
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.sandbox_reclaims"), 1u);
  EXPECT_EQ(platform_->NumIdleSandboxes("a"), 1u);
  EXPECT_EQ(platform_->NumIdleSandboxes("b"), 0u);
  EXPECT_EQ(platform_->NumIdleSandboxes("c"), 1u);

  (void)InvokeSync("e");
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.sandbox_reclaims"), 2u);
  EXPECT_EQ(platform_->NumIdleSandboxes("a"), 1u);
  EXPECT_EQ(platform_->NumIdleSandboxes("c"), 0u);
  EXPECT_EQ(platform_->NumIdleSandboxes("d"), 1u);

  (void)InvokeSync("f");
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.sandbox_reclaims"), 3u);
  EXPECT_EQ(platform_->NumIdleSandboxes("a"), 0u);
  EXPECT_EQ(platform_->NumIdleSandboxes("d"), 1u);
  EXPECT_EQ(platform_->NumIdleSandboxes("e"), 1u);
  EXPECT_EQ(platform_->NumIdleSandboxes("f"), 1u);
}

TEST_F(PlatformTest, PickSandboxSeesIdleSandboxesInIdOrderWithLiveState) {
  // Sizes every invocation differently so each sandbox's limit identifies the
  // invocation that last ran on it, and records what routing is offered.
  struct RecordingHooks : PlatformHooks {
    Sizing SizeInvocation(const FunctionConfig&, const std::vector<InputObject>&,
                          const std::vector<double>&) override {
      return Sizing{MiB(128) + MiB(64) * calls++, false};
    }
    std::size_t PickSandbox(const std::vector<SandboxInfo>& candidates, Bytes,
                            const std::vector<InputObject>&) override {
      seen.push_back(candidates);
      return std::min<std::size_t>(1, candidates.size() - 1);
    }
    int calls = 0;
    std::vector<std::vector<SandboxInfo>> seen;
  } hooks;
  MakePlatform({}, &hooks);
  RegisterTiny("f");
  RegisterTiny("g");
  rsds_.Seed("in/obj", MiB(1), {});

  // Interleaved cold starts: f gets sandboxes 1, 3 and 5, g gets 2 and 4. The
  // inputs differ in size, so the three f invocations finish at distinct times.
  std::vector<SimTime> finished(3, 0);
  std::vector<Bytes> limit(3, 0);
  for (int i = 0; i < 3; ++i) {
    const Bytes size = KiB(64) << i;
    platform_->Invoke("f", {InputObject{"in/obj", TinyImage(size, 800 + 400 * i)}}, {},
                      [&, i](const InvocationRecord& r) {
                        finished[static_cast<std::size_t>(i)] = loop_.now();
                        limit[static_cast<std::size_t>(i)] = r.memory_limit;
                      });
    if (i < 2) {
      platform_->Invoke("g", {InputObject{"in/obj", TinyImage()}}, {},
                        [](const InvocationRecord&) {});
    }
  }
  while (std::find(finished.begin(), finished.end(), 0) != finished.end() && loop_.Step()) {
  }
  loop_.RunUntil(loop_.now() + Seconds(1));
  ASSERT_TRUE(hooks.seen.empty());  // Every start so far was cold.
  ASSERT_NE(finished[0], finished[1]);
  ASSERT_NE(finished[1], finished[2]);

  // A warm f invocation sees exactly f's idle sandboxes, ascending, each with
  // the limit and release time its last invocation left behind.
  int warm_done = 0;
  SimTime warm_finished = 0;
  Bytes warm_limit = 0;
  platform_->Invoke("f", {InputObject{"in/obj", TinyImage()}}, {},
                    [&](const InvocationRecord& r) {
                      ++warm_done;
                      warm_finished = loop_.now();
                      warm_limit = r.memory_limit;
                      EXPECT_FALSE(r.cold_start);
                    });
  ASSERT_EQ(hooks.seen.size(), 1u);
  const std::vector<std::uint64_t> f_ids = {1, 3, 5};
  ASSERT_EQ(hooks.seen[0].size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const SandboxInfo& info = hooks.seen[0][i];
    EXPECT_EQ(info.sandbox_id, f_ids[i]);
    EXPECT_EQ(info.current_limit, limit[i]);
    EXPECT_EQ(info.last_used, finished[i]);
  }

  // The picked sandbox (3) is busy, so the next call sees only 1 and 5.
  platform_->Invoke("f", {InputObject{"in/obj", TinyImage()}}, {},
                    [&](const InvocationRecord&) { ++warm_done; });
  ASSERT_EQ(hooks.seen.size(), 2u);
  ASSERT_EQ(hooks.seen[1].size(), 2u);
  EXPECT_EQ(hooks.seen[1][0].sandbox_id, 1u);
  EXPECT_EQ(hooks.seen[1][1].sandbox_id, 5u);
  while (warm_done < 2 && loop_.Step()) {
  }
  ASSERT_EQ(warm_done, 2);

  // Once released, sandbox 3 is offered again with its new limit and time.
  platform_->Invoke("f", {InputObject{"in/obj", TinyImage()}}, {},
                    [](const InvocationRecord&) {});
  ASSERT_EQ(hooks.seen.size(), 3u);
  ASSERT_EQ(hooks.seen[2].size(), 3u);
  EXPECT_EQ(hooks.seen[2][1].sandbox_id, 3u);
  EXPECT_EQ(hooks.seen[2][1].current_limit, warm_limit);
  EXPECT_EQ(hooks.seen[2][1].last_used, warm_finished);
  EXPECT_NE(warm_limit, limit[1]);
}

TEST_F(PlatformTest, HooksObserveSandboxMemoryChanges) {
  struct TrackingHooks : PlatformHooks {
    void OnSandboxMemoryChange(const SandboxMemoryEvent& event) override {
      delta += event.new_limit - event.old_limit;
      booked = event.booked;
      ++events;
    }
    Bytes delta = 0;
    Bytes booked = 0;
    int events = 0;
  } hooks;
  MakePlatform({}, &hooks);
  RegisterTiny("f", MiB(256));
  (void)InvokeSync("f");
  EXPECT_EQ(hooks.delta, MiB(256));  // Creation (default sizing = booked).
  EXPECT_EQ(hooks.booked, MiB(256));
  loop_.RunUntil(loop_.now() + Seconds(601));  // Keep-alive expiry.
  EXPECT_EQ(hooks.delta, 0);         // Destruction released it.
  EXPECT_GE(hooks.events, 2);
}

TEST_F(PlatformTest, PipelineRunsAllStages) {
  MakePlatform({});
  for (const char* name : {"s1", "s2", "s3"}) {
    FunctionConfig config;
    config.spec = TinySpec(name);
    config.spec.kind = workloads::InputKind::kText;
    config.booked_memory = MiB(256);
    ASSERT_TRUE(platform_->RegisterFunction(config).ok());
  }
  workloads::PipelineSpec pipeline;
  pipeline.name = "test_pipe";
  pipeline.input_kind = workloads::InputKind::kText;
  pipeline.stages = {{"s1", 0}, {"s2", 0}, {"s3", 1}};

  std::vector<InputObject> chunks;
  for (int c = 0; c < 4; ++c) {
    const std::string key = "in/chunk" + std::to_string(c);
    rsds_.Seed(key, KiB(256), {});
    workloads::MediaDescriptor media;
    media.kind = workloads::InputKind::kText;
    media.byte_size = KiB(256);
    chunks.push_back(InputObject{key, media});
  }
  PipelineRecord record;
  bool done = false;
  platform_->InvokePipeline(pipeline, chunks, [&](const PipelineRecord& r) {
    record = r;
    done = true;
  });
  loop_.Run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(record.failed);
  // 4 fan-out tasks x 2 stages + 1 merge task.
  EXPECT_EQ(record.num_tasks, 9u);
  EXPECT_GT(record.extract_time, 0);
  EXPECT_GT(record.compute_time, 0);
  EXPECT_GT(record.load_time, 0);
  EXPECT_GT(record.total, 0);
}

TEST_F(PlatformTest, AggregateMediaSumsBytes) {
  std::vector<InputObject> inputs;
  inputs.push_back(InputObject{"a", TinyImage(KiB(100))});
  inputs.push_back(InputObject{"b", TinyImage(KiB(200))});
  const auto media = Platform::AggregateMedia(inputs);
  EXPECT_EQ(media.byte_size, KiB(300));
  EXPECT_EQ(Platform::AggregateMedia({}).byte_size, KiB(1));
}

TEST_F(PlatformTest, WorkerCrashRetriesInFlightInvocations) {
  PlatformOptions options;
  options.num_workers = 2;
  MakePlatform(options);
  // Slow compute so the crash lands mid-transform.
  FunctionConfig config;
  config.spec = TinySpec("slow", 100, /*compute_us_per_mb=*/200000);
  config.booked_memory = GiB(1);
  ASSERT_TRUE(platform_->RegisterFunction(config).ok());

  rsds_.Seed("in/obj", MiB(1), {});
  InvocationRecord record;
  bool done = false;
  platform_->Invoke("slow", {InputObject{"in/obj", TinyImage(MiB(1), 3000)}}, {},
                    [&](const InvocationRecord& r) {
                      record = r;
                      done = true;
                    });
  // Let it get into the transform phase, then crash its worker.
  loop_.RunUntil(loop_.now() + Millis(400));
  ASSERT_FALSE(done);
  int victim = -1;
  for (int w = 0; w < 2; ++w) {
    if (platform_->NumSandboxes(w) > 0) {
      victim = w;
    }
  }
  ASSERT_GE(victim, 0);
  platform_->CrashWorker(victim);
  EXPECT_FALSE(platform_->WorkerAlive(victim));
  EXPECT_EQ(platform_->NumSandboxes(victim), 0u);

  while (!done && loop_.Step()) {
  }
  ASSERT_TRUE(done);
  EXPECT_FALSE(record.failed);  // Retried on the surviving worker.
  EXPECT_NE(record.worker, victim);
  EXPECT_GE(record.retries, 1);
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.worker_crashes"), 1u);
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.crash_retries"), 1u);
  // Exactly one completion (no stale double-fire from the dead execution).
  loop_.RunUntil(loop_.now() + Seconds(30));
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.failed_invocations"), 0u);
}

TEST_F(PlatformTest, CrashMidExtractLeavesRetryRecordClean) {
  PlatformOptions options;
  options.num_workers = 2;
  MakePlatform(options);
  RegisterTiny("f");
  // 20 MiB at 200 MB/s: each read takes ~110 ms.
  rsds_.Seed("in/a", MiB(20), {});
  rsds_.Seed("in/b", MiB(20), {});

  std::vector<InvocationRecord> records;
  platform_->Invoke("f",
                    {InputObject{"in/a", TinyImage(MiB(20))},
                     InputObject{"in/b", TinyImage(MiB(20))}},
                    {}, [&](const InvocationRecord& r) { records.push_back(r); });
  // The cold start ends at 188 ms and the first read is then in flight; crash
  // the worker under it, so that read completes after the crash.
  loop_.RunUntil(loop_.now() + Millis(240));
  int victim = -1;
  for (int w = 0; w < 2; ++w) {
    if (platform_->NumSandboxes(w) > 0) {
      victim = w;
    }
  }
  ASSERT_GE(victim, 0);
  platform_->CrashWorker(victim);
  loop_.Run();

  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].failed);
  EXPECT_NE(records[0].worker, victim);
  EXPECT_EQ(records[0].retries, 1);
  EXPECT_EQ(records[0].input_bytes, MiB(40));
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.platform.input_bytes"),
            static_cast<std::uint64_t>(MiB(40)));
}

TEST_F(PlatformTest, CrashedWorkerReceivesNoPlacements) {
  PlatformOptions options;
  options.num_workers = 2;
  MakePlatform(options);
  RegisterTiny("f");
  platform_->CrashWorker(0);
  for (int i = 0; i < 4; ++i) {
    const InvocationRecord record = InvokeSync("f");
    EXPECT_FALSE(record.failed);
    EXPECT_EQ(record.worker, 1);
  }
  platform_->RestoreWorker(0);
  EXPECT_TRUE(platform_->WorkerAlive(0));
}

TEST_F(PlatformTest, CrashReleasesReservations) {
  PlatformOptions options;
  options.num_workers = 1;
  MakePlatform(options);
  RegisterTiny("f", MiB(512));
  (void)InvokeSync("f");
  ASSERT_EQ(platform_->SandboxReserved(0), MiB(512));
  platform_->CrashWorker(0);
  EXPECT_EQ(platform_->SandboxReserved(0), 0);
}

TEST_F(PlatformTest, DispatchOverheadAppliesToWarmStart) {
  PlatformOptions options;
  options.dispatch_overhead = Millis(8);
  options.cold_start = Millis(180);
  MakePlatform(options);
  RegisterTiny("f");
  const InvocationRecord cold = InvokeSync("f");
  EXPECT_EQ(cold.startup_time, Millis(188));
  const InvocationRecord warm = InvokeSync("f");
  EXPECT_EQ(warm.startup_time, Millis(8));
}

// ---- Overload protection ------------------------------------------------------

TEST_F(PlatformTest, QueueDepthLimitShedsWithResourceExhausted) {
  PlatformOptions options;
  options.num_workers = 1;
  options.worker_memory = MiB(512);  // Exactly one 512 MiB-booked sandbox fits.
  options.max_queue_depth = 1;
  MakePlatform(options);
  RegisterTiny("f");
  rsds_.Seed("in/obj", KiB(64), {});

  std::vector<InvocationRecord> records;
  for (int i = 0; i < 3; ++i) {
    platform_->Invoke("f", {InputObject{"in/obj", TinyImage()}}, {},
                      [&records](const InvocationRecord& r) { records.push_back(r); });
  }
  // The first runs, the second queues; the third finds the queue full and is
  // shed synchronously-exactly-once, before either of the others completes.
  while (records.size() < 3 && loop_.Step()) {
  }
  ASSERT_EQ(records.size(), 3u);
  const InvocationRecord& shed = records.front();  // Shed completes first.
  EXPECT_TRUE(shed.shed);
  EXPECT_TRUE(shed.failed);
  EXPECT_EQ(shed.final_status, StatusCode::kResourceExhausted);
  int shed_count = 0;
  int succeeded = 0;
  for (const InvocationRecord& r : records) {
    shed_count += r.shed ? 1 : 0;
    succeeded += r.failed ? 0 : 1;
  }
  EXPECT_EQ(shed_count, 1);
  EXPECT_EQ(succeeded, 2);  // The queued request still ran to completion.
  EXPECT_EQ(platform_->metrics().CounterTotal("ofc.overload.shed"), 1u);
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.overload.shed", "queue_full"), 1u);
}

TEST_F(PlatformTest, QueueDeadlineShedsLongWaiters) {
  PlatformOptions options;
  options.num_workers = 1;
  options.worker_memory = MiB(512);
  options.queue_deadline = Millis(50);  // Far below the 180 ms cold start.
  MakePlatform(options);
  RegisterTiny("f");
  rsds_.Seed("in/obj", KiB(64), {});

  std::vector<InvocationRecord> records;
  for (int i = 0; i < 2; ++i) {
    platform_->Invoke("f", {InputObject{"in/obj", TinyImage()}}, {},
                      [&records](const InvocationRecord& r) { records.push_back(r); });
  }
  const SimTime start = loop_.now();
  while (records.size() < 2 && loop_.Step()) {
  }
  ASSERT_EQ(records.size(), 2u);
  const InvocationRecord& shed = records.front();
  EXPECT_TRUE(shed.shed);
  EXPECT_EQ(shed.final_status, StatusCode::kResourceExhausted);
  // The shed fires at the deadline, not when the running invocation finishes.
  EXPECT_EQ(shed.total, Millis(50));
  EXPECT_FALSE(records.back().failed);
  EXPECT_EQ(platform_->metrics().CounterValue("ofc.overload.shed", "deadline"), 1u);
  // Queue residence never exceeds the deadline.
  const obs::Series* wait = platform_->metrics().FindSeries("ofc.platform.queue_wait_ms");
  ASSERT_NE(wait, nullptr);
  EXPECT_LE(wait->running().max(), ToMillis(options.queue_deadline));
  (void)start;
}

TEST_F(PlatformTest, ConcurrencyLimitQueuesWithoutShedding) {
  PlatformOptions options;
  options.max_concurrency_per_function = 1;  // Plenty of memory and workers.
  MakePlatform(options);
  RegisterTiny("f");
  rsds_.Seed("in/obj", KiB(64), {});

  std::vector<InvocationRecord> records;
  for (int i = 0; i < 3; ++i) {
    platform_->Invoke("f", {InputObject{"in/obj", TinyImage()}}, {},
                      [&records](const InvocationRecord& r) { records.push_back(r); });
  }
  while (records.size() < 3 && loop_.Step()) {
  }
  ASSERT_EQ(records.size(), 3u);
  for (const InvocationRecord& r : records) {
    EXPECT_FALSE(r.failed);
    EXPECT_FALSE(r.shed);
  }
  EXPECT_EQ(platform_->metrics().CounterTotal("ofc.overload.shed"), 0u);
  EXPECT_GE(platform_->metrics().CounterValue("ofc.platform.queued_requests"), 2u);
}

TEST_F(PlatformTest, TenantConcurrencyLimitSpansFunctions) {
  PlatformOptions options;
  options.max_concurrency_per_tenant = 1;
  MakePlatform(options);
  RegisterTiny("f1");
  RegisterTiny("f2");  // Same default tenant as f1.
  rsds_.Seed("in/obj", KiB(64), {});

  std::vector<InvocationRecord> records;
  for (const char* fn : {"f1", "f2"}) {
    platform_->Invoke(fn, {InputObject{"in/obj", TinyImage()}}, {},
                      [&records](const InvocationRecord& r) { records.push_back(r); });
  }
  while (records.size() < 2 && loop_.Step()) {
  }
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].failed);
  EXPECT_FALSE(records[1].failed);
  // The second function queued behind the tenant cap despite free capacity.
  EXPECT_GE(platform_->metrics().CounterValue("ofc.platform.queued_requests"), 1u);
}

TEST_F(PlatformTest, OomReleaseReprobesWaitQueue) {
  // Regression: a queued request whose function had no live sandboxes used to
  // wait out the whole OOM-retry window, because the OOM path released its
  // sandbox without re-probing the wait queue. With the ReleaseSandbox drain,
  // the waiter reclaims the idle sandbox the moment the OOM kill releases it —
  // before the killed invocation's retry fires — so it must finish first.
  struct UnderpredictA : PlatformHooks {
    Sizing SizeInvocation(const FunctionConfig& fn, const std::vector<InputObject>&,
                          const std::vector<double>&) override {
      if (fn.spec.name == "a" && calls++ == 0) {
        return Sizing{MiB(64), false};  // Forces an OOM kill on a's first run.
      }
      return Sizing{fn.booked_memory, false};
    }
    int calls = 0;
  } hooks;
  PlatformOptions options;
  options.num_workers = 1;
  options.worker_memory = MiB(512);
  MakePlatform(options, &hooks);
  RegisterTiny("a");
  RegisterTiny("b");
  rsds_.Seed("in/obj", MiB(1), {});

  std::vector<std::string> completion_order;
  InvocationRecord record_a;
  InvocationRecord record_b;
  platform_->Invoke("a", {InputObject{"in/obj", TinyImage(MiB(1))}}, {},
                    [&](const InvocationRecord& r) {
                      record_a = r;
                      completion_order.push_back("a");
                    });
  platform_->Invoke("b", {InputObject{"in/obj", TinyImage(MiB(1))}}, {},
                    [&](const InvocationRecord& r) {
                      record_b = r;
                      completion_order.push_back("b");
                    });
  while (completion_order.size() < 2 && loop_.Step()) {
  }
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_TRUE(record_a.oom_killed);
  EXPECT_FALSE(record_a.failed);
  EXPECT_FALSE(record_b.failed);
  EXPECT_EQ(completion_order.front(), "b");
}

TEST_F(PlatformTest, QueuedRequestDispatchesAfterWorkerRestore) {
  PlatformOptions options;
  options.num_workers = 1;
  MakePlatform(options);
  RegisterTiny("f");
  rsds_.Seed("in/obj", KiB(64), {});

  platform_->CrashWorker(0);
  InvocationRecord record;
  bool done = false;
  platform_->Invoke("f", {InputObject{"in/obj", TinyImage()}}, {},
                    [&](const InvocationRecord& r) {
                      record = r;
                      done = true;
                    });
  loop_.RunUntil(loop_.now() + Seconds(5));
  EXPECT_FALSE(done);  // Nowhere to run: the request waits (unbounded queue).
  platform_->RestoreWorker(0);
  while (!done && loop_.Step()) {
  }
  EXPECT_TRUE(done);
  EXPECT_FALSE(record.failed);
}

}  // namespace
}  // namespace ofc::faas
