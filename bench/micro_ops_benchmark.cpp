// google-benchmark microbenchmarks for the hot paths: critical-path ML
// prediction (the §5.1.1 1 ms budget), event-loop throughput, the platform's
// warm-invocation round trip, cache cluster read/write, the log allocator, and
// one telemetry scrape — for performance-regression tracking rather than paper
// reproduction.
#include <benchmark/benchmark.h>

#include "bench/trace_util.h"
#include "src/faas/platform.h"
#include "src/ml/j48.h"
#include "src/ml/random_forest.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/timeline.h"
#include "src/ramcloud/cluster.h"
#include "src/ramcloud/segmented_log.h"
#include "src/sim/event_loop.h"

namespace ofc {
namespace {

const ml::Dataset& BenchDataset() {
  static const ml::Dataset data = bench::BuildMemoryDataset(
      *workloads::FindFunction("wand_sepia"), core::MemoryIntervals(), 400, 12345);
  return data;
}

void BM_J48Predict(benchmark::State& state) {
  ml::J48 model;
  if (!model.Train(BenchDataset()).ok()) {
    state.SkipWithError("training failed");
    return;
  }
  std::size_t i = 0;
  const auto& instances = BenchDataset().instances();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(instances[i].features));
    i = (i + 1) % instances.size();
  }
}
BENCHMARK(BM_J48Predict);

void BM_J48PredictWithMissingFeature(benchmark::State& state) {
  ml::J48 model;
  if (!model.Train(BenchDataset()).ok()) {
    state.SkipWithError("training failed");
    return;
  }
  std::vector<double> features = BenchDataset().instance(0).features;
  features[0] = std::numeric_limits<double>::quiet_NaN();  // Blend path.
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(features));
  }
}
BENCHMARK(BM_J48PredictWithMissingFeature);

void BM_J48Train(benchmark::State& state) {
  for (auto _ : state) {
    ml::J48 model;
    benchmark::DoNotOptimize(model.Train(BenchDataset()).ok());
  }
}
BENCHMARK(BM_J48Train);

// Retraining at the size the simulator retrains at (§5.3.3): a full curated
// set of 1,500 instances, labelled with the 128 memory intervals and with the
// two benefit classes.
const ml::Dataset& CuratedMemorySet() {
  static const ml::Dataset data = bench::BuildMemoryDataset(
      *workloads::FindFunction("video_grayscale"), core::MemoryIntervals(), 1500, 12345);
  return data;
}

const ml::Dataset& CuratedBenefitSet() {
  static const ml::Dataset data =
      bench::BuildBenefitDataset(*workloads::FindFunction("video_grayscale"),
                                 store::StoreProfile::Swift(), 1500, 12345);
  return data;
}

void Retrain(benchmark::State& state, const ml::Dataset& data) {
  ml::J48 model;  // Reused across retrains, as FunctionModel does.
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Train(data).ok());
  }
  std::size_t present = 0;
  for (double weight : data.ClassDistribution()) {
    present += weight > 0.0;
  }
  state.counters["classes_present"] = static_cast<double>(present);
  state.counters["nodes"] = static_cast<double>(model.NumNodes());
}

void BM_J48RetrainMemory1500(benchmark::State& state) { Retrain(state, CuratedMemorySet()); }
BENCHMARK(BM_J48RetrainMemory1500)->Unit(benchmark::kMicrosecond);

void BM_J48RetrainBenefit1500(benchmark::State& state) { Retrain(state, CuratedBenefitSet()); }
BENCHMARK(BM_J48RetrainBenefit1500)->Unit(benchmark::kMicrosecond);

void BM_RandomForestPredict(benchmark::State& state) {
  ml::RandomForest model(ml::RandomForestOptions{.num_trees = 20, .seed = 3});
  if (!model.Train(BenchDataset()).ok()) {
    state.SkipWithError("training failed");
    return;
  }
  std::size_t i = 0;
  const auto& instances = BenchDataset().instances();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(instances[i].features));
    i = (i + 1) % instances.size();
  }
}
BENCHMARK(BM_RandomForestPredict);

void BM_EventLoopScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.ScheduleAfter(i, [&sink] { ++sink; });
    }
    loop.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopScheduleAndRun);

// Completes every read and write at the current instant, so the platform's own
// dispatch and phase bookkeeping is all that is timed.
class ZeroLatencyDataService : public faas::DataService {
 public:
  explicit ZeroLatencyDataService(sim::EventLoop* loop) : loop_(loop) {}
  void Read(const faas::InvocationContext&, const std::string&,
            std::function<void(Result<Bytes>)> done) override {
    loop_->ScheduleAfter(0, [done = std::move(done)] { done(KiB(64)); });
  }
  void Write(const faas::InvocationContext&, const std::string&, Bytes,
             const workloads::MediaDescriptor&, std::function<void(Status)> done) override {
    loop_->ScheduleAfter(0, [done = std::move(done)] { done(OkStatus()); });
  }

 private:
  sim::EventLoop* loop_;
};

// One warm invocation round trip, at the shape of perfbench's azure-owk
// workload: 64 functions and ~200 warm sandboxes, with 13 idle candidates for
// the invoked function.
void BM_PlatformWarmInvoke(benchmark::State& state) {
  constexpr int kFunctions = 64;
  constexpr int kHotSandboxes = 13;
  constexpr int kColdSandboxes = 3;  // For each of the other 63 functions.
  sim::EventLoop loop;
  ZeroLatencyDataService data(&loop);
  faas::PlatformOptions options;
  options.worker_memory = GiB(16);
  options.keep_alive = Seconds(1000L * 1000 * 1000);  // Nothing expires.
  faas::Platform platform(&loop, options, &data, nullptr, Rng(5));

  workloads::MediaDescriptor media;
  media.kind = workloads::InputKind::kImage;
  media.width = 800;
  media.height = 800;
  media.byte_size = KiB(64);
  std::vector<std::string> names;
  for (int f = 0; f < kFunctions; ++f) {
    faas::FunctionConfig config;
    config.spec.name = "fn" + std::to_string(f);
    config.spec.kind = workloads::InputKind::kImage;
    config.spec.base_mem_mb = 100;
    config.spec.mem_copies = 5;
    config.spec.compute_us_per_mb = 50;
    config.booked_memory = MiB(256);
    if (!platform.RegisterFunction(config).ok()) {
      state.SkipWithError("registration failed");
      return;
    }
    names.push_back(config.spec.name);
  }
  auto invoke = [&](const std::string& name, int* done) {
    platform.Invoke(name, {faas::InputObject{"in/obj", media}}, {},
                    [done](const faas::InvocationRecord&) { ++*done; });
  };
  // Concurrent cold starts leave that many idle sandboxes per function.
  int started = 0;
  int finished = 0;
  for (int f = 0; f < kFunctions; ++f) {
    const int copies = f == 0 ? kHotSandboxes : kColdSandboxes;
    for (int c = 0; c < copies; ++c, ++started) {
      invoke(names[static_cast<std::size_t>(f)], &finished);
    }
  }
  while (finished < started && loop.Step()) {
  }
  if (platform.NumIdleSandboxes(names[0]) != kHotSandboxes) {
    state.SkipWithError("unexpected warm pool");
    return;
  }

  for (auto _ : state) {
    const int target = finished + 1;
    invoke(names[0], &finished);
    while (finished < target && loop.Step()) {
    }
    benchmark::DoNotOptimize(finished);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sandboxes"] = started;
  state.counters["idle_candidates"] = kHotSandboxes;
}
BENCHMARK(BM_PlatformWarmInvoke);

void BM_ClusterWriteRead(benchmark::State& state) {
  sim::EventLoop loop;
  rc::ClusterOptions options;
  options.default_capacity = GiB(4);
  rc::Cluster cluster(&loop, 4, options, Rng(7));
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i % 512);
    cluster.Write(static_cast<int>(i % 4), key, KiB(64), 1, rc::ObjectClass::kInput,
                  false, [](Status) {});
    cluster.Read(static_cast<int>((i + 1) % 4), key, [](Result<rc::ReadHit>) {});
    loop.Run();
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ClusterWriteRead);

void BM_SegmentedLogChurn(benchmark::State& state) {
  rc::SegmentedLog log;
  Rng rng(11);
  std::vector<rc::SegmentedLog::EntryId> live;
  for (auto _ : state) {
    if (live.size() < 256 || rng.Bernoulli(0.6)) {
      const auto id = log.Append(rng.UniformInt(KiB(1), KiB(512)), GiB(1));
      if (id.ok()) {
        live.push_back(*id);
      }
    } else {
      const std::size_t pick = rng.Index(live.size());
      (void)log.Free(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentedLogChurn);

// One telemetry scrape, SloMonitor::Evaluate then TimelineRecorder::Scrape, at
// the shape of perfbench's azure-ofc-observed workload: six platform series
// holding up to range(0) stored samples, 20 per-function series holding a
// twentieth of that, and 840 new observations per series per scrape (42 per
// per-function series). Observations are added with the timer paused. Every
// kRounds scrapes the series are reset and refilled untimed, so the timed
// scrapes see between range(0) - (kRounds - 1) * 840 and range(0) samples.
void BM_TimelineScrape(benchmark::State& state) {
  constexpr std::size_t kFunctions = 20;
  constexpr std::size_t kNew = 840;
  constexpr std::size_t kRounds = 4;
  const auto stored = static_cast<std::size_t>(state.range(0));
  obs::MetricsRegistry registry;
  std::vector<obs::Series*> platform;
  for (const char* name : {"ofc.platform.queue_wait_ms", "ofc.platform.startup_ms",
                           "ofc.platform.extract_ms", "ofc.platform.transform_ms",
                           "ofc.platform.load_ms", "ofc.platform.total_ms"}) {
    platform.push_back(registry.GetSeries(name));
  }
  std::vector<obs::Series*> by_function;
  for (std::size_t f = 0; f < kFunctions; ++f) {
    by_function.push_back(
        registry.GetSeries("ofc.platform.total_ms_by_function", "fn" + std::to_string(f)));
  }
  std::vector<obs::SloSpec> specs;
  std::string error;
  if (!obs::ParseSloSpecs("latency=lat:ofc.platform.total_ms:p99:2000", &specs, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  obs::SloMonitor slo(&registry, nullptr, std::move(specs));
  obs::TimelineRecorder timeline(&registry);
  Rng rng(13);
  const auto observe = [&](std::size_t n) {
    for (obs::Series* series : platform) {
      for (std::size_t i = 0; i < n; ++i) {
        series->Observe(rng.Exponential(200.0));
      }
    }
    for (obs::Series* series : by_function) {
      for (std::size_t i = 0; i < n / kFunctions; ++i) {
        series->Observe(rng.Exponential(200.0));
      }
    }
  };
  SimTime now = 0;
  const auto scrape = [&] {
    now += Seconds(10);
    slo.Evaluate(now);
    timeline.Scrape(now);
  };
  std::size_t round = kRounds;
  for (auto _ : state) {
    state.PauseTiming();
    if (round == kRounds) {
      for (obs::Series* series : platform) {
        series->Reset();
      }
      for (obs::Series* series : by_function) {
        series->Reset();
      }
      observe(stored - kRounds * kNew);
      scrape();  // The scrape before the timed ones, as in a running simulation.
      round = 0;
    }
    observe(kNew);
    ++round;
    state.ResumeTiming();
    scrape();
    benchmark::DoNotOptimize(timeline.windows().back());
  }
  state.counters["series"] = static_cast<double>(platform.size() + by_function.size());
}
BENCHMARK(BM_TimelineScrape)->Arg(8192)->Arg(32768)->Arg(65536)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ofc

BENCHMARK_MAIN();
