// google-benchmark microbenchmarks for the hot paths: critical-path ML
// prediction (the §5.1.1 1 ms budget), event-loop throughput, cache cluster
// read/write, and the log allocator — for performance-regression tracking
// rather than paper reproduction.
#include <benchmark/benchmark.h>

#include "bench/trace_util.h"
#include "src/ml/j48.h"
#include "src/ml/random_forest.h"
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
    cluster.Read(static_cast<int>((i + 1) % 4), key, [](Result<rc::CachedObject>) {});
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

}  // namespace
}  // namespace ofc

BENCHMARK_MAIN();
