// Figure 8 + §7.2.1: impact of OFC's cache scaling on function latency
// (wand_sepia) under four worker states:
//   Sc0 — no cache shrink needed;
//   Sc1 — shrink without data migration/eviction (capacity adjustment only);
//   Sc2 — shrink with master migration to another node;
//   Sc3 — shrink with eviction (no node can absorb migrations).
// Also reproduces the §7.2.1 migration-time curve (8 MB .. 1 GB).
//
// Expected shape: cgroup resize is a ~24 ms constant; Sc1/Sc3 scaling costs are
// sub-millisecond; Sc2 grows with the migrated volume; worst-case total scaling
// is a large share of a tiny (1 kB) invocation and negligible for larger ones.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/micro_common.h"

namespace ofc {
namespace {

enum class ShrinkScenario { kSc0, kSc1, kSc2, kSc3 };

const char* ScenarioLabel(ShrinkScenario scenario) {
  switch (scenario) {
    case ShrinkScenario::kSc0:
      return "Sc0 (no shrink)";
    case ShrinkScenario::kSc1:
      return "Sc1 (plain shrink)";
    case ShrinkScenario::kSc2:
      return "Sc2 (migration)";
    case ShrinkScenario::kSc3:
      return "Sc3 (eviction)";
  }
  return "?";
}

struct ScalingResult {
  double scaling_ms = 0;
  double cgroup_ms = 0;
  double exec_ms = 0;
};

ScalingResult RunScenario(ShrinkScenario scenario, Bytes input_size) {
  faasload::EnvironmentOptions env_options;
  env_options.platform.num_workers = 2;
  // Small workers so a sandbox growth puts real pressure on the cache.
  env_options.platform.worker_memory = MiB(1024);
  env_options.seed = 99;
  faasload::Environment env(faasload::Mode::kOfc, env_options);

  const workloads::FunctionSpec* spec = workloads::FindFunction("wand_sepia");
  faas::FunctionConfig config;
  config.spec = *spec;
  // Booked within the (small) worker pool; the hoard is booked - predicted.
  config.booked_memory = MiB(512);
  (void)env.platform().RegisterFunction(config);
  Rng rng(7);
  Rng pretrain_rng = rng.Fork();
  env.ofc()->trainer().Pretrain(*spec, 1000, pretrain_rng);

  // Warm a minimal (64 MB) sandbox with a 1 kB input.
  workloads::MediaGenerator generator(rng.Fork());
  const workloads::MediaDescriptor tiny =
      generator.GenerateWithByteSize(spec->kind, KiB(1));
  env.rsds().Seed("bench/tiny", tiny.byte_size, faas::MediaToTags(tiny));
  auto invoke = [&](const std::string& key, const workloads::MediaDescriptor& media) {
    faas::InvocationRecord out;
    bool done = false;
    env.platform().Invoke("wand_sepia", {faas::InputObject{key, media}},
                          workloads::SampleArgs(*spec, rng),
                          [&](const faas::InvocationRecord& r) {
                            out = r;
                            done = true;
                          });
    // Bounded drive: the CacheAgent's periodic timers keep the loop non-empty
    // forever, so cap the simulated wait.
    const SimTime deadline = env.loop().now() + Minutes(5);
    while (!done && env.loop().now() < deadline && env.loop().Step()) {
    }
    return out;
  };
  const faas::InvocationRecord warmup = invoke("bench/tiny", tiny);
  const int worker = warmup.worker;
  const int other = (worker + 1) % 2;

  // Stage the cache state for the scenario. Clean 8 MiB input objects fill the
  // target worker; Sc3 additionally fills the other worker so migration is
  // impossible. In Sc0 the cache stays nearly empty (shrink target is still
  // above usage), in Sc1 usage is low enough that no object must move.
  auto fill_node = [&](int node, int objects) {
    for (int i = 0; i < objects; ++i) {
      bool done = false;
      env.cluster()->Write(node, "fill/" + std::to_string(node) + "/" + std::to_string(i),
                           MiB(8), 1, rc::ObjectClass::kInput, /*dirty=*/false,
                           [&](Status) { done = true; });
      while (!done && env.loop().Step()) {
      }
    }
  };
  switch (scenario) {
    case ShrinkScenario::kSc0:
    case ShrinkScenario::kSc1:
      break;  // Cache (nearly) empty.
    case ShrinkScenario::kSc2:
      // Fill the target node with clean inputs whose backups live on the other
      // node, and give that node spare capacity: the shrink migrates masters
      // there instead of evicting.
      (void)env.cluster()->SetCapacity(other, MiB(512));
      fill_node(worker, static_cast<int>(env.cluster()->FreeMemory(worker) / MiB(8)));
      break;
    case ShrinkScenario::kSc3:
      // Same pressure, but the other node has no spare capacity (its own
      // sandboxes hoard nothing): migration is impossible, objects are evicted.
      fill_node(worker, static_cast<int>(env.cluster()->FreeMemory(worker) / MiB(8)));
      break;
  }

  const workloads::MediaDescriptor target =
      generator.GenerateWithByteSize(spec->kind, input_size);
  env.rsds().Seed("bench/target", target.byte_size, faas::MediaToTags(target));

  // Sc0: the warm sandbox is already sized for this invocation (a previous run
  // of the same input resized it), so no shrink happens on the measured run.
  Bytes limit_before = warmup.memory_limit;
  if (scenario == ShrinkScenario::kSc0) {
    limit_before = invoke("bench/target", target).memory_limit;
  }

  auto scale_down_time = [&env] {
    return static_cast<SimDuration>(
        env.metrics().GaugeValue("ofc.cache_agent.scale_down_time_us"));
  };
  const SimDuration scale_down_before = scale_down_time();
  const faas::InvocationRecord measured = invoke("bench/target", target);

  ScalingResult out;
  out.scaling_ms = ToMillis(scale_down_time() - scale_down_before);
  // The docker-update cost applies only when the invocation actually resized
  // the container.
  out.cgroup_ms = measured.memory_limit == limit_before
                      ? 0.0
                      : ToMillis(env.platform().options().cgroup_resize);
  out.exec_ms = ToMillis(measured.total);
  return out;
}

void ScalingImpact() {
  bench::Banner("Cache-scaling impact on wand_sepia latency", "Figure 8 (§7.2.1)");
  bench::Table table({"Input size", "Scenario", "scaling (ms)", "cgroup-sys (ms)",
                      "exec time (ms)", "scaling share (%)"});
  for (Bytes size : {KiB(1), KiB(256), KiB(1024), KiB(3072)}) {
    for (ShrinkScenario scenario : {ShrinkScenario::kSc0, ShrinkScenario::kSc1,
                                    ShrinkScenario::kSc2, ShrinkScenario::kSc3}) {
      const ScalingResult result = RunScenario(scenario, size);
      const double share =
          result.exec_ms <= 0
              ? 0
              : 100.0 * (result.scaling_ms + result.cgroup_ms) / result.exec_ms;
      table.AddRow({FormatBytes(size), ScenarioLabel(scenario),
                    bench::Fmt("%.3f", result.scaling_ms),
                    bench::Fmt("%.1f", result.cgroup_ms), bench::Fmt("%.1f", result.exec_ms),
                    bench::Fmt("%.1f", share)});
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: cgroup-sys ~23.8 ms whenever the container resizes (at 1 kB\n"
      "the predicted size matches the warm 64 MB container, so nothing moves);\n"
      "Sc1 scaling is sub-ms, Sc2/Sc3 grow with the migrated/evicted volume; the\n"
      "overhead is a large share only for small, fast invocations (§7.2.1: 50.4%%\n"
      "worst case) and amortizes away with input size.\n");
}

void MigrationTimes() {
  bench::Banner("Optimized master-migration times vs object size",
                "§7.2.1 (0.18 ms @ 8 MB ... 13.5 ms @ 1 GB)");
  sim::EventLoop loop;
  rc::ClusterOptions options;
  options.max_object_size = GiB(1);
  options.default_capacity = GiB(4);
  rc::Cluster cluster(&loop, 3, options, Rng(5));
  bench::Table table({"Object size", "Migration time (ms)", "Paper (ms)"});
  struct Point {
    Bytes size;
    const char* paper;
  };
  for (const Point& point : {Point{MiB(8), "0.18"}, Point{MiB(64), "1.2"},
                             Point{MiB(256), "3.8"}, Point{MiB(512), "7.5"},
                             Point{GiB(1), "13.5"}}) {
    const std::string key = "obj" + std::to_string(point.size);
    bool done = false;
    cluster.Write(0, key, point.size, 1, rc::ObjectClass::kInput, false,
                  [&](Status) { done = true; });
    loop.Run();
    const auto result = cluster.MigrateMaster(key);
    table.AddRow({FormatBytes(point.size),
                  result.ok() ? bench::Fmt("%.2f", ToMillis(result->duration)) : "failed",
                  point.paper});
    (void)done;
  }
  table.Print();
}

}  // namespace
}  // namespace ofc

int main() {
  ofc::ScalingImpact();
  ofc::MigrationTimes();
  return 0;
}
