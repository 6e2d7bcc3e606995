// Multi-tenant FAASLOAD run: five tenants with different functions share four
// workers for ten simulated minutes; prints per-tenant latency summaries and
// OFC's internal counters. A smaller interactive version of the §7.2.2 macro
// experiment (the full one lives in bench/fig9_macro_workload).
//
// Run: ./build/examples/multi_tenant
#include <cstdio>

#include "src/common/stats.h"
#include "src/faasload/environment.h"
#include "src/faasload/injector.h"

using namespace ofc;

int main() {
  faasload::EnvironmentOptions options;
  options.platform.num_workers = 4;
  options.platform.worker_memory = GiB(16);
  options.seed = 2026;
  faasload::Environment env(faasload::Mode::kOfc, options);

  faasload::LoadInjector injector(&env, faasload::TenantProfile::kNormal, 11);
  const char* kFunctions[] = {"wand_blur", "sharp_resize", "audio_normalize",
                              "wand_thumbnail", "text_summarize"};
  for (const char* function : kFunctions) {
    faasload::TenantSpec spec;
    spec.name = std::string("tenant-") + function;
    spec.function = function;
    spec.mean_interval_s = 20.0;  // Poisson arrivals, one every ~20 s.
    spec.dataset_objects = 4;
    if (!injector.AddTenant(spec).ok()) {
      return 1;
    }
  }
  injector.PretrainModels(1000);
  injector.Run(Minutes(10));

  std::printf("%-24s %-6s %-12s %-12s %-10s\n", "tenant", "invoc", "median (ms)",
              "p95 (ms)", "failures");
  for (const faasload::TenantResult& tenant : injector.results()) {
    Samples latencies;
    for (const auto& record : tenant.invocations) {
      latencies.Add(ToMillis(record.total));
    }
    std::printf("%-24s %-6zu %-12.1f %-12.1f %-10zu\n", tenant.name.c_str(),
                tenant.invocations.size(), latencies.Median(), latencies.Percentile(0.95),
                tenant.FailureCount());
  }

  // Every OFC component reported into the environment's metrics registry.
  const obs::MetricsRegistry& m = env.metrics();
  auto ull = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  std::printf("\nOFC internals over the run:\n");
  std::printf("  cache hit ratio        %.1f %%\n", 100.0 * core::CacheHitRatio(m));
  std::printf("  cache scale ups/downs  %llu / %llu\n",
              ull(m.CounterValue("ofc.cache_agent.scale_ups")),
              ull(m.CounterValue("ofc.cache_agent.scale_downs_plain") +
                  m.CounterValue("ofc.cache_agent.scale_downs_migration") +
                  m.CounterValue("ofc.cache_agent.scale_downs_eviction")));
  std::printf("  model predictions      %llu (bad: %llu)\n",
              ull(m.CounterValue("ofc.predictor.model_predictions")),
              ull(m.CounterValue("ofc.predictor.bad_predictions")));
  std::printf("  persistor runs         %llu\n",
              ull(m.CounterValue("ofc.proxy.persistor_runs")));
  return 0;
}
