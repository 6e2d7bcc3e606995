// Macro-experiment runner (§7.2.2) shared by the Figure 9, Figure 10 and
// Table 2 benches: FAASLOAD drives one tenant per function — the six Figure 7
// wand_* functions plus the map_reduce and THIS pipelines — for 30 simulated
// minutes with exponential(60 s) arrivals, under a tenant booking profile, on
// either vanilla OWK-Swift or OFC.
#ifndef OFC_BENCH_MACRO_COMMON_H_
#define OFC_BENCH_MACRO_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "src/faasload/runner.h"

namespace ofc::bench {

// The macro runs' stack: four workers of 160 GiB (the paper's are 512 GB
// machines), so the invoker pools absorb the pipeline fan-outs' concurrent
// 2 GB-booked sandboxes under the naive profile without queueing.
inline faasload::EnvironmentOptions MacroEnvironment() {
  faasload::EnvironmentOptions env;
  env.seed = 2021;
  env.platform.num_workers = 4;
  env.platform.worker_memory = GiB(160);
  return env;
}

struct MacroConfig {
  faasload::Mode mode = faasload::Mode::kOwkSwift;
  faasload::TenantProfile profile = faasload::TenantProfile::kNormal;
  int tenants_per_function = 1;  // 3 reproduces the 24-tenant variant.
  SimDuration duration = Minutes(30);
  faasload::EnvironmentOptions env = MacroEnvironment();
};

struct CacheSample {
  double minute = 0;
  Bytes capacity = 0;
  Bytes used = 0;
};

struct MacroResult {
  MacroConfig config;
  std::vector<faasload::TenantResult> tenants;
  std::vector<CacheSample> cache_series;
  // The registry every component of the run reported into (shared_ptr: the
  // runner dies inside RunMacro, the metrics outlive it with the result).
  // Baseline runs register no OFC families, so their OFC counters read 0.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  SimTime end_time = 0;  // Simulated clock when the run finished.
};

inline MacroResult RunMacro(const MacroConfig& config) {
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  faasload::EnvironmentOptions env_options = config.env;
  env_options.metrics = metrics.get();
  faasload::Runner run(config.mode, env_options, config.profile, env_options.seed);
  faasload::LoadInjector& injector = run.load();

  struct TenantTemplate {
    const char* function;
    bool pipeline;
    Bytes input;
  };
  const TenantTemplate kTemplates[] = {
      {"wand_blur", false, 0},   {"wand_resize", false, 0}, {"wand_sepia", false, 0},
      {"wand_rotate", false, 0}, {"wand_denoise", false, 0}, {"wand_edge", false, 0},
      {"map_reduce", true, MiB(30)}, {"THIS", true, MiB(125)},
  };
  for (int copy = 0; copy < config.tenants_per_function; ++copy) {
    for (const TenantTemplate& tmpl : kTemplates) {
      faasload::TenantSpec spec;
      spec.name = std::string(tmpl.function) + "#" + std::to_string(copy);
      spec.function = tmpl.function;
      spec.is_pipeline = tmpl.pipeline;
      spec.mean_interval_s = 60.0;  // Exponential arrivals, lambda = 60 s.
      // More tenants -> more distinct inputs per function (FAASLOAD prepares a
      // dataset per tenant), which pressures the cache as in the 24-tenant run.
      spec.dataset_objects = config.tenants_per_function == 1 ? 3 : 12;
      spec.pipeline_input_size = tmpl.input;
      const Status status = injector.AddTenant(spec);
      if (!status.ok()) {
        std::fprintf(stderr, "AddTenant(%s): %s\n", spec.name.c_str(),
                     status.ToString().c_str());
      }
    }
  }

  injector.PretrainModels(1000);  // Offline ML stage (the artifact ships this).

  MacroResult result;
  result.config = config;
  if (faasload::Environment& env = run.env(); env.ofc() != nullptr) {
    // Figure 10's cache-size series.
    injector.AddSampler(Seconds(30), [&env, &result] {
      CacheSample sample;
      sample.minute = ToSeconds(env.loop().now()) / 60.0;
      sample.capacity = env.cluster()->TotalCapacity();
      sample.used = env.cluster()->TotalUsed();
      result.cache_series.push_back(sample);
    });
  }

  (void)run.Run(config.duration);  // No attachments: cannot fail.

  result.tenants = injector.results();
  result.metrics = std::move(metrics);
  result.end_time = run.artifacts().final_time;
  return result;
}

}  // namespace ofc::bench

#endif  // OFC_BENCH_MACRO_COMMON_H_
