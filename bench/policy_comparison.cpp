// Cache-policy comparison: runs the same workloads under every registered
// cache eviction/sweep policy (src/core/cache_policy.h) and reports, per
// policy, the cache hit ratio, the E+L milliseconds saved versus an OWK-Swift
// baseline, the evictions taken, and the bytes churned out of the cache.
//
// Two workloads are exercised:
//   * fig7-steady — the six Figure 7 wand_* functions under steady Poisson
//     arrivals (the §7.2.1 shape, many invocations per object);
//   * fig9-macro  — the §7.2.2 FAASLOAD macro mix (functions + pipelines)
//     via bench/macro_common.h.
// Both run with deliberately small workers so the capacity-eviction and
// cold-sweep paths actually fire; the paper's policy (`lru`) is the reference
// row, the alternatives show what the pluggable subsystem buys or costs.
//
// Usage:
//   policy_comparison [--out=BENCH_policies.json] [--duration-min=N] [--seed=N]
//
// The JSON artifact is consumed by CI (perf-smoke uploads it) and quoted in
// README.md's "Cache policies" section.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/macro_common.h"
#include "src/core/cache_policy.h"
#include "src/obs/export_util.h"

namespace ofc {
namespace {

struct Flags {
  std::string out = "BENCH_policies.json";
  int duration_min = 15;
  std::uint64_t seed = 2021;
};

// One (workload, policy) run reduced to the comparison quantities.
struct PolicyRun {
  std::string workload;
  std::string policy;  // "owk-swift" for the baseline row.
  std::uint64_t invocations = 0;
  double hit_ratio = 0.0;
  double el_ms_total = 0.0;   // Sum of E+L across all records, in ms.
  double el_ms_saved = 0.0;   // Baseline el_ms_total minus this run's.
  std::uint64_t evictions = 0;      // ofc.policy.evictions, all reasons.
  std::uint64_t bytes_churned = 0;  // ofc.policy.bytes_evicted, all reasons.
  std::uint64_t sweep_evictions = 0;
  double p95_ms = 0.0;  // Whole-invocation p95 across single-stage records.
};

// Sums E+L over every invocation and pipeline record of a finished run.
double SumElMs(const std::vector<faasload::TenantResult>& tenants) {
  SimDuration el = 0;
  for (const faasload::TenantResult& tenant : tenants) {
    for (const auto& record : tenant.invocations) {
      el += record.extract_time + record.load_time;
    }
    for (const auto& record : tenant.pipelines) {
      el += record.extract_time + record.load_time;
    }
  }
  return ToMillis(el);
}

double P95Ms(const std::vector<faasload::TenantResult>& tenants) {
  Samples latencies;
  for (const faasload::TenantResult& tenant : tenants) {
    for (const auto& record : tenant.invocations) {
      latencies.Add(ToMillis(record.total));
    }
    for (const auto& record : tenant.pipelines) {
      latencies.Add(ToMillis(record.total));
    }
  }
  return latencies.Percentile(0.95);
}

// Reads the run's hit ratio and the engine's eviction accounting out of its
// metrics registry. The policy cells exist for every OFC run (registered
// eagerly at engine creation); baseline modes leave every OFC family absent,
// so each read returns 0.
void ReadRegistry(const obs::MetricsRegistry& metrics, PolicyRun* stats) {
  stats->hit_ratio = core::CacheHitRatio(metrics);
  stats->evictions = metrics.CounterTotal("ofc.policy.evictions");
  stats->bytes_churned = metrics.CounterTotal("ofc.policy.bytes_evicted");
  stats->sweep_evictions = metrics.CounterValue("ofc.policy.evictions", "sweep");
}

// ---- fig7-steady: six wand_* tenants, steady Poisson arrivals -------------------

PolicyRun RunSteady(faasload::Mode mode, const std::string& policy, const Flags& flags) {
  auto metrics = std::make_unique<obs::MetricsRegistry>();
  faasload::EnvironmentOptions env_options;
  env_options.metrics = metrics.get();
  env_options.platform.num_workers = 2;
  // Small workers: the wand datasets oversubscribe the hoardable cache, so the
  // policies must actually choose victims.
  env_options.platform.worker_memory = GiB(6);
  env_options.ofc.cache_policy = policy;
  env_options.seed = flags.seed;
  faasload::Environment env(mode, env_options);
  faasload::LoadInjector injector(&env, faasload::TenantProfile::kNormal, flags.seed + 1);

  const char* kFunctions[] = {"wand_blur",   "wand_resize",  "wand_sepia",
                              "wand_rotate", "wand_denoise", "wand_edge"};
  for (const char* function : kFunctions) {
    faasload::TenantSpec spec;
    spec.name = std::string("t-") + function;
    spec.function = function;
    spec.mean_interval_s = 6.0;
    spec.dataset_objects = 8;
    const Status status = injector.AddTenant(spec);
    if (!status.ok()) {
      std::fprintf(stderr, "AddTenant(%s): %s\n", function, status.ToString().c_str());
    }
  }
  injector.PretrainModels(400);
  injector.Run(Minutes(flags.duration_min));

  PolicyRun stats;
  stats.workload = "fig7-steady";
  stats.policy = mode == faasload::Mode::kOwkSwift ? "owk-swift" : policy;
  stats.invocations = injector.invocations_completed();
  stats.el_ms_total = SumElMs(injector.results());
  stats.p95_ms = P95Ms(injector.results());
  ReadRegistry(*metrics, &stats);
  return stats;
}

// ---- fig9-macro: the §7.2.2 FAASLOAD mix via macro_common.h ---------------------

PolicyRun RunMacroWorkload(faasload::Mode mode, const std::string& policy,
                          const Flags& flags) {
  bench::MacroConfig config;
  config.mode = mode;
  config.env.ofc.cache_policy = policy;
  config.duration = Minutes(flags.duration_min);
  config.env.seed = flags.seed;
  // Small enough that the macro mix's pipelines put the cache under shrink
  // pressure, large enough that the 2 GiB-booked sandboxes never queue.
  config.env.platform.worker_memory = GiB(24);
  const bench::MacroResult result = bench::RunMacro(config);

  PolicyRun stats;
  stats.workload = "fig9-macro";
  stats.policy = mode == faasload::Mode::kOwkSwift ? "owk-swift" : policy;
  stats.invocations = result.metrics->CounterValue("ofc.platform.invocations");
  stats.el_ms_total = SumElMs(result.tenants);
  stats.p95_ms = P95Ms(result.tenants);
  ReadRegistry(*result.metrics, &stats);
  return stats;
}

std::string ToJson(const std::vector<PolicyRun>& rows, const Flags& flags) {
  std::string json = "{\n";
  json += "  \"duration_min\": " + std::to_string(flags.duration_min) + ",\n";
  json += "  \"seed\": " + std::to_string(flags.seed) + ",\n";
  json += "  \"policies\": [";
  bool first = true;
  for (const std::string& name : core::KnownCachePolicies()) {
    json += std::string(first ? "" : ", ") + "\"" + name + "\"";
    first = false;
  }
  json += "],\n";
  json += "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PolicyRun& row = rows[i];
    json += "    {\"workload\": \"" + row.workload + "\", \"policy\": \"" + row.policy +
            "\", \"invocations\": " + std::to_string(row.invocations) +
            ", \"hit_ratio\": " + obs::JsonNumber(row.hit_ratio) +
            ", \"el_ms_total\": " + obs::JsonNumber(row.el_ms_total) +
            ", \"el_ms_saved\": " + obs::JsonNumber(row.el_ms_saved) +
            ", \"evictions\": " + std::to_string(row.evictions) +
            ", \"sweep_evictions\": " + std::to_string(row.sweep_evictions) +
            ", \"bytes_churned\": " + std::to_string(row.bytes_churned) +
            ", \"p95_ms\": " + obs::JsonNumber(row.p95_ms) + "}";
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  return json;
}

int Run(const Flags& flags) {
  std::vector<PolicyRun> rows;
  const std::vector<std::string> policies = core::KnownCachePolicies();

  struct Workload {
    const char* name;
    PolicyRun (*run)(faasload::Mode, const std::string&, const Flags&);
  };
  const Workload kWorkloads[] = {
      {"fig7-steady", &RunSteady},
      {"fig9-macro", &RunMacroWorkload},
  };

  for (const Workload& workload : kWorkloads) {
    std::printf("\n--- workload: %s ---\n", workload.name);
    const PolicyRun baseline =
        workload.run(faasload::Mode::kOwkSwift, "lru", flags);
    bench::Table table({"Policy", "Invocations", "Hit ratio (%)", "E+L saved (s)",
                        "Evictions", "Swept", "Bytes churned", "p95 (ms)"});
    table.AddRow({baseline.policy, std::to_string(baseline.invocations), "-", "-",
                  "-", "-", "-", bench::Fmt("%.1f", baseline.p95_ms)});
    rows.push_back(baseline);
    for (const std::string& policy : policies) {
      PolicyRun stats = workload.run(faasload::Mode::kOfc, policy, flags);
      stats.el_ms_saved = baseline.el_ms_total - stats.el_ms_total;
      table.AddRow({stats.policy, std::to_string(stats.invocations),
                    bench::Fmt("%.1f", 100.0 * stats.hit_ratio),
                    bench::Fmt("%.2f", stats.el_ms_saved / 1e3),
                    std::to_string(stats.evictions), std::to_string(stats.sweep_evictions),
                    FormatBytes(static_cast<Bytes>(stats.bytes_churned)),
                    bench::Fmt("%.1f", stats.p95_ms)});
      rows.push_back(stats);
    }
    table.Print();
  }

  const std::string json = ToJson(rows, flags);
  std::FILE* f = std::fopen(flags.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", flags.out.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", flags.out.c_str());
  return 0;
}

}  // namespace
}  // namespace ofc

int main(int argc, char** argv) {
  ofc::Flags flags;
  for (int i = 1; i < argc; ++i) {
    const auto parse = [&](const char* name, std::string* out) {
      const std::size_t len = std::strlen(name);
      if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
        *out = argv[i] + len + 1;
        return true;
      }
      return false;
    };
    std::string value;
    if (parse("--out", &flags.out)) {
    } else if (parse("--duration-min", &value)) {
      flags.duration_min = std::atoi(value.c_str());
    } else if (parse("--seed", &value)) {
      flags.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: policy_comparison [--out=PATH] [--duration-min=N] [--seed=N]\n");
      return 2;
    }
  }
  ofc::bench::Banner(
      "Cache eviction/sweep policies under the Figure 7 and Figure 9 workloads",
      "extension of §6.3/§6.4 (policy subsystem; lru = the paper's behaviour)");
  return ofc::Run(flags);
}
