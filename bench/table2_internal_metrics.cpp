// Table 2 (§7.2.2): OFC's internal metrics during the macro workload with
// 8 tenants, for the three tenant profiles — cache scale-up/down counts and
// cumulative times, prediction quality, failed invocations, hit ratio, and
// ephemeral data volume.
//
// Expected shape: frequent scale operations (input variability) but negligible
// total scaling time; almost all predictions good; zero failed invocations;
// high cache hit ratio (90+ %) with naive the highest.
//
// Every row is read by family name from the MetricsRegistry the run reported
// into, so the table is exactly what --metrics-json would export. Accepts
// --metrics-json/--metrics-csv to dump the final (Advanced-profile) run's full
// snapshot.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/macro_common.h"

namespace ofc {
namespace {

void Run(const bench::ObsFlags& obs_flags) {
  bench::Banner("OFC internal metrics during the macro workload", "Table 2 (§7.2.2)");

  bench::Table table({"Metric", "Normal", "Naive", "Advanced"});
  std::vector<bench::MacroResult> results;
  for (faasload::TenantProfile profile :
       {faasload::TenantProfile::kNormal, faasload::TenantProfile::kNaive,
        faasload::TenantProfile::kAdvanced}) {
    bench::MacroConfig config;
    config.mode = faasload::Mode::kOfc;
    config.profile = profile;
    results.push_back(bench::RunMacro(config));
  }

  // Getters return a count or a double; every cell prints through Fmt.
  auto row = [&](const std::string& name, auto getter, const char* format) {
    std::vector<std::string> cells = {name};
    for (const bench::MacroResult& result : results) {
      cells.push_back(bench::Fmt(format, static_cast<double>(getter(*result.metrics))));
    }
    table.AddRow(std::move(cells));
  };

  row("# Scale up", [](const auto& m) { return m.CounterValue("ofc.cache_agent.scale_ups"); },
      "%.0f");
  row("Total scale up time (s)",
      [](const auto& m) { return m.GaugeValue("ofc.cache_agent.scale_up_time_us") / 1e6; },
      "%.3f");
  row("# Scale down (no eviction)",
      [](const auto& m) { return m.CounterValue("ofc.cache_agent.scale_downs_plain"); }, "%.0f");
  row("# Scale down (migration)",
      [](const auto& m) { return m.CounterValue("ofc.cache_agent.scale_downs_migration"); },
      "%.0f");
  row("# Scale down (eviction)",
      [](const auto& m) { return m.CounterValue("ofc.cache_agent.scale_downs_eviction"); },
      "%.0f");
  row("Total scale down time (s)",
      [](const auto& m) { return m.GaugeValue("ofc.cache_agent.scale_down_time_us") / 1e6; },
      "%.3f");
  row("# Bad predictions",
      [](const auto& m) { return m.CounterValue("ofc.predictor.bad_predictions"); }, "%.0f");
  row("# Good predictions",
      [](const auto& m) { return m.CounterValue("ofc.predictor.good_predictions"); }, "%.0f");
  row("# Failed invocations",
      [](const auto& m) { return m.CounterValue("ofc.platform.failed_invocations"); }, "%.0f");
  row("Cache hit ratio (%)",
      [](const auto& m) { return 100.0 * core::CacheHitRatio(m); }, "%.2f");
  row("Ephemeral data generated (GB)",
      [](const auto& m) {
        return static_cast<double>(m.CounterValue("ofc.platform.output_bytes")) / 1e9;
      },
      "%.2f");
  // Overload-protection health: with defaults (no queue bound, breaker off)
  // every row below must read zero — a nonzero cell flags config drift.
  auto wait_stat = [](const obs::MetricsRegistry& m, auto pick) {
    const obs::Series* wait = m.FindSeries("ofc.platform.queue_wait_ms");
    return wait == nullptr || wait->count() == 0 ? 0.0 : pick(wait->running());
  };
  row("Queue wait mean (ms)",
      [&](const auto& m) {
        return wait_stat(m, [](const auto& s) { return s.mean(); });
      },
      "%.3f");
  row("Queue wait max (ms)",
      [&](const auto& m) {
        return wait_stat(m, [](const auto& s) { return s.max(); });
      },
      "%.3f");
  row("# Shed (overload)", [](const auto& m) { return m.CounterTotal("ofc.overload.shed"); },
      "%.0f");
  row("# Breaker opens", [](const auto& m) { return m.CounterValue("ofc.breaker.opens"); },
      "%.0f");
  row("# Breaker bypassed ops",
      [](const auto& m) {
        return m.CounterValue("ofc.breaker.bypassed_reads") +
               m.CounterValue("ofc.breaker.bypassed_writes");
      },
      "%.0f");
  table.Print();

  std::printf(
      "\nExpected shape (paper, 8 tenants): ~95 scale-ups and ~230 scale-downs with\n"
      "seconds of cumulative scaling time, ~7 bad vs ~230 good predictions, zero\n"
      "failed invocations, hit ratio 93-99%% (naive highest).\n");

  const bench::MacroResult& last = results.back();
  bench::ExportObs(obs_flags, *last.metrics, last.end_time);
}

}  // namespace
}  // namespace ofc

int main(int argc, char** argv) {
  ofc::Run(ofc::bench::ParseObsFlags(argc, argv));
  return 0;
}
