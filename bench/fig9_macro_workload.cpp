// Figure 9 (§7.2.2): total execution time of all invocations per function,
// for the three tenant booking profiles (normal / naive / advanced), comparing
// OWK-Swift and OFC. Pass --tenants-per-function=3 for the 24-tenant variant.
//
// Expected shape: OFC always beats OWK-Swift, by roughly 24-80 % with 8
// tenants; with 24 tenants the hit ratio drops and the improvement shrinks.
#include <cstdio>
#include <cstring>
#include <map>

#include "bench/bench_util.h"
#include "bench/macro_common.h"

namespace ofc {
namespace {

// Sums the execution time across all tenants of each function.
std::map<std::string, double> TotalsByFunction(const bench::MacroResult& result) {
  std::map<std::string, double> totals;
  for (const faasload::TenantResult& tenant : result.tenants) {
    totals[tenant.function] += ToSeconds(tenant.TotalExecutionTime());
  }
  return totals;
}

std::size_t TotalFailures(const bench::MacroResult& result) {
  std::size_t failures = 0;
  for (const faasload::TenantResult& tenant : result.tenants) {
    failures += tenant.FailureCount();
  }
  return failures;
}

void Run(int tenants_per_function) {
  bench::Banner("Macro workload: total execution time per function, OWK-Swift vs OFC",
                "Figure 9 (§7.2.2); --tenants-per-function=3 gives the 24-tenant variant");
  std::printf("Tenants per function: %d\n", tenants_per_function);

  for (faasload::TenantProfile profile :
       {faasload::TenantProfile::kNormal, faasload::TenantProfile::kNaive,
        faasload::TenantProfile::kAdvanced}) {
    bench::MacroConfig config;
    config.profile = profile;
    config.tenants_per_function = tenants_per_function;

    config.mode = faasload::Mode::kOwkSwift;
    const bench::MacroResult swift = bench::RunMacro(config);
    config.mode = faasload::Mode::kOfc;
    const bench::MacroResult ofc_run = bench::RunMacro(config);

    std::printf("\n--- profile: %s ---\n",
                faasload::TenantProfileName(profile).c_str());
    bench::Table table(
        {"Function", "OWK-Swift total (s)", "OFC total (s)", "improvement (%)"});
    const auto swift_totals = TotalsByFunction(swift);
    const auto ofc_totals = TotalsByFunction(ofc_run);
    double improvement_sum = 0;
    int rows = 0;
    for (const auto& [function, swift_total] : swift_totals) {
      const double ofc_total = ofc_totals.count(function) ? ofc_totals.at(function) : 0;
      const double gain =
          swift_total <= 0 ? 0 : 100.0 * (swift_total - ofc_total) / swift_total;
      improvement_sum += gain;
      ++rows;
      table.AddRow({function, bench::Fmt("%.1f", swift_total),
                    bench::Fmt("%.1f", ofc_total), bench::Fmt("%+.1f", gain)});
    }
    table.Print();
    std::printf("Average improvement: %.1f %% | hit ratio: %.1f %% | failures: "
                "swift=%zu ofc=%zu\n",
                rows == 0 ? 0.0 : improvement_sum / rows,
                100.0 * core::CacheHitRatio(*ofc_run.metrics), TotalFailures(swift),
                TotalFailures(ofc_run));
  }
  std::printf(
      "\nExpected shape: OFC improves every function (paper: 23.9-79.8%%, avg 54.6%%\n"
      "with 8 tenants; 4.5-44.9%% with 24 tenants as the hit ratio drops).\n");
}

}  // namespace
}  // namespace ofc

int main(int argc, char** argv) {
  int tenants_per_function = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tenants-per-function=", 23) == 0) {
      tenants_per_function = std::atoi(argv[i] + 23);
    }
  }
  ofc::Run(tenants_per_function < 1 ? 1 : tenants_per_function);
  return 0;
}
