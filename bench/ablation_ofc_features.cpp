// Ablation study (beyond the paper's tables): contribution of OFC's individual
// design choices, isolated by disabling one mechanism at a time on the same
// multi-tenant workload.
//
//   * full            — OFC as evaluated in §7;
//   * no-bump         — no §5.3.1 conservative next-interval allocation
//                       (expect OOM rescues/retries to appear);
//   * no-locality     — vanilla OWK routing instead of §6.5
//                       (expect remote hits to replace local hits);
//   * no-write-back   — synchronous output persistence instead of §6.2's
//                       shadow + persistor (expect Load phases to balloon);
//   * relaxed         — §6.2 opt-out: no shadow objects, lazy persistence
//                       (expect the fastest writes; external consistency is
//                       the tenant's problem).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/faasload/environment.h"
#include "src/faasload/injector.h"

namespace ofc {
namespace {

struct Variant {
  const char* name;
  bool conservative_bump = true;
  bool locality_routing = true;
  bool write_back = true;
  bool transparent = true;
};

struct VariantResult {
  double total_s = 0;
  double mean_load_ms = 0;
  std::uint64_t oom_events = 0;
  double hit_ratio = 0;
  double local_hit_share = 0;
};

VariantResult RunVariant(const Variant& variant) {
  faasload::EnvironmentOptions options;
  options.platform.num_workers = 4;
  // Tight worker pools: sandboxes get reclaimed between invocations, so new
  // sandboxes are created regularly and placement (locality) matters.
  options.platform.worker_memory = MiB(1536);
  options.seed = 321;
  options.ofc.model.conservative_bump = variant.conservative_bump;
  options.ofc.locality_routing = variant.locality_routing;
  options.ofc.proxy.write_back = variant.write_back;
  options.ofc.proxy.transparent_consistency = variant.transparent;
  faasload::Environment env(faasload::Mode::kOfc, options);

  faasload::LoadInjector injector(&env, faasload::TenantProfile::kNormal, 654);
  for (const char* function :
       {"wand_blur", "wand_sepia", "wand_edge", "sharp_resize", "wand_thumbnail",
        "wand_rotate", "wand_denoise", "img_watermark"}) {
    faasload::TenantSpec spec;
    spec.name = std::string("t-") + function;
    spec.function = function;
    spec.mean_interval_s = 15.0;
    spec.dataset_objects = 3;
    spec.object_size = MiB(1);
    if (!injector.AddTenant(spec).ok()) {
      std::fprintf(stderr, "tenant setup failed for %s\n", function);
    }
  }
  injector.PretrainModels(1000);
  injector.Run(Minutes(15));

  VariantResult result;
  std::size_t invocations = 0;
  double load_ms_sum = 0;
  for (const auto& tenant : injector.results()) {
    for (const auto& record : tenant.invocations) {
      result.total_s += ToSeconds(record.total);
      load_ms_sum += ToMillis(record.load_time);
      result.oom_events += record.oom_killed || record.oom_rescued;
      ++invocations;
    }
  }
  result.mean_load_ms = invocations == 0 ? 0 : load_ms_sum / static_cast<double>(invocations);
  const obs::MetricsRegistry& metrics = env.metrics();
  result.hit_ratio = core::CacheHitRatio(metrics);
  const std::uint64_t local = metrics.CounterValue("ofc.ramcloud.read_hits_local");
  const double hits =
      static_cast<double>(local + metrics.CounterValue("ofc.ramcloud.read_hits_remote"));
  result.local_hit_share = hits <= 0 ? 0 : static_cast<double>(local) / hits;
  return result;
}

void Run() {
  bench::Banner("Ablation: contribution of OFC's design choices",
                "DESIGN.md design-choice index (extends the paper's evaluation)");

  const Variant kVariants[] = {
      {"full"},
      {"no-bump", /*bump=*/false, true, true, true},
      {"no-locality", true, /*locality=*/false, true, true},
      {"no-write-back", true, true, /*write_back=*/false, true},
      {"relaxed", true, true, true, /*transparent=*/false},
  };
  bench::Table table({"Variant", "total exec (s)", "mean L (ms)", "OOM events",
                      "hit ratio (%)", "local-hit share (%)"});
  for (const Variant& variant : kVariants) {
    const VariantResult result = RunVariant(variant);
    table.AddRow({variant.name, bench::Fmt("%.1f", result.total_s),
                  bench::Fmt("%.1f", result.mean_load_ms),
                  bench::Fmt("%.0f", static_cast<double>(result.oom_events)),
                  bench::Fmt("%.1f", 100.0 * result.hit_ratio),
                  bench::Fmt("%.1f", 100.0 * result.local_hit_share)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: no-bump introduces OOM events (and their retries scatter\n"
      "sandboxes, wrecking the local-hit share); no-write-back inflates the Load\n"
      "phase ~5x; relaxed is the fastest write path (no shadow round-trip) at the\n"
      "cost of external consistency. Note on no-locality: with stable per-function\n"
      "home-worker hashing, objects are admitted on the home worker and stay local\n"
      "even without the §6.5 policy — its benefit materializes only when the home\n"
      "worker is under memory pressure and placement must move (as the no-bump row\n"
      "shows from the opposite direction).\n");
}

}  // namespace
}  // namespace ofc

int main() {
  ofc::Run();
  return 0;
}
