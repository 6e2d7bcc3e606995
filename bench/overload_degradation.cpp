// Overload & graceful degradation bench: sweeps offered load from well under
// to well past the platform's sustainable rate while the cache path degrades
// mid-run, and reports what bounded admission + the circuit breaker deliver:
// goodput, explicit shed rate, end-to-end P50/P99, and cumulative breaker open
// time. Writes the series as machine-readable JSON (default
// BENCH_overload.json, override with --json=PATH) so CI can track the
// degradation envelope across commits.
//
// Expected shape: goodput rises with offered load until the concurrency wall,
// then plateaus while the shed rate absorbs the excess; P99 stays bounded by
// the queue deadline instead of growing with the backlog; breaker open time is
// roughly the injected cache-fault window at every load point.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/faasload/runner.h"
#include "src/fault/fault_plan.h"

namespace ofc {
namespace {

constexpr SimTime kHorizon = Seconds(60);       // Arrivals land before this.
constexpr SimDuration kDrain = Minutes(5);      // Completion budget past it.
constexpr SimTime kFaultStart = Seconds(20);    // Cache-path brownout window:
constexpr SimTime kFaultEnd = Seconds(40);      // breaker must trip and bypass.

struct LoadPoint {
  double offered_rps = 0;
  int scheduled = 0;
  int succeeded = 0;
  int shed = 0;
  double goodput_rps = 0;
  double shed_rate = 0;  // Fraction of submissions shed explicitly.
  double p50_ms = 0;
  double p99_ms = 0;
  double breaker_open_s = 0;
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(pos + 0.5)];
}

LoadPoint RunPoint(SimDuration interarrival, std::uint64_t seed) {
  faasload::EnvironmentOptions env_options;
  env_options.seed = seed;
  // One worker with room for two 2 GiB sandboxes: a small, known concurrency
  // wall so the sweep crosses saturation within a few load points.
  env_options.platform.num_workers = 1;
  env_options.platform.worker_memory = GiB(4);
  env_options.platform.max_queue_depth = 8;
  env_options.platform.queue_deadline = Seconds(2);
  env_options.ofc.proxy.breaker_failure_threshold = 3;
  env_options.ofc.proxy.breaker_open_duration = Seconds(5);
  env_options.ofc.proxy.breaker_half_open_probes = 2;
  // Cache-path brownout mid-sweep: every cache read/write fails until the
  // window closes, so the breaker opens and routes around it.
  env_options.faults = fault::FaultPlan{
      {{kFaultStart, fault::FaultKind::kCacheDegraded, -1, kFaultEnd - kFaultStart}}};
  faasload::Runner run(faasload::Mode::kOfc, env_options, faasload::TenantProfile::kNormal,
                       seed * 7919 + 1);
  faasload::LoadInjector& load = run.load();
  if (Status added = load.AddProbe("wand_sepia", /*num_objects=*/4, KiB(256)); !added.ok()) {
    std::fprintf(stderr, "probe setup failed: %s\n", added.ToString().c_str());
    return {};
  }
  (void)run.Arm();  // The plan fits the stack: cannot fail.

  LoadPoint point;
  point.offered_rps = 1e6 / static_cast<double>(interarrival);
  for (SimTime at = 0; at < kHorizon; at += interarrival) {
    ++point.scheduled;
    load.SubmitProbe(at);
  }
  (void)run.Run(kHorizon, kDrain);

  std::vector<double> latencies_ms;
  for (const faas::InvocationRecord& r : load.results().front().invocations) {
    if (r.shed) {
      ++point.shed;
    } else if (!r.failed) {
      ++point.succeeded;
      latencies_ms.push_back(ToMillis(r.total));
    }
  }
  point.goodput_rps = point.succeeded / ToSeconds(kHorizon);
  point.shed_rate =
      point.scheduled == 0 ? 0.0 : static_cast<double>(point.shed) / point.scheduled;
  point.p50_ms = Percentile(latencies_ms, 0.50);
  point.p99_ms = Percentile(latencies_ms, 0.99);
  point.breaker_open_s =
      run.env().metrics().GaugeValue("ofc.breaker.open_time_us") / 1e6;
  return point;
}

// Writes the series; false (with a message) when `path` cannot be written.
bool WriteJson(const std::string& path, const std::vector<LoadPoint>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"overload_degradation\",\n  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const LoadPoint& p = points[i];
    std::fprintf(f,
                 "    {\"offered_rps\": %.3f, \"scheduled\": %d, \"succeeded\": %d, "
                 "\"shed\": %d, \"goodput_rps\": %.3f, \"shed_rate\": %.4f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"breaker_open_s\": %.3f}%s\n",
                 p.offered_rps, p.scheduled, p.succeeded, p.shed, p.goodput_rps,
                 p.shed_rate, p.p50_ms, p.p99_ms, p.breaker_open_s,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %zu load points -> %s\n", points.size(), path.c_str());
  return true;
}

bool Run(const std::string& json_path) {
  bench::Banner("Overload protection & graceful degradation",
                "robustness extension (bounded admission + cache breaker)");

  // wand_sepia runs ~21 ms warm and the worker fits two sandboxes, so the
  // concurrency wall sits near 75 req/s; the sweep brackets it from 20 to 200.
  const SimDuration kIntervals[] = {Millis(50), Millis(20), Millis(12),
                                    Millis(8), Millis(5)};
  std::vector<LoadPoint> points;
  for (SimDuration interval : kIntervals) {
    points.push_back(RunPoint(interval, /*seed=*/2021));
  }

  bench::Table table({"Offered (req/s)", "Scheduled", "Succeeded", "Shed",
                      "Goodput (req/s)", "Shed rate", "P50 (ms)", "P99 (ms)",
                      "Breaker open (s)"});
  for (const LoadPoint& p : points) {
    table.AddRow({bench::Fmt("%.2f", p.offered_rps), bench::Fmt("%.0f", p.scheduled),
                  bench::Fmt("%.0f", p.succeeded), bench::Fmt("%.0f", p.shed),
                  bench::Fmt("%.2f", p.goodput_rps), bench::Fmt("%.3f", p.shed_rate),
                  bench::Fmt("%.1f", p.p50_ms), bench::Fmt("%.1f", p.p99_ms),
                  bench::Fmt("%.2f", p.breaker_open_s)});
  }
  table.Print();

  std::printf(
      "\nExpected shape: goodput plateaus at the concurrency wall while the shed\n"
      "rate absorbs the excess; P99 stays bounded by the 2 s queue deadline; the\n"
      "breaker is open for roughly the injected 20 s cache-fault window.\n");

  return WriteJson(json_path, points);
}

}  // namespace
}  // namespace ofc

int main(int argc, char** argv) {
  std::string json_path = "BENCH_overload.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown argument %s\nusage: %s [--json=PATH]\n", argv[i], argv[0]);
      return 2;
    }
  }
  return ofc::Run(json_path) ? 0 : 1;
}
