// Million-invocation scale harness: drives the full OFC stack (platform +
// RAMCloud cache + ML sizing + RSDS) under a synthesized Azure-style
// multi-tenant trace and reports the simulator's own performance — wall-clock
// events/sec, invocations/sec, peak RSS, and per-phase time shares — as
// BENCH_scale.json.
//
// Usage:
//   scale_stress [--invocations=N] [--tenants=N] [--duration-s=S] [--seed=N]
//                [--mode=ofc|owk-swift|owk-redis] [--out=BENCH_scale.json]
//                [--progress]
//
// The default 1M-invocation run finishes in minutes; CI's perf-smoke tier runs
// a downscaled --invocations=50000 pass and gates on
// tools/check_scale_bench.py against bench/scale_floor.json.
#include <sys/resource.h>

#include <chrono>  // simlint: allow(wall-clock) -- this bench measures the simulator's real throughput, not simulated time
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/faasload/runner.h"
#include "src/obs/export_util.h"
#include "src/workloads/scale_trace.h"

namespace ofc {
namespace {

using WallClock = std::chrono::steady_clock;  // simlint: allow(wall-clock) -- harness self-timing

double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();  // simlint: allow(wall-clock) -- harness self-timing
}

// Peak resident set size in MiB (ru_maxrss is KiB on Linux).
double PeakRssMb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Flags {
  std::uint64_t invocations = 1'000'000;
  std::size_t tenants = 64;
  double duration_s = 3600.0;
  std::uint64_t seed = 42;
  std::string mode = "ofc";
  std::string out = "BENCH_scale.json";
  bool progress = false;
};

faasload::Mode ParseMode(const std::string& mode) {
  if (mode == "owk-swift") {
    return faasload::Mode::kOwkSwift;
  }
  if (mode == "owk-redis") {
    return faasload::Mode::kOwkRedis;
  }
  return faasload::Mode::kOfc;
}

int Main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      const std::size_t len = std::strlen(name);
      if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
        return arg + len + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--invocations")) {
      flags.invocations = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--tenants")) {
      flags.tenants = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--duration-s")) {
      flags.duration_s = std::strtod(v, nullptr);
    } else if (const char* v = value("--seed")) {
      flags.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--mode")) {
      flags.mode = v;
    } else if (const char* v = value("--out")) {
      flags.out = v;
    } else if (std::strcmp(arg, "--progress") == 0) {
      flags.progress = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }

  bench::Banner("Scale stress: " + std::to_string(flags.invocations) +
                    " invocations, " + std::to_string(flags.tenants) + " tenants",
                "simulator scalability harness (not a paper figure)");

  // ---- Full-stack scale run ------------------------------------------------
  const auto setup_start = WallClock::now();  // simlint: allow(wall-clock) -- phase timing
  workloads::ScaleTraceOptions trace_options;
  trace_options.seed = flags.seed;
  trace_options.num_tenants = flags.tenants;
  trace_options.duration_s = flags.duration_s;
  trace_options.target_invocations = flags.invocations;
  const workloads::ScaleTrace trace = workloads::GenerateScaleTrace(trace_options);

  faasload::EnvironmentOptions env_options;
  env_options.seed = flags.seed;
  auto made = faasload::MakeScaleTraceRun(ParseMode(flags.mode), env_options, trace);
  if (!made.ok()) {
    std::fprintf(stderr, "trace setup failed: %s\n", made.status().ToString().c_str());
    return 1;
  }
  faasload::Runner& run = **made;
  const double setup_wall = SecondsSince(setup_start);

  if (flags.progress) {
    // Progress heartbeat in simulated time (one line per 10% of the horizon).
    const SimDuration step = static_cast<SimDuration>(flags.duration_s * 1e6 / 10.0);
    run.load().AddSampler(step, [&run] {
      std::printf("  t=%.0fs: %llu fired, %llu completed, %llu events\n",
                  static_cast<double>(run.env().loop().now()) / 1e6,
                  static_cast<unsigned long long>(run.load().invocations_fired()),
                  static_cast<unsigned long long>(run.load().invocations_completed()),
                  static_cast<unsigned long long>(run.env().loop().total_dispatched()));
      std::fflush(stdout);
    });
  }

  const auto run_start = WallClock::now();  // simlint: allow(wall-clock) -- phase timing
  (void)run.Run(static_cast<SimDuration>(flags.duration_s * 1e6));  // No attachments.
  const double run_wall = SecondsSince(run_start);

  // ---- Report --------------------------------------------------------------
  const auto export_start = WallClock::now();  // simlint: allow(wall-clock) -- phase timing
  // Counters only: collecting the artifacts would raise the peak RSS reported.
  const std::uint64_t dispatched = run.env().loop().total_dispatched();
  const std::uint64_t scheduled = run.env().loop().total_scheduled();
  const std::uint64_t fired = run.load().invocations_fired();
  const std::uint64_t completed = run.load().invocations_completed();
  const double events_per_sec = run_wall > 0 ? static_cast<double>(dispatched) / run_wall : 0;
  const double inv_per_sec = run_wall > 0 ? static_cast<double>(completed) / run_wall : 0;

  // Simulated-time E/T/L shares (where simulated work went; the wall-clock
  // phase split above says where the *simulator's* time went).
  obs::MetricsRegistry& metrics = run.env().metrics();
  const double extract_ms = metrics.GetSeries("ofc.platform.extract_ms")->sum();
  const double transform_ms = metrics.GetSeries("ofc.platform.transform_ms")->sum();
  const double load_ms = metrics.GetSeries("ofc.platform.load_ms")->sum();
  const double etl_total = extract_ms + transform_ms + load_ms;

  bench::Table table({"metric", "value"});
  table.AddRow({"invocations fired", std::to_string(fired)});
  table.AddRow({"invocations completed", std::to_string(completed)});
  table.AddRow({"events dispatched", std::to_string(dispatched)});
  table.AddRow({"run wall (s)", bench::Fmt("%.2f", run_wall)});
  table.AddRow({"events/sec", bench::Fmt("%.0f", events_per_sec)});
  table.AddRow({"invocations/sec", bench::Fmt("%.0f", inv_per_sec)});
  table.AddRow({"peak RSS (MiB)", bench::Fmt("%.1f", PeakRssMb())});
  table.Print();

  std::string json = "{\n";
  json += "  \"target_invocations\": " + std::to_string(flags.invocations) + ",\n";
  json += "  \"tenants\": " + std::to_string(flags.tenants) + ",\n";
  json += "  \"duration_s\": " + obs::JsonNumber(flags.duration_s) + ",\n";
  json += "  \"seed\": " + std::to_string(flags.seed) + ",\n";
  json += "  \"mode\": \"" + flags.mode + "\",\n";
  json += "  \"expected_invocations\": " + obs::JsonNumber(trace.expected_invocations) + ",\n";
  json += "  \"invocations_fired\": " + std::to_string(fired) + ",\n";
  json += "  \"invocations_completed\": " + std::to_string(completed) + ",\n";
  json += "  \"events_scheduled\": " + std::to_string(scheduled) + ",\n";
  json += "  \"events_dispatched\": " + std::to_string(dispatched) + ",\n";
  json += "  \"wall_seconds\": {\"setup\": " + obs::JsonNumber(setup_wall) +
          ", \"run\": " + obs::JsonNumber(run_wall) + "},\n";
  json += "  \"events_per_sec\": " + obs::JsonNumber(events_per_sec) + ",\n";
  json += "  \"invocations_per_sec\": " + obs::JsonNumber(inv_per_sec) + ",\n";
  json += "  \"peak_rss_mb\": " + obs::JsonNumber(PeakRssMb()) + ",\n";
  json += "  \"sim_time_share\": {";
  if (etl_total > 0) {
    json += "\"extract\": " + obs::JsonNumber(extract_ms / etl_total) +
            ", \"transform\": " + obs::JsonNumber(transform_ms / etl_total) +
            ", \"load\": " + obs::JsonNumber(load_ms / etl_total);
  }
  json += "}\n}\n";

  std::FILE* f = std::fopen(flags.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", flags.out.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  const double export_wall = SecondsSince(export_start);
  std::printf("wrote %s (setup %.2fs, run %.2fs, export %.2fs)\n", flags.out.c_str(),
              setup_wall, run_wall, export_wall);

  if (fired != completed) {
    std::fprintf(stderr, "exactly-once violation: fired=%llu completed=%llu\n",
                 static_cast<unsigned long long>(fired),
                 static_cast<unsigned long long>(completed));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ofc

int main(int argc, char** argv) { return ofc::Main(argc, argv); }
