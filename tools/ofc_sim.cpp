// ofc_sim: command-line experiment runner.
//
// Runs a configurable multi-tenant workload against OWK-Swift, OWK-Redis, or
// OFC and prints per-tenant latency summaries plus OFC's internal counters —
// the quickest way to explore the system without writing code.
//
// The full flag reference lives in kFlagDocs below (the single source of
// truth behind --help and the generated docs/cli.md; see tools/gen_cli_docs.py).
//
// Examples:
//   ofc_sim --mode=ofc --functions=wand_blur,wand_edge --duration-min=10
//   ofc_sim --mode=owk-swift --pipelines=map_reduce --interval-s=30
//   ofc_sim --cache-policy=gdsf                  # non-paper eviction policy
//   ofc_sim --mode=ofc --trace-json=trace.json   # open in ui.perfetto.dev
//   ofc_sim --timeline-json=tl.json --scrape-interval-s=10   # windowed telemetry
//   ofc_sim --slo='warm=lat:ofc.platform.total_ms:p99:250' --health-json=health.json
//   ofc_sim --flight-recorder --dump-on-assert=blackbox.json # post-mortem ring
//   ofc_sim --fault-plan=chaos.json              # replay a declarative fault plan
//   ofc_sim --crash-node-at=1:60:30              # crash node 1 at t=60s for 30s
//   ofc_sim --fault-plan=rot.json --scrub-interval-s=5   # corruption + scrubbing
//   ofc_sim --selfcheck-determinism              # replay twice, diff metrics
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/sim_assert.h"
#include "src/common/stats.h"
#include "src/core/cache_policy.h"
#include "src/core/scrubber.h"
#include "src/faasload/runner.h"
#include "src/fault/fault_plan.h"
#include "src/obs/slo.h"
#include "src/sim/periodic.h"

namespace ofc {
namespace {

struct Flags {
  std::string mode = "ofc";
  std::string profile = "normal";
  std::vector<std::string> functions;
  std::vector<std::string> pipelines;
  std::string arrivals = "poisson";
  int duration_min = 10;
  double interval_s = 30.0;
  int pretrain = 1000;
  // The stack and its attachments: workers (default 4 x 16 GiB), seed, cache
  // policy, overload protection, trace sampling, flight ring size, scrubber,
  // scrape period (default 10 s) and SLOs. RunScenario turns off the sinks
  // whose output no flag asked for.
  faasload::EnvironmentOptions env;
  std::string metrics_json;
  std::string metrics_csv;
  std::string trace_json;
  bool log_sim_time = false;
  std::string timeline_json;
  std::string health_json;
  std::string flight_json;     // End-of-run ring dump (independent of asserts).
  std::string dump_on_assert;  // Ring dump target when a SIM_ASSERT fires.
  // Hidden test hook: fires a deliberate SIM_ASSERT breach at this time (0 =
  // off) so CI can prove --dump-on-assert produces a dump on an invariant breach.
  SimTime inject_breach_at = 0;
  // Declarative fault schedule (--fault-plan JSON plus --crash-node-at
  // shorthands), replayed by a FaultInjector alongside the workload.
  fault::FaultPlan fault_plan;
  // Run guards: --progress prints a heartbeat line every tenth of the horizon
  // (simulated time, invocations fired/completed, events dispatched) so long
  // scale runs are observably alive; --max-events caps the event loop's
  // dispatch budget so a runaway scenario terminates instead of spinning.
  bool progress = false;
  std::uint64_t max_events = 0;
  // Replays the scenario twice (same seed, perturbed unordered-container hash
  // salt) and diffs the metrics snapshots and event-loop fingerprint; exits
  // nonzero on any divergence.
  bool selfcheck = false;
  // Test hook: leaks the replay index into the workload seed so the selfcheck
  // MUST fail. Exists so CI can prove the selfcheck detects nondeterminism.
  bool selfcheck_perturb = false;
};

// Writes `body` to `path`; returns false (with a message) on failure.
bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

// Reads `path` fully into `*out`; returns false (with a message) on failure.
bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

// The largest seconds value a duration flag accepts (~292k years: the
// microsecond SimDuration stays far from overflow).
constexpr double kMaxFlagSeconds = 9.2e12;

// Reads a seconds (`us_per_unit` 1e6) or milliseconds (1e3) flag into whole
// microseconds. NaN, negative, out-of-range and below-`min_us` values are
// rejected with a message naming the flag.
bool ParseDurationFlag(const char* flag, const std::string& value, double us_per_unit,
                       SimDuration min_us, SimDuration* out) {
  const double v = std::atof(value.c_str());
  if (!(v >= 0.0) || !(v * us_per_unit < kMaxFlagSeconds * 1e6)) {  // Also rejects NaN.
    std::fprintf(stderr, "%s must be a non-negative number of %s\n", flag,
                 us_per_unit == 1e3 ? "milliseconds" : "seconds");
    return false;
  }
  *out = static_cast<SimDuration>(v * us_per_unit);
  if (*out < min_us) {
    std::fprintf(stderr, "%s must be at least 1 us\n", flag);
    return false;
  }
  return true;
}

// Reads an integer flag: a whole decimal number (no sign, no trailing text)
// from `min` to the target type's maximum. Anything else is rejected with a
// message naming the flag.
template <typename T>
bool ParseIntFlag(const char* flag, const std::string& value, std::uint64_t min, T* out) {
  const auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  std::uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < min || v > max) {
    std::fprintf(stderr, "%s must be a whole number from %llu to %llu\n", flag,
                 static_cast<unsigned long long>(min), static_cast<unsigned long long>(max));
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

// --crash-node-at=N:S[:D] — crash node N at S seconds, restart after D seconds
// (D omitted or 0: the node stays down).
bool ParseCrashNodeAt(const std::string& value, fault::FaultEvent* out) {
  int node = 0;
  double at_s = 0.0;
  double dur_s = 0.0;
  const int matched =
      std::sscanf(value.c_str(), "%d:%lf:%lf", &node, &at_s, &dur_s);
  const auto valid = [](double s) { return s >= 0.0 && s < kMaxFlagSeconds; };  // Not NaN.
  if (matched < 2 || node < 0 || !valid(at_s) || !valid(dur_s)) {
    std::fprintf(stderr, "bad --crash-node-at=%s (want N:S[:D])\n", value.c_str());
    return false;
  }
  out->kind = fault::FaultKind::kNodeCrash;
  out->target = node;
  out->at = static_cast<SimTime>(at_s * 1e6);
  out->duration = static_cast<SimDuration>(dur_s * 1e6);
  return true;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string token = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!token.empty()) {
      out.push_back(token);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

// One flag's documentation. The table below is the single source of truth for
// the flag reference: Usage() renders it to stderr and tools/gen_cli_docs.py
// parses it into docs/cli.md (CI runs the generator with --check, so this
// table, the Main() parser, and the committed docs cannot drift apart).
struct FlagDoc {
  const char* group;  // Section heading; consecutive entries share a group.
  const char* spec;   // Flag grammar, e.g. "--mode=ofc|owk-swift|owk-redis".
  const char* help;   // One-line description (docs table cell).
};

// FLAG-TABLE-BEGIN (parsed by tools/gen_cli_docs.py; keep one entry per line)
constexpr FlagDoc kFlagDocs[] = {
    {"Scenario", "--mode=ofc|owk-swift|owk-redis", "System under test: OFC, or the vanilla OpenWhisk baselines against Swift/Redis (default ofc)."},
    {"Scenario", "--profile=normal|naive|advanced", "Tenant memory-booking profile: honest, 2x over-booked, or finely tuned (default normal)."},
    {"Scenario", "--functions=f1,f2,...", "Comma-separated function tenants (default wand_blur,wand_sepia,wand_edge; see `available functions` in --help)."},
    {"Scenario", "--pipelines=p1,...", "Comma-separated pipeline tenants (see `available pipelines` in --help)."},
    {"Scenario", "--arrivals=poisson|periodic|bursty", "Inter-arrival process per tenant (default poisson)."},
    {"Scenario", "--duration-min=N", "Simulated run length in minutes (default 10)."},
    {"Scenario", "--interval-s=N", "Mean inter-arrival interval per tenant in seconds (default 30)."},
    {"Scenario", "--workers=N", "Number of worker nodes (default 4)."},
    {"Scenario", "--worker-gb=N", "Memory per worker in GiB (default 16)."},
    {"Scenario", "--seed=N", "Root RNG seed; same seed + same flags = byte-identical run (default 42)."},
    {"Scenario", "--pretrain=N", "Offline pretraining invocations per function before the run (default 1000)."},
    {"Cache policy", "--cache-policy=NAME[,function=NAME...]", "Cache eviction/sweep policy: lru (paper-faithful default), gdsf, lfu-decay, or cost-aware; optional per-function overrides, e.g. gdsf,wand_blur=lru. OFC mode only."},
    {"Observability", "--metrics-json=PATH", "Write the end-of-run metrics snapshot as JSON."},
    {"Observability", "--metrics-csv=PATH", "Write the end-of-run metrics snapshot as CSV (one row per cell)."},
    {"Observability", "--trace-json=PATH", "Record Chrome trace-event JSON of invocation/control-plane spans (open in ui.perfetto.dev)."},
    {"Observability", "--trace-sample=N", "With --trace-json: record every Nth invocation id (default 1 = all)."},
    {"Observability", "--log-sim-time", "Prefix every log line with the simulated clock (t=<seconds>s)."},
    {"Observability", "--scrape-interval-s=S", "Telemetry scrape period for the timeline/SLO loop (default 10)."},
    {"Observability", "--timeline-json=PATH", "Write windowed counter/gauge/series snapshots scraped on the sim clock."},
    {"Observability", "--slo=SPEC;...|@FILE", "SLO burn-rate specs (name=lat:metric:pN:ms or name=rate:num/den:frac), inline or @file."},
    {"Observability", "--health-json=PATH", "Write the SLO health summary (worst burn, alerts) at end of run."},
    {"Observability", "--flight-recorder[=N]", "Arm the black-box event ring (default capacity 4096; =N sizes it)."},
    {"Observability", "--flight-json=PATH", "Dump the flight-recorder ring to PATH at end of run."},
    {"Observability", "--dump-on-assert=PATH", "Dump the flight-recorder ring to PATH when a SIM_ASSERT fires."},
    {"Fault injection", "--fault-plan=PATH", "Replay a declarative JSON fault schedule alongside the workload."},
    {"Fault injection", "--crash-node-at=N:S[:D]", "Crash node N at S seconds, restart after D seconds (omitted/0 = stays down)."},
    {"Fault injection", "--scrub-interval-s=S", "Arm the background integrity scrubber with the given period (OFC mode only)."},
    {"Overload protection", "--queue-limit=N", "Platform admission queue depth bound (0 = unbounded)."},
    {"Overload protection", "--queue-deadline-s=S", "Shed queued invocations older than S seconds (0 = never)."},
    {"Overload protection", "--max-concurrency=N", "Per-function concurrent invocation cap (0 = unbounded)."},
    {"Overload protection", "--breaker-threshold=N", "Cache-path circuit breaker: open after N consecutive failures (0 = disabled)."},
    {"Overload protection", "--breaker-open-s=S", "Breaker open-state duration before half-open probing (default 5)."},
    {"Overload protection", "--breaker-probes=N", "Successful half-open probes required to close the breaker (default 3)."},
    {"Overload protection", "--breaker-slo-ms=MS", "Treat cache reads slower than MS as breaker failures (0 = latency ignored)."},
    {"Run guards", "--progress", "Print a liveness heartbeat to stderr every tenth of the horizon."},
    {"Run guards", "--max-events=N", "Cap the event loop's dispatch budget; a runaway run truncates instead of spinning."},
    {"Self-checks", "--selfcheck-determinism", "Replay the scenario twice (perturbed hash salt) and diff all artifacts; nonzero exit on divergence."},
    {"Self-checks", "--selfcheck-perturb", "Test hook: leak the replay index into the seed so the selfcheck must fail."},
    {"Self-checks", "--inject-breach-at=S", "Test hook: fire a deliberate SIM_ASSERT at S seconds (proves --dump-on-assert works)."},
};
// FLAG-TABLE-END

int Usage() {
  std::fprintf(stderr, "usage: ofc_sim [flags]\n");
  const char* group = "";
  for (const FlagDoc& doc : kFlagDocs) {
    if (std::strcmp(group, doc.group) != 0) {
      group = doc.group;
      std::fprintf(stderr, "\n%s:\n", group);
    }
    std::fprintf(stderr, "  %s\n      %s\n", doc.spec, doc.help);
  }
  std::fprintf(stderr, "\navailable functions:\n");
  for (const workloads::FunctionSpec& spec : workloads::AllFunctions()) {
    std::fprintf(stderr, "  %s\n", spec.name.c_str());
  }
  std::fprintf(stderr, "available pipelines:\n");
  for (const workloads::PipelineSpec& spec : workloads::AllPipelines()) {
    std::fprintf(stderr, "  %s\n", spec.name.c_str());
  }
  std::fprintf(stderr, "available cache policies:\n");
  for (const std::string& name : core::KnownCachePolicies()) {
    std::fprintf(stderr, "  %s\n", name.c_str());
  }
  return 2;
}

// Runs the scenario described by `flags` once. `run_index` identifies the
// replay for the selfcheck harness; `quiet` suppresses the human-readable
// report. Returns 0 on success and fills `out`.
int RunScenario(const Flags& flags, bool quiet, std::uint64_t run_index,
                faasload::RunArtifacts* out) {
  faasload::Mode mode;
  if (flags.mode == "ofc") {
    mode = faasload::Mode::kOfc;
  } else if (flags.mode == "owk-swift") {
    mode = faasload::Mode::kOwkSwift;
  } else if (flags.mode == "owk-redis") {
    mode = faasload::Mode::kOwkRedis;
  } else {
    return Usage();
  }
  faasload::TenantProfile profile;
  if (flags.profile == "normal") {
    profile = faasload::TenantProfile::kNormal;
  } else if (flags.profile == "naive") {
    profile = faasload::TenantProfile::kNaive;
  } else if (flags.profile == "advanced") {
    profile = faasload::TenantProfile::kAdvanced;
  } else {
    return Usage();
  }
  faasload::ArrivalPattern arrivals;
  if (flags.arrivals == "poisson") {
    arrivals = faasload::ArrivalPattern::kExponential;
  } else if (flags.arrivals == "periodic") {
    arrivals = faasload::ArrivalPattern::kPeriodic;
  } else if (flags.arrivals == "bursty") {
    arrivals = faasload::ArrivalPattern::kBursty;
  } else {
    return Usage();
  }

  faasload::EnvironmentOptions env_options = flags.env;
  // The deliberate bug behind --selfcheck-perturb: a replay-dependent seed.
  env_options.seed += flags.selfcheck_perturb ? run_index : 0;
  const std::uint64_t seed = env_options.seed;
  env_options.trace_sample =
      flags.trace_json.empty() ? 0 : std::max<std::uint64_t>(env_options.trace_sample, 1);
  if (env_options.flight_capacity == 0 &&
      (!flags.dump_on_assert.empty() || !flags.flight_json.empty())) {
    env_options.flight_capacity = obs::FlightRecorderOptions{}.capacity;
  }
  if (!flags.fault_plan.empty()) {
    env_options.faults = flags.fault_plan;
  }
  if (flags.timeline_json.empty() && flags.health_json.empty() && env_options.slos.empty()) {
    env_options.scrape_interval = 0;
  }
  faasload::Runner run(mode, env_options, profile, seed + 1);
  faasload::Environment& env = run.env();
  faasload::LoadInjector& injector = run.load();

  for (const std::string& function : flags.functions) {
    if (workloads::FindFunction(function) == nullptr) {
      std::fprintf(stderr, "unknown function: %s\n", function.c_str());
      return Usage();
    }
    faasload::TenantSpec spec;
    spec.name = "t-" + function;
    spec.function = function;
    spec.mean_interval_s = flags.interval_s;
    spec.arrivals = arrivals;
    if (!injector.AddTenant(spec).ok()) {
      return 1;
    }
  }
  for (const std::string& pipeline : flags.pipelines) {
    if (workloads::FindPipeline(pipeline) == nullptr) {
      std::fprintf(stderr, "unknown pipeline: %s\n", pipeline.c_str());
      return Usage();
    }
    faasload::TenantSpec spec;
    spec.name = "t-" + pipeline;
    spec.function = pipeline;
    spec.is_pipeline = true;
    spec.mean_interval_s = flags.interval_s;
    spec.arrivals = arrivals;
    if (!injector.AddTenant(spec).ok()) {
      return 1;
    }
  }

  if (Status armed = run.Arm(); !armed.ok()) {
    std::fprintf(stderr, "%s\n", armed.message().c_str());
    return 1;
  }
  if (!flags.dump_on_assert.empty()) {
    // Post-mortem: when any SIM_ASSERT fires, dump the black-box ring before
    // the abort so the causal chain that led up to the breach survives.
    SetSimAssertHook([&env, path = flags.dump_on_assert](const std::string& message) {
      if (env.flight().WriteJson(path, message)) {
        std::fprintf(stderr, "flight recorder dumped to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
      }
    });
  }
  if (flags.log_sim_time) {
    // Prefix every log line with the simulated clock, e.g. "t=12.345s".
    SetLogPrefixHook([&env] {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "t=%.3fs", ToSeconds(env.loop().now()));
      return std::string(buf);
    });
  }

  if (flags.inject_breach_at > 0) {
    env.loop().ScheduleAt(flags.inject_breach_at, [&env] {
      SIM_ASSERT(false) << "; injected invariant breach (--inject-breach-at) at t="
                        << ToSeconds(env.loop().now()) << "s";
    });
  }

  injector.PretrainModels(flags.pretrain);
  if (!quiet) {
    std::printf("mode=%s profile=%s workers=%dx%dGiB duration=%dmin seed=%llu\n\n",
                faasload::ModeName(mode).c_str(), faasload::TenantProfileName(profile).c_str(),
                flags.env.platform.num_workers,
                static_cast<int>(flags.env.platform.worker_memory / GiB(1)), flags.duration_min,
                static_cast<unsigned long long>(seed));
    if (!flags.fault_plan.empty()) {
      std::printf("fault plan: %zu events: %s\n\n", flags.fault_plan.size(),
                  fault::FaultPlanToJson(flags.fault_plan).c_str());
    }
  }
  // Progress heartbeat: a sim-clock timer reporting liveness every tenth of
  // the horizon. Goes to stderr so it never pollutes piped table output.
  std::unique_ptr<sim::PeriodicTask> progress;
  if (flags.progress && !quiet) {
    const SimDuration horizon = Minutes(flags.duration_min);
    const SimDuration step = horizon >= 10 ? horizon / 10 : SimDuration{1};
    progress = std::make_unique<sim::PeriodicTask>(
        &env.loop(), step, [&env, &injector](SimTime now) {
          std::fprintf(stderr,
                       "progress: t=%.1fs fired=%llu completed=%llu events=%llu\n",
                       ToSeconds(now),
                       static_cast<unsigned long long>(injector.invocations_fired()),
                       static_cast<unsigned long long>(injector.invocations_completed()),
                       static_cast<unsigned long long>(env.loop().total_dispatched()));
        });
    progress->Start();
  }
  if (flags.max_events > 0) {
    env.loop().set_dispatch_budget(flags.max_events);
  }
  (void)run.Run(Minutes(flags.duration_min));  // Armed above: cannot fail.
  if (progress != nullptr) {
    progress->Stop();
  }
  *out = run.artifacts();
  if (env.loop().dispatch_budget_exhausted()) {
    std::fprintf(stderr,
                 "note: --max-events budget (%llu) exhausted at t=%.1fs; "
                 "run truncated (%llu invocations still in flight)\n",
                 static_cast<unsigned long long>(flags.max_events),
                 ToSeconds(out->final_time),
                 static_cast<unsigned long long>(out->invocations_fired -
                                                 out->invocations_completed));
  }

  if (!quiet) {
    std::printf("%-24s %-7s %-12s %-12s %-12s %-9s\n", "tenant", "runs", "median (ms)",
                "p95 (ms)", "total (s)", "failures");
    for (const faasload::TenantResult& tenant : injector.results()) {
      Samples latencies;
      for (const auto& record : tenant.invocations) {
        latencies.Add(ToMillis(record.total));
      }
      for (const auto& record : tenant.pipelines) {
        latencies.Add(ToMillis(record.total));
      }
      std::printf("%-24s %-7zu %-12.1f %-12.1f %-12.1f %-9zu\n", tenant.name.c_str(),
                  tenant.invocations.size() + tenant.pipelines.size(), latencies.Median(),
                  latencies.Percentile(0.95),
                  ToSeconds(tenant.TotalExecutionTime()), tenant.FailureCount());
    }
    const obs::MetricsRegistry& m = env.metrics();
    auto ull = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
    if (env.ofc() != nullptr) {
      std::printf("\nOFC internals:\n");
      std::printf("  hit ratio            %.1f %%\n", 100.0 * core::CacheHitRatio(m));
      std::printf("  admissions           %llu (failed %llu)\n",
                  ull(m.CounterValue("ofc.proxy.admissions")),
                  ull(m.CounterValue("ofc.proxy.admission_failures")));
      std::printf("  persistor runs       %llu\n",
                  ull(m.CounterValue("ofc.proxy.persistor_runs")));
      std::printf("  scale up/down        %llu / %llu\n",
                  ull(m.CounterValue("ofc.cache_agent.scale_ups")),
                  ull(m.CounterValue("ofc.cache_agent.scale_downs_plain") +
                      m.CounterValue("ofc.cache_agent.scale_downs_migration") +
                      m.CounterValue("ofc.cache_agent.scale_downs_eviction")));
      std::printf("  predictions          %llu model, %llu fallback, %llu bad\n",
                  ull(m.CounterValue("ofc.predictor.model_predictions")),
                  ull(m.CounterValue("ofc.predictor.booked_fallbacks")),
                  ull(m.CounterValue("ofc.predictor.bad_predictions")));
      std::printf("  cache used/capacity  %s / %s\n",
                  FormatBytes(env.cluster()->TotalUsed()).c_str(),
                  FormatBytes(env.cluster()->TotalCapacity()).c_str());
      if (flags.env.ofc.proxy.breaker_failure_threshold > 0) {
        std::printf("  breaker              %llu opens, %llu closes, "
                    "%llu bypassed reads, %llu bypassed writes\n",
                    ull(m.CounterValue("ofc.breaker.opens")),
                    ull(m.CounterValue("ofc.breaker.closes")),
                    ull(m.CounterValue("ofc.breaker.bypassed_reads")),
                    ull(m.CounterValue("ofc.breaker.bypassed_writes")));
      }
    }
    std::printf("\nplatform: %llu invocations, %llu cold starts, %llu OOM kills, "
                "%llu rescues, %llu failures, %llu shed\n",
                ull(m.CounterValue("ofc.platform.invocations")),
                ull(m.CounterValue("ofc.platform.cold_starts")),
                ull(m.CounterValue("ofc.platform.oom_kills")),
                ull(m.CounterValue("ofc.platform.oom_rescues")),
                ull(m.CounterValue("ofc.platform.failed_invocations")),
                ull(m.CounterTotal("ofc.overload.shed")));
  }

  if (const obs::SloMonitor* slo = run.slo();
      !quiet && slo != nullptr && !slo->specs().empty()) {
    std::printf("\nSLOs: worst burn %.2f, %llu alert(s) fired\n", slo->worst_burn(),
                static_cast<unsigned long long>(slo->alerts_fired()));
    for (const obs::SloAlert& alert : slo->alerts()) {
      if (alert.resolved_at == 0) {
        std::printf("  %s fired at t=%.1fs (fast %.1f, slow %.1f) — still firing\n",
                    alert.slo.c_str(), ToSeconds(alert.fired_at), alert.fast_burn,
                    alert.slow_burn);
      } else {
        std::printf("  %s fired at t=%.1fs, cleared at t=%.1fs (fast %.1f, slow %.1f)\n",
                    alert.slo.c_str(), ToSeconds(alert.fired_at),
                    ToSeconds(alert.resolved_at), alert.fast_burn, alert.slow_burn);
      }
    }
  }

  bool ok = true;
  if (!flags.metrics_json.empty()) {
    ok = WriteFile(flags.metrics_json, out->metrics_json) && ok;
  }
  if (!flags.metrics_csv.empty()) {
    ok = WriteFile(flags.metrics_csv, env.metrics().SnapshotCsv(out->final_time)) && ok;
  }
  if (!flags.timeline_json.empty()) {
    ok = WriteFile(flags.timeline_json, out->timeline_json) && ok;
  }
  if (!flags.health_json.empty()) {
    ok = WriteFile(flags.health_json, out->health_json) && ok;
  }
  if (!flags.flight_json.empty()) {
    ok = WriteFile(flags.flight_json, out->flight_json) && ok;
  }
  if (!flags.trace_json.empty()) {
    if (!WriteFile(flags.trace_json, out->trace_json)) {
      ok = false;
    } else if (!quiet) {
      std::printf("\ntrace: %zu events (%zu dropped) -> %s\n", env.trace().num_events(),
                  env.trace().num_dropped(), flags.trace_json.c_str());
    }
  }
  ClearSimAssertHook();  // The hooks capture `env`, which dies with this frame.
  ClearLogPrefixHook();
  return ok ? 0 : 1;
}

// Runs the scenario described by `flags` twice with the same seed and diffs
// everything observable. The second replay additionally perturbs the salted
// hash used by the simulator's unordered containers, so any bucket-order
// dependence that leaks into metrics shows up as a diff. `label` names the
// pair in the report. Exit: 0 identical, 1 divergence.
int SelfcheckPair(const Flags& flags, const char* label) {
  constexpr std::uint64_t kPerturbedSalt = 0x9e3779b97f4a7c15ull;
  faasload::RunArtifacts first;
  faasload::RunArtifacts second;

  SetHashSalt(0);
  int rc = RunScenario(flags, /*quiet=*/true, /*run_index=*/0, &first);
  if (rc != 0) {
    return rc;
  }
  SetHashSalt(kPerturbedSalt);
  rc = RunScenario(flags, /*quiet=*/true, /*run_index=*/1, &second);
  SetHashSalt(0);
  if (rc != 0) {
    return rc;
  }

  bool identical = true;
  if (first.final_time != second.final_time) {
    std::fprintf(stderr, "selfcheck[%s]: final sim time diverged: %lld vs %lld us\n",
                 label, static_cast<long long>(first.final_time),
                 static_cast<long long>(second.final_time));
    identical = false;
  }
  if (first.events_scheduled != second.events_scheduled) {
    std::fprintf(stderr, "selfcheck[%s]: event count diverged: %llu vs %llu\n",
                 label, static_cast<unsigned long long>(first.events_scheduled),
                 static_cast<unsigned long long>(second.events_scheduled));
    identical = false;
  }
  if (first.invocations_fired != second.invocations_fired ||
      first.invocations_completed != second.invocations_completed) {
    std::fprintf(stderr, "selfcheck[%s]: invocation count diverged: %llu vs %llu\n",
                 label, static_cast<unsigned long long>(first.invocations_fired),
                 static_cast<unsigned long long>(second.invocations_fired));
    identical = false;
  }
  // Every artifact a replay can leave behind must be byte-identical: the
  // end-of-run metrics snapshot plus (when enabled) the windowed timeline, the
  // SLO health summary, the flight-recorder ring, and the Chrome trace.
  const struct {
    const char* what;
    const std::string& a;
    const std::string& b;
  } artifacts[] = {
      {"metrics JSON", first.metrics_json, second.metrics_json},
      {"timeline JSON", first.timeline_json, second.timeline_json},
      {"health JSON", first.health_json, second.health_json},
      {"flight JSON", first.flight_json, second.flight_json},
      {"trace JSON", first.trace_json, second.trace_json},
  };
  for (const auto& artifact : artifacts) {
    if (artifact.a == artifact.b) {
      continue;
    }
    // Point at the first differing line to make the divergence debuggable.
    std::size_t pos = 0;
    int line = 1;
    while (pos < artifact.a.size() && pos < artifact.b.size() &&
           artifact.a[pos] == artifact.b[pos]) {
      if (artifact.a[pos] == '\n') {
        ++line;
      }
      ++pos;
    }
    std::fprintf(stderr, "selfcheck[%s]: %s diverged at line %d (byte %zu)\n", label,
                 artifact.what, line, pos);
    identical = false;
  }

  if (!identical) {
    std::fprintf(stderr, "selfcheck-determinism[%s]: FAIL — replays diverged\n", label);
    return 1;
  }
  std::printf("selfcheck-determinism[%s]: OK — %llu events, %llu invocations, "
              "metrics identical across replays (hash salt perturbed)\n",
              label, static_cast<unsigned long long>(first.events_scheduled),
              static_cast<unsigned long long>(first.invocations_fired));
  return 0;
}

// The selfcheck runs the configured scenario as one replay pair and — when the
// mode can host faults and the user didn't supply a plan — a second pair with
// a built-in chaos schedule, so the degradation and recovery paths are held to
// the same byte-identical-replay bar as the happy path.
int RunSelfcheck(const Flags& flags) {
  int rc = SelfcheckPair(flags, "base");
  if (rc != 0) {
    return rc;
  }
  if (flags.mode != "ofc" || !flags.fault_plan.empty()) {
    return 0;
  }
  Flags chaos = flags;
  chaos.fault_plan.events = {
      {Seconds(40), fault::FaultKind::kStoreBrownout, -1, Seconds(30), 4.0},
      {Seconds(60), fault::FaultKind::kNodeCrash,
       flags.env.platform.num_workers > 1 ? 1 : 0, Seconds(20), 2.0},
      {Seconds(75), fault::FaultKind::kWorkerCrash, 0, Seconds(10), 2.0},
      {Seconds(90), fault::FaultKind::kPersistorDrop, -1, Seconds(15), 2.0},
  };
  rc = SelfcheckPair(chaos, "chaos");
  if (rc != 0) {
    return rc;
  }
  // Third pair: overload — bursty arrivals against bounded admission with the
  // breaker armed, the store browned out and the cache path degraded, so load
  // shedding and breaker transitions are also held to byte-identical replays.
  Flags overload = flags;
  overload.arrivals = "bursty";
  overload.interval_s = std::min(flags.interval_s, 5.0);
  overload.env.platform.max_queue_depth = 8;
  overload.env.platform.queue_deadline = Seconds(2);
  overload.env.ofc.proxy.breaker_failure_threshold = 3;
  overload.env.ofc.proxy.breaker_open_duration = Seconds(10);
  overload.env.ofc.proxy.breaker_half_open_probes = 2;
  overload.fault_plan.events = {
      {Seconds(30), fault::FaultKind::kStoreBrownout, -1, Seconds(60), 4.0},
      {Seconds(45), fault::FaultKind::kCacheDegraded, -1, Seconds(40), 2.0},
  };
  rc = SelfcheckPair(overload, "overload");
  if (rc != 0) {
    return rc;
  }
  // Fourth pair: corruption — bit flips across the cache and the durable store
  // with the background scrubber on, so detection, self-healing reads, and
  // scrub repairs are also held to byte-identical replays.
  Flags corruption = flags;
  corruption.env.scrub = core::ScrubberOptions{.interval = Seconds(5)};
  corruption.fault_plan.events = {
      {Seconds(30), fault::FaultKind::kCorruptSegment, 0, 0, 3.0},
      {Seconds(50), fault::FaultKind::kCorruptReplica,
       flags.env.platform.num_workers > 1 ? 1 : 0, 0, 3.0},
      {Seconds(70), fault::FaultKind::kStoreRot, -1, 0, 4.0},
  };
  return SelfcheckPair(corruption, "corruption");
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags;
  flags.env.platform.worker_memory = GiB(16);
  flags.env.scrape_interval = Seconds(10);
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--mode", &flags.mode)) {
    } else if (ParseFlag(argv[i], "--profile", &flags.profile)) {
    } else if (ParseFlag(argv[i], "--functions", &value)) {
      flags.functions = SplitCsv(value);
    } else if (ParseFlag(argv[i], "--pipelines", &value)) {
      flags.pipelines = SplitCsv(value);
    } else if (ParseFlag(argv[i], "--arrivals", &flags.arrivals)) {
    } else if (ParseFlag(argv[i], "--duration-min", &value)) {
      if (!ParseIntFlag("--duration-min", value, 1, &flags.duration_min)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--interval-s", &value)) {
      flags.interval_s = std::atof(value.c_str());
      if (!(flags.interval_s > 0.0) || !(flags.interval_s < kMaxFlagSeconds)) {  // And NaN.
        std::fprintf(stderr, "--interval-s must be a positive number of seconds\n");
        return 1;
      }
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      if (!ParseIntFlag("--workers", value, 1, &flags.env.platform.num_workers)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--worker-gb", &value)) {
      int worker_gb = 0;
      if (!ParseIntFlag("--worker-gb", value, 1, &worker_gb)) {
        return 1;
      }
      flags.env.platform.worker_memory = GiB(worker_gb);
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      if (!ParseIntFlag("--seed", value, 0, &flags.env.seed)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--pretrain", &value)) {
      if (!ParseIntFlag("--pretrain", value, 0, &flags.pretrain)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--cache-policy", &flags.env.ofc.cache_policy)) {
      const auto spec = core::ParseCachePolicySpec(flags.env.ofc.cache_policy);
      if (!spec.ok()) {
        std::fprintf(stderr, "--cache-policy: %s\n", spec.status().message().c_str());
        return Usage();
      }
    } else if (ParseFlag(argv[i], "--metrics-json", &flags.metrics_json)) {
    } else if (ParseFlag(argv[i], "--metrics-csv", &flags.metrics_csv)) {
    } else if (ParseFlag(argv[i], "--trace-json", &flags.trace_json)) {
    } else if (ParseFlag(argv[i], "--trace-sample", &value)) {
      if (!ParseIntFlag("--trace-sample", value, 1, &flags.env.trace_sample)) {
        return 1;
      }
    } else if (std::strcmp(argv[i], "--log-sim-time") == 0) {
      flags.log_sim_time = true;
    } else if (ParseFlag(argv[i], "--scrape-interval-s", &value)) {
      if (!ParseDurationFlag("--scrape-interval-s", value, 1e6, 1,
                             &flags.env.scrape_interval)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--timeline-json", &flags.timeline_json)) {
    } else if (ParseFlag(argv[i], "--slo", &value)) {
      std::string text = value;
      if (!text.empty() && text[0] == '@') {
        text.clear();
        if (!ReadFile(value.substr(1), &text)) {
          return 1;
        }
      }
      std::string error;
      if (!obs::ParseSloSpecs(text, &flags.env.slos, &error)) {
        std::fprintf(stderr, "--slo: %s\n", error.c_str());
        return 1;
      }
    } else if (ParseFlag(argv[i], "--health-json", &flags.health_json)) {
    } else if (std::strcmp(argv[i], "--flight-recorder") == 0) {
      flags.env.flight_capacity = obs::FlightRecorderOptions{}.capacity;
    } else if (ParseFlag(argv[i], "--flight-recorder", &value)) {
      if (!ParseIntFlag("--flight-recorder", value, 1, &flags.env.flight_capacity)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--flight-json", &flags.flight_json)) {
    } else if (ParseFlag(argv[i], "--dump-on-assert", &flags.dump_on_assert)) {
    } else if (ParseFlag(argv[i], "--inject-breach-at", &value)) {
      if (!ParseDurationFlag("--inject-breach-at", value, 1e6, 0, &flags.inject_breach_at)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--fault-plan", &value)) {
      std::string body;
      if (!ReadFile(value, &body)) {
        return 1;
      }
      const auto plan = fault::ParseFaultPlanJson(body);
      if (!plan.ok()) {
        std::fprintf(stderr, "--fault-plan=%s: %s\n", value.c_str(),
                     plan.status().message().c_str());
        return 1;
      }
      for (const fault::FaultEvent& event : plan->events) {
        flags.fault_plan.events.push_back(event);
      }
    } else if (ParseFlag(argv[i], "--crash-node-at", &value)) {
      fault::FaultEvent event;
      if (!ParseCrashNodeAt(value, &event)) {
        return 1;
      }
      flags.fault_plan.events.push_back(event);
    } else if (ParseFlag(argv[i], "--scrub-interval-s", &value)) {
      SimDuration interval = 0;
      if (!ParseDurationFlag("--scrub-interval-s", value, 1e6, 1, &interval)) {
        return 1;
      }
      flags.env.scrub = core::ScrubberOptions{.interval = interval};
    } else if (ParseFlag(argv[i], "--queue-limit", &value)) {
      if (!ParseIntFlag("--queue-limit", value, 0, &flags.env.platform.max_queue_depth)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--queue-deadline-s", &value)) {
      if (!ParseDurationFlag("--queue-deadline-s", value, 1e6, 0,
                             &flags.env.platform.queue_deadline)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--max-concurrency", &value)) {
      if (!ParseIntFlag("--max-concurrency", value, 0,
                        &flags.env.platform.max_concurrency_per_function)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--breaker-threshold", &value)) {
      if (!ParseIntFlag("--breaker-threshold", value, 0,
                        &flags.env.ofc.proxy.breaker_failure_threshold)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--breaker-open-s", &value)) {
      if (!ParseDurationFlag("--breaker-open-s", value, 1e6, 0,
                             &flags.env.ofc.proxy.breaker_open_duration)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--breaker-probes", &value)) {
      if (!ParseIntFlag("--breaker-probes", value, 1,
                        &flags.env.ofc.proxy.breaker_half_open_probes)) {
        return 1;
      }
    } else if (ParseFlag(argv[i], "--breaker-slo-ms", &value)) {
      if (!ParseDurationFlag("--breaker-slo-ms", value, 1e3, 0,
                             &flags.env.ofc.proxy.breaker_latency_slo)) {
        return 1;
      }
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      flags.progress = true;
    } else if (ParseFlag(argv[i], "--max-events", &value)) {
      if (!ParseIntFlag("--max-events", value, 1, &flags.max_events)) {
        return 1;
      }
    } else if (std::strcmp(argv[i], "--selfcheck-determinism") == 0) {
      flags.selfcheck = true;
    } else if (std::strcmp(argv[i], "--selfcheck-perturb") == 0) {
      flags.selfcheck = true;
      flags.selfcheck_perturb = true;
    } else {
      return Usage();
    }
  }
  if (flags.functions.empty() && flags.pipelines.empty()) {
    flags.functions = {"wand_blur", "wand_sepia", "wand_edge"};
  }
  flags.fault_plan.Sort();

  if (flags.selfcheck) {
    return RunSelfcheck(flags);
  }
  faasload::RunArtifacts artifacts;
  return RunScenario(flags, /*quiet=*/false, /*run_index=*/0, &artifacts);
}

}  // namespace ofc

int main(int argc, char** argv) { return ofc::Main(argc, argv); }
