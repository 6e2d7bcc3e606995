// Repository benchmark: simulator throughput and simulated latency end to end,
// with a per-layer breakdown timed at the platform seams.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Repeats one workload (fresh stack each time, same seed) until S seconds of
// wall time are spent, checks that every repetition simulated exactly the
// same run, and prints one JSON object as the last line of stdout:
//   --trace 0: the end-to-end metrics, from untraced repetitions;
//   --trace 1: the per-layer metrics, from traced repetitions interleaved with
//              untraced ones (the difference is the tracing overhead).
// A repetition that breaks the correctness gate makes the run fail: it prints
// "correct": false with no metrics and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/scenario.h"
#include "perfbench/src/seams.h"
#include "src/sim/event_loop.h"

namespace ofc::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr std::size_t kSetupSamples = 9;
// One setup_s sample is the mean over a batch of set-up passes lasting at
// least this long, so that a set-up of a few milliseconds is not timed one
// pass at a time.
constexpr double kSetupBatchSeconds = 0.05;
// Section 5.1.1 of the paper: one size prediction must take under 1 ms.
constexpr double kPredictBudgetUs = 1000.0;

// Whether the layer behind a per-layer metric runs on `spec`. A metric of a
// layer that does not run is printed as n/a and reported as 0.
bool Applicable(const WorkloadSpec& spec, const std::string& name) {
  const auto starts = [&name](const char* prefix) { return name.rfind(prefix, 0) == 0; };
  if (starts("obs.")) {
    return spec.observed;
  }
  return spec.ofc || !(starts("ml.") || starts("cache_agent.") || starts("ramcloud.") ||
                       name == "proxy.hit_ratio" || name == "proxy.persistor_runs_per_write");
}

// Printed with --trace 1, in this order.
constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_invocation", "events/inv"},
    {"sim.cancel_frac", "ratio"},
    {"sim.wall_ns_per_event", "ns"},
    {"sim.pending_peak", "count"},
    {"sim.bare_ns_per_event", "ns"},
    {"sim.loop_share", "ratio"},
    {"sim_latency_samples", "count"},
    {"platform.invoke_self_ns", "ns"},
    {"platform.resume_self_ns", "ns"},
    {"platform.wall_share", "ratio"},
    {"platform.cold_start_frac", "ratio"},
    {"platform.queue_wait_ms_p99", "sim_ms"},
    {"platform.oom_retry_frac", "ratio"},
    {"platform.failed_frac", "ratio"},
    {"proxy.read_calls", "count"},
    {"proxy.write_calls", "count"},
    {"proxy.read_self_ns", "ns"},
    {"proxy.write_self_ns", "ns"},
    {"proxy.wall_share", "ratio"},
    {"proxy.read_sim_ms_p50", "sim_ms"},
    {"proxy.read_sim_ms_p99", "sim_ms"},
    {"proxy.write_sim_ms_p50", "sim_ms"},
    {"proxy.write_sim_ms_p99", "sim_ms"},
    {"proxy.hit_ratio", "ratio"},
    {"proxy.read_byte_share", "ratio"},
    {"proxy.persistor_runs_per_write", "ratio"},
    {"ml.predict_us_p50", "us"},
    {"ml.predict_us_p99", "us"},
    {"ml.train_us_mean", "us"},
    {"ml.wall_share", "ratio"},
    {"ml.model_prediction_frac", "ratio"},
    {"ml.bad_prediction_frac", "ratio"},
    {"ml.pretrain_s", "s"},
    {"cache_agent.self_ns", "ns"},
    {"cache_agent.wall_share", "ratio"},
    {"cache_agent.capacity_mb_mean", "MiB"},
    {"cache_agent.working_set_ratio", "ratio"},
    {"routing.self_ns", "ns"},
    {"routing.wall_share", "ratio"},
    {"ramcloud.local_hit_frac", "ratio"},
    {"ramcloud.evictions_per_write", "ratio"},
    {"ramcloud.write_reject_frac", "ratio"},
    {"ramcloud.migrations", "count"},
    {"ramcloud.used_mb_peak", "MiB"},
    {"store.reads_per_invocation", "1/inv"},
    {"store.writes_per_invocation", "1/inv"},
    {"store.bytes_read_per_invocation", "B/inv"},
    {"store.bytes_written_per_invocation", "B/inv"},
    {"obs.scrape_us_mean", "us"},
    {"obs.export_s", "s"},
    {"obs.trace_events", "count"},
    {"obs.flight_records", "count"},
    {"obs.overhead_frac", "ratio"},
    {"obs.wall_share", "ratio"},
    {"driver.wall_share", "ratio"},
    {"unattributed.wall_share", "ratio"},
    {"trace_overhead_frac", "ratio"},
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      const unsigned long trace = std::strtoul(value, &end, 10);
      if (trace > 1) {
        return false;
      }
      args->trace = trace == 1;
    } else {
      return false;
    }
    if (end == value || *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

template <typename F>
double MedianOf(const std::vector<RepResult>& reps, F f) {
  std::vector<double> values;
  for (const RepResult& rep : reps) {
    values.push_back(f(rep));
  }
  return Median(std::move(values));
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// Wall nanoseconds per event of the bare sim::EventLoop on the simulator's
// dominant pattern: self-re-arming chains, each hop also cancelling and
// re-arming a long keep-alive timer. Median of three passes.
double BareNsPerEvent() {
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr std::size_t kActors = 256;
  struct State {
    sim::EventLoop loop;
    std::vector<sim::EventLoop::EventId> keepalive = std::vector<sim::EventLoop::EventId>(kActors);
    std::uint64_t hops = 0;
  };
  struct Hop {
    State* state;
    std::size_t actor;
    void operator()() const {
      State& s = *state;
      if (++s.hops + kActors >= kEvents) {
        return;
      }
      s.loop.Cancel(s.keepalive[actor]);
      s.keepalive[actor] = s.loop.ScheduleAfter(Seconds(600), [] {});
      s.loop.ScheduleAfter(Millis(1) + static_cast<SimDuration>(actor), Hop{state, actor});
    }
  };
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    auto state = std::make_unique<State>();
    const std::int64_t start = WallNs();
    for (std::size_t a = 0; a < kActors; ++a) {
      state->loop.ScheduleAfter(static_cast<SimDuration>(a), Hop{state.get(), a});
    }
    state->loop.Run();
    passes.push_back(static_cast<double>(WallNs() - start) /
                     static_cast<double>(state->loop.total_dispatched()));
  }
  return Median(std::move(passes));
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, const RepResult& rep,
                 const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.fired) +
                     ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, value] = metrics[i];
    json += std::string(i == 0 ? "" : ", ") + "\"" + def.name + "\": {\"value\": " +
            JsonNumber(value) + ", \"unit\": \"" + def.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// The correctness gate: every repetition completed every request exactly
// once, acked no corrupt payload, and simulated exactly the reference run.
bool Gate(const std::vector<const RepResult*>& reps, const RepResult& reference) {
  bool ok = true;
  for (const RepResult* rep : reps) {
    if (rep->fired != rep->completed) {
      std::fprintf(stderr, "gate: exactly-once broken: fired %llu, completed %llu\n",
                   static_cast<unsigned long long>(rep->fired),
                   static_cast<unsigned long long>(rep->completed));
      ok = false;
    }
    if (rep->corrupt_acked != 0) {
      std::fprintf(stderr, "gate: %llu corrupt payload(s) acked\n",
                   static_cast<unsigned long long>(rep->corrupt_acked));
      ok = false;
    }
    if (!(rep->fingerprint == reference.fingerprint)) {
      std::fprintf(stderr,
                   "gate: fingerprint (%llu events, t=%lld, %016llx) differs from reference "
                   "(%llu events, t=%lld, %016llx)\n",
                   static_cast<unsigned long long>(rep->fingerprint.events_scheduled),
                   static_cast<long long>(rep->fingerprint.final_time),
                   static_cast<unsigned long long>(rep->fingerprint.metrics_hash),
                   static_cast<unsigned long long>(reference.fingerprint.events_scheduled),
                   static_cast<long long>(reference.fingerprint.final_time),
                   static_cast<unsigned long long>(reference.fingerprint.metrics_hash));
      ok = false;
    }
  }
  // p99.9 needs at least ten samples beyond it.
  if (reference.completed < 10'000) {
    std::fprintf(stderr, "gate: %llu completions, fewer than the 10000 p99.9 needs\n",
                 static_cast<unsigned long long>(reference.completed));
    ok = false;
  }
  return ok;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  // The observed workload must simulate exactly what the plain one does; its
  // plain twin runs first as the reference (and, traced, prices obs).
  const WorkloadSpec* plain = spec->observed ? FindWorkload("azure-ofc") : nullptr;
  std::vector<RepResult> references;
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  // Only the reference repetition (the first untraced one) keeps its latency
  // samples, so that peak RSS does not grow with the number of repetitions
  // that fit in the budget.
  const auto run = [&](std::vector<RepResult>* reps, const WorkloadSpec& workload, bool trace) {
    reps->push_back(RunRep(workload, args.seed, trace));
    if (reps != &untraced || untraced.size() > 1) {
      std::vector<double>().swap(reps->back().latency_ms);
    }
  };
  if (plain != nullptr) {
    run(&references, *plain, false);
  }
  const double bare_ns = args.trace ? BareNsPerEvent() : 0.0;
  // setup_s is the median of batch means spread through the run, so that they
  // meet the same machine as the repetitions: one batch after each round, and
  // enough more to keep pace towards kSetupSamples by the end of the budget.
  std::vector<double> setup_s;
  const auto time_setups = [&](std::size_t at_least_n) {
    do {
      double spent = 0.0;
      int passes = 0;
      do {
        spent += SetupSeconds(*spec, args.seed);
        ++passes;
      } while (spent < kSetupBatchSeconds);
      setup_s.push_back(spent / passes);
    } while (setup_s.size() < at_least_n);
  };

  const std::int64_t start = WallNs();
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t last = 0;
  do {
    const std::int64_t rep_start = WallNs();
    run(&untraced, *spec, false);
    if (args.trace) {
      run(&traced, *spec, true);
      if (plain != nullptr) {
        run(&references, *plain, false);
      }
    } else {
      const double progress = std::min(1.0, static_cast<double>(WallNs() - start) /
                                                static_cast<double>(budget));
      time_setups(static_cast<std::size_t>(std::ceil(progress * kSetupSamples)));
    }
    last = WallNs() - rep_start;
    // Stop when another round would end further past the budget than short of it.
  } while (WallNs() - start + last / 2 < budget);
  if (!args.trace) {
    time_setups(kSetupSamples);
  }

  const RepResult& first = untraced.front();
  std::vector<const RepResult*> all;
  for (const auto* reps : {&references, &untraced, &traced}) {
    for (const RepResult& rep : *reps) {
      all.push_back(&rep);
    }
  }
  const bool correct = Gate(all, first);

  const double run_s = MedianOf(untraced, [](const RepResult& r) { return r.run_s; });
  const double p999_beyond = static_cast<double>(first.latency_ms.size()) / 1000.0;
  std::printf("workload %s, seed %llu: %zu untraced + %zu traced repetition(s)\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed), untraced.size(),
              traced.size());
  std::printf("  requests %llu, failed or shed %llu, executions %llu, events %llu\n",
              static_cast<unsigned long long>(first.fired),
              static_cast<unsigned long long>(first.failed),
              static_cast<unsigned long long>(first.executions),
              static_cast<unsigned long long>(first.events_dispatched));
  std::printf("  latency samples %zu (%.0f beyond p99.9); fingerprint %llu events, t=%lld us, "
              "%016llx\n",
              first.latency_ms.size(), p999_beyond,
              static_cast<unsigned long long>(first.fingerprint.events_scheduled),
              static_cast<long long>(first.fingerprint.final_time),
              static_cast<unsigned long long>(first.fingerprint.metrics_hash));
  std::printf("  run wall per repetition (s):");
  for (const RepResult& rep : untraced) {
    std::printf(" %.3f", rep.run_s);
  }
  std::printf("\n");
  if (!correct) {
    PrintResult(false, first, {});
    return 1;
  }

  std::vector<std::pair<MetricDef, double>> metrics;
  if (!args.trace) {
    const double completed = static_cast<double>(first.completed);
    // Always 0 on a workload where no operation fails, so it is reported
    // here and as platform.failed_frac, not as a bounded metric.
    std::printf("  %-36s %16.6g ratio\n", "failed_frac",
                static_cast<double>(first.failed) / static_cast<double>(first.fired));
    // Every repetition does the same work, and on a shared machine other
    // tenants' load only ever slows one down: the fastest is the steadiest
    // estimate of the code's own speed.
    double fastest_s = first.run_s;
    for (const RepResult& rep : untraced) {
      fastest_s = std::min(fastest_s, rep.run_s);
    }
    metrics = {
        {{"invocations_per_s", "1/s"}, static_cast<double>(first.executions) / fastest_s},
        {{"setup_s", "s"}, Median(setup_s)},
        {{"peak_rss_mb", "MiB"}, PeakRssMb()},
        {{"sim_latency_p50_ms", "sim_ms"}, Quantile(first.latency_ms, 0.5)},
        {{"sim_latency_p999_ms", "sim_ms"}, Quantile(first.latency_ms, 0.999)},
        {{"sim_el_ms_per_invocation", "sim_ms"}, first.el_ms / completed},
    };
  } else {
    // Per-layer metrics from one traced repetition, the one of median run
    // time, so that its wall shares sum to 1; the counters are identical in
    // every repetition.
    std::vector<const RepResult*> by_time;
    for (const RepResult& rep : traced) {
      by_time.push_back(&rep);
    }
    std::sort(by_time.begin(), by_time.end(),
              [](const RepResult* a, const RepResult* b) { return a->run_s < b->run_s; });
    const RepResult& median_traced = *by_time[(by_time.size() - 1) / 2];
    std::map<std::string, double> layer = median_traced.layer;
    double shares = 0.0;
    for (const auto& [name, value] : layer) {
      shares += name.ends_with(".wall_share") ? value : 0.0;
    }
    std::printf("  wall shares sum to %.6f\n", shares);
    if (spec->ofc) {
      // Wall time depends on the machine, so an overrun warns, not fails.
      const double p99 = layer["ml.predict_us_p99"];
      std::printf("  ml.predict_us_p99 %.3f us is %s the %.0f us prediction budget\n", p99,
                  p99 <= kPredictBudgetUs ? "within" : "OVER", kPredictBudgetUs);
    }
    const double events = static_cast<double>(first.events_dispatched);
    layer["sim.wall_ns_per_event"] = run_s * 1e9 / events;
    layer["sim.bare_ns_per_event"] = bare_ns;
    layer["sim.loop_share"] = bare_ns * events / (run_s * 1e9);
    layer["sim_latency_samples"] = static_cast<double>(first.latency_ms.size());
    layer["trace_overhead_frac"] = median_traced.run_s / run_s - 1.0;
    if (plain != nullptr) {
      layer["obs.overhead_frac"] =
          run_s / MedianOf(references, [](const RepResult& r) { return r.run_s; }) - 1.0;
    }
    for (const MetricDef& def : kPerLayer) {
      const auto it = layer.find(def.name);
      metrics.push_back({def, it == layer.end() ? 0.0 : it->second});
    }
  }
  for (const auto& [def, value] : metrics) {
    if (Applicable(*spec, def.name)) {
      std::printf("  %-36s %16.6g %s\n", def.name, value, def.unit);
    } else {
      std::printf("  %-36s %16s\n", def.name, "n/a");
    }
  }
  PrintResult(true, first, metrics);
  return 0;
}

}  // namespace
}  // namespace ofc::perfbench

int main(int argc, char** argv) { return ofc::perfbench::Main(argc, argv); }
