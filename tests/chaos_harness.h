// Chaos harness: runs a Poisson invocation workload against the full OFC stack
// (platform + proxy + cache + RSDS) while the faasload::Runner's fault injector
// replays a FaultPlan, then audits the end state against six invariants:
//
//   I1 — no acknowledged write is lost: every successful invocation's output
//        object is present, fully persisted, and has the acknowledged size;
//   I2 — cache and store converge once persistors drain: no dirty cached
//        object remains, and no shadow survives except for writes the platform
//        reported as failed (an unacknowledged write may leave a placeholder);
//   I3 — every invocation completes exactly once (crash re-dispatch must
//        neither drop nor duplicate completions);
//   I4 — recovery re-establishes the replication factor: every cached object
//        has an alive master and min(rf, alive-1) distinct alive backups;
//   I5 — overload resolves explicitly: every submission is either completed or
//        shed with kResourceExhausted (never parked forever), and no request
//        waits in the queue past its configured deadline;
//   I6 — no corrupt payload is ever acked: the proxy's corrupt-acked tripwire
//        stays at zero, and (when the scrubber runs) every surviving cache
//        copy and store object verifies against its expected checksum after
//        the drain — injected corruption was detected and repaired.
//
// Everything is deterministic: (seed, options, plan) fully determine the run,
// so ChaosReport::Fingerprint() must be byte-identical across replays.
#ifndef OFC_TESTS_CHAOS_HARNESS_H_
#define OFC_TESTS_CHAOS_HARNESS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/checksum.h"
#include "src/faasload/runner.h"
#include "src/fault/fault_plan.h"
#include "src/obs/slo.h"
#include "src/obs/timeline.h"

namespace ofc::chaos {

// The chaos stack: three workers of 8 GiB in OFC mode, a breaker that (when a
// scenario arms it) stays open 10 s and closes after 2 probes, and a declared,
// empty fault plan, so every run exports the injector's ofc.fault.* cells.
inline faasload::EnvironmentOptions ChaosEnvironment() {
  faasload::EnvironmentOptions env;
  env.seed = 1;
  env.platform.num_workers = 3;  // Also the RAMCloud cluster size.
  env.ofc.proxy.breaker_open_duration = Seconds(10);
  env.ofc.proxy.breaker_half_open_probes = 2;
  env.faults = fault::FaultPlan{};
  return env;
}

// A chaos scenario: the stack, its fault plan, scrubber and telemetry in `env`,
// plus the probe load's shape and the audit's knobs.
struct ChaosScenarioOptions {
  faasload::EnvironmentOptions env = ChaosEnvironment();
  int num_objects = 6;        // Seeded input objects.
  int num_invocations = 30;   // Poisson arrivals over the fault horizon.
  double mean_interval_s = 5.0;
  std::string function = "wand_sepia";
  Bytes input_bytes = KiB(256);
  SimTime fault_horizon = Minutes(5);  // Faults and arrivals land before this.
  SimDuration drain = Minutes(10);     // Post-quiesce persistor drain budget.
  // Arrival burst: `burst_count` extra invocations land back-to-back starting
  // at `burst_at` (1 ms apart), on top of the Poisson arrivals.
  int burst_count = 0;
  SimTime burst_at = Seconds(60);
  // When any invariant violates, dump the flight ring here (the violation
  // summary becomes the dump reason) — post-mortem triage for chaos failures.
  std::string dump_on_violation;
};

struct ChaosReport {
  int scheduled = 0;
  int completed = 0;
  int succeeded = 0;
  int failed = 0;   // Includes shed requests (they complete as failures).
  int shed = 0;     // Rejected by overload protection with kResourceExhausted.
  // Mean extract+load latency (ms) over successful invocations — the data-path
  // cost a breaker-bypass run is compared against the no-cache baseline on.
  double mean_el_ms = 0.0;
  std::vector<std::string> violations;
  faasload::RunArtifacts artifacts;
  std::uint64_t slo_alerts_fired = 0;
  double worst_burn = 0.0;
  // Timeline bracketing for acceptance audits: start of the first and end of
  // the last retained window whose shed / breaker-open counter delta was
  // nonzero (all 0 when scraping was off or the counter never moved). A
  // correct timeline localizes the fault: these windows must bracket the
  // injected fault/overload interval, not the whole run.
  SimTime shed_first_window_start = 0;
  SimTime shed_last_window_end = 0;
  SimTime breaker_first_window_start = 0;
  SimTime breaker_last_window_end = 0;
  // The registry the run reported into; it outlives the run's environment.
  std::shared_ptr<obs::MetricsRegistry> metrics = std::make_shared<obs::MetricsRegistry>();

  bool ok() const { return violations.empty(); }
  // A counter family's total over its labels.
  std::uint64_t counter(const std::string& name) const { return metrics->CounterTotal(name); }
  // Everything observable about the run; replays must match byte-for-byte.
  std::string Fingerprint() const {
    std::ostringstream out;
    out << scheduled << "/" << completed << "/" << succeeded << "/" << failed
        << "/" << shed << "@" << artifacts.final_time << "#" << artifacts.events_scheduled
        << "\n"
        << artifacts.metrics_json << "\n"
        << artifacts.timeline_json << "\n"
        << artifacts.health_json << "\n"
        << artifacts.flight_json;
    return out.str();
  }
  std::string ViolationSummary() const {
    std::ostringstream out;
    for (const std::string& v : violations) {
      out << v << "\n";
    }
    return out.str();
  }
};

// Runs one chaos scenario to quiescence and audits the six invariants.
inline ChaosReport RunChaosScenario(const ChaosScenarioOptions& options) {
  ChaosReport report;
  auto violate = [&report](const std::string& what) {
    report.violations.push_back(what);
  };

  faasload::EnvironmentOptions env_options = options.env;
  env_options.metrics = report.metrics.get();
  faasload::Runner run(faasload::Mode::kOfc, env_options, faasload::TenantProfile::kNormal,
                       options.env.seed * 7919 + 1);
  faasload::Environment& env = run.env();
  // Post-mortem hook shared by every exit path (setup failures included):
  // preserve the causal chain that led up to the breach.
  auto finalize = [&]() -> ChaosReport& {
    if (!report.ok() && !options.dump_on_violation.empty() && env.flight().enabled()) {
      (void)env.flight().WriteJson(options.dump_on_violation, report.ViolationSummary());
    }
    return report;
  };

  // ---- Workload setup and attachments ----------------------------------------
  faasload::LoadInjector& load = run.load();
  if (Status added = load.AddProbe(options.function, options.num_objects, options.input_bytes);
      !added.ok()) {
    violate("setup: " + added.message());
    return finalize();
  }
  if (Status armed = run.Arm(); !armed.ok()) {
    violate("setup: " + armed.message());
    return finalize();
  }
  SimTime quiesce_at = options.fault_horizon;
  if (options.env.faults.has_value()) {
    for (const fault::FaultEvent& event : options.env.faults->events) {
      quiesce_at = std::max(quiesce_at, event.at + event.duration);
    }
  }

  // ---- Poisson arrivals + optional burst -------------------------------------
  const int total_invocations = options.num_invocations + options.burst_count;
  SimTime arrival = 0;
  for (int i = 0; i < options.num_invocations; ++i) {
    arrival += static_cast<SimDuration>(load.rng().Exponential(options.mean_interval_s * 1e6));
    load.SubmitProbe(arrival);
  }
  quiesce_at = std::max(quiesce_at, arrival);
  for (int i = 0; i < options.burst_count; ++i) {
    const SimTime at = options.burst_at + i * Millis(1);
    load.SubmitProbe(at);
    quiesce_at = std::max(quiesce_at, at);
  }

  // ---- Drive to quiescence ---------------------------------------------------
  // All faults have healed by quiesce_at; the drain gives persistor retries a
  // full window beyond whatever point the workload finished at.
  (void)run.Run(quiesce_at, options.drain);  // Armed above: cannot fail.
  report.artifacts = run.artifacts();
  report.scheduled = static_cast<int>(report.artifacts.invocations_fired);

  // One pass over the completion records (the first record per invocation id
  // counts): I1 — no acknowledged write lost; I5 — every submission resolves
  // with an explicit disposition; and the mean extract+load over successes
  // (breaker-bypass vs no-cache comparisons).
  std::map<std::uint64_t, int> completions;
  std::set<std::string> failed_keys;
  double el_sum_ms = 0.0;
  for (const faas::InvocationRecord& record : load.results().front().invocations) {
    if (++completions[record.id] == 1) {
      ++report.completed;
      ++(record.failed ? report.failed : report.succeeded);
    }
    const std::string id = std::to_string(record.id);
    if (record.shed) {
      ++report.shed;
      if (!record.failed || record.final_status != StatusCode::kResourceExhausted) {
        violate("I5: shed invocation " + id + " lacks the kResourceExhausted disposition");
      }
    } else if (record.failed && record.final_status == StatusCode::kOk) {
      violate("I5: failed invocation " + id + " reports final status kOk");
    } else if (!record.failed && record.final_status != StatusCode::kOk) {
      violate("I5: successful invocation " + id + " reports a non-kOk final status");
    }
    if (record.failed) {
      if (!record.output_key.empty()) {
        failed_keys.insert(record.output_key);
      }
      continue;
    }
    el_sum_ms += ToMillis(record.extract_time + record.load_time);
    const auto meta = env.rsds().Stat(record.output_key);
    if (!meta.ok()) {
      violate("I1: acknowledged output " + record.output_key + " missing from RSDS");
    } else if (meta->IsShadow()) {
      violate("I1: acknowledged output " + record.output_key +
              " still a shadow after drain");
    } else if (meta->size != record.output_bytes) {
      violate("I1: output " + record.output_key + " has size " +
              std::to_string(meta->size) + ", acknowledged " +
              std::to_string(record.output_bytes));
    }
  }
  report.mean_el_ms = report.succeeded > 0 ? el_sum_ms / report.succeeded : 0.0;

  // ---- I3: exactly-once completion -------------------------------------------
  if (report.completed != total_invocations) {
    violate("I3: " + std::to_string(total_invocations - report.completed) +
            " invocations never completed");
  }
  for (const auto& [id, count] : completions) {
    if (count > 1) {
      violate("I3: invocation " + std::to_string(id) + " completed " +
              std::to_string(count) + " times");
    }
  }

  // ---- I5: no request waits past its queue deadline -------------------------
  if (const SimDuration deadline = options.env.platform.queue_deadline; deadline > 0) {
    if (const obs::Series* wait =
            env.metrics().FindSeries("ofc.platform.queue_wait_ms");
        wait != nullptr && wait->count() > 0 &&
        wait->running().max() > ToMillis(deadline)) {
      violate("I5: a request waited " + std::to_string(wait->running().max()) +
              " ms in the queue, past the " + std::to_string(ToMillis(deadline)) +
              " ms deadline");
    }
  }

  // ---- I6: no corrupt payload ever acked -------------------------------------
  if (env.metrics().CounterTotal("ofc.integrity.corrupt_acked") > 0) {
    violate("I6: " +
            std::to_string(env.metrics().CounterTotal("ofc.integrity.corrupt_acked")) +
            " corrupt payloads were acked to functions");
  }
  // With the scrubber running through the drain, every injected corruption
  // must have been found and repaired by the end-state sweeps below.
  const bool scrubbed = options.env.scrub.has_value();

  // ---- One walk of the cache: I2 (no dirty object), I4 (replication), I6 -----
  rc::Cluster* cluster = env.cluster();
  const int want_backups = std::min(cluster->options().replication_factor,
                                    std::max(cluster->AliveNodes() - 1, 0));
  for (int node = 0; node < cluster->num_nodes(); ++node) {
    for (const rc::CachedObject& obj : cluster->ObjectsOn(node)) {
      const std::string& key = obj.key;
      if (obj.dirty) {
        violate("I2: cached object " + key + " still dirty after drain");
      }
      if (!cluster->Alive(obj.master)) {
        violate("I4: object " + key + " mastered on dead node " +
                std::to_string(obj.master));
      }
      std::set<int> backups;
      for (const rc::Replica& backup : obj.backups) {
        backups.insert(backup.node);
      }
      if (backups.size() != obj.backups.size() || backups.contains(obj.master)) {
        violate("I4: object " + key + " has duplicate or self-referential backups");
      }
      for (const rc::Replica& backup : obj.backups) {
        if (!cluster->Alive(backup.node)) {
          violate("I4: object " + key + " has backup on dead node " +
                  std::to_string(backup.node));
        }
      }
      if (static_cast<int>(obj.backups.size()) < want_backups) {
        violate("I4: object " + key + " under-replicated: " +
                std::to_string(obj.backups.size()) + " < " +
                std::to_string(want_backups));
      }
      const Checksum expected = ExpectedChecksum(key, obj.size, obj.version);
      if (scrubbed && obj.checksum != expected) {
        violate("I6: cached object " + key + " master copy still corrupt after drain");
      }
      for (const rc::Replica& backup : obj.backups) {
        if (scrubbed && backup.checksum != expected) {
          violate("I6: cached object " + key + " backup copy on node " +
                  std::to_string(backup.node) + " still corrupt after drain");
        }
      }
    }
  }

  // ---- One walk of the store: I2 (no stray shadow), I6 -----------------------
  for (const std::string& key : env.rsds().Keys()) {
    const auto meta = env.rsds().Stat(key);
    if (!meta.ok()) {
      continue;
    }
    if (meta->IsShadow() && !failed_keys.contains(key)) {
      violate("I2: shadow " + key + " survived drain without a failed write");
    }
    if (scrubbed && meta->checksum != ExpectedChecksum(key, meta->size, meta->rsds_version)) {
      violate("I6: store object " + key + " still corrupt after drain");
    }
  }

  if (const obs::TimelineRecorder* timeline = run.timeline(); timeline != nullptr) {
    auto bracket = [timeline](const std::string& family, SimTime* first_start,
                              SimTime* last_end) {
      for (const obs::TimelineWindow& window : timeline->windows()) {
        for (const obs::TimelineCounter& cell : window.counters) {
          if (cell.name == family && cell.delta > 0) {
            if (*last_end == 0) {
              *first_start = window.start;
            }
            *last_end = window.end;
            break;
          }
        }
      }
    };
    bracket("ofc.overload.shed", &report.shed_first_window_start,
            &report.shed_last_window_end);
    bracket("ofc.breaker.opens", &report.breaker_first_window_start,
            &report.breaker_last_window_end);
  }
  if (const obs::SloMonitor* slo = run.slo(); slo != nullptr) {
    report.slo_alerts_fired = slo->alerts_fired();
    report.worst_burn = slo->worst_burn();
  }
  return finalize();
}

}  // namespace ofc::chaos

#endif  // OFC_TESTS_CHAOS_HARNESS_H_
