// Runner: builds one run of the stack, drives its load, and collects what the
// run leaves behind. EnvironmentOptions declares the whole run; every harness
// builds its runs here, in one order, so a replay is byte-identical:
//
//   1. the Environment: the stack, the flight ring and the trace sampling;
//   2. the caller sets up the load (tenants or the probe) and pretrains;
//   3. Arm(): the fault injector schedules the plan, then the scrubber and the
//      telemetry scrape task (SLO evaluation, then a timeline scrape) start;
//   4. Run(): arrivals, the drive to quiescence and the drain; then the
//      scrubber and the scrape task stop, and a final partial scrape closes
//      the timeline at the final simulated time.
#ifndef OFC_FAASLOAD_RUNNER_H_
#define OFC_FAASLOAD_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/core/scrubber.h"
#include "src/faasload/environment.h"
#include "src/faasload/injector.h"
#include "src/fault/fault_injector.h"
#include "src/obs/slo.h"
#include "src/obs/timeline.h"
#include "src/sim/periodic.h"

namespace ofc::faasload {

// Everything a run exports, taken when it ends. The JSON strings are empty when
// their sink was off: timeline and health without a scrape interval, flight
// without a ring, trace without sampling.
struct RunArtifacts {
  std::string metrics_json;
  std::string timeline_json;
  std::string health_json;
  std::string flight_json;
  std::string trace_json;
  SimTime final_time = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t invocations_fired = 0;
  std::uint64_t invocations_completed = 0;
};

class Runner {
 public:
  // Builds the environment and an empty load; `profile` and `load_seed` go to
  // the LoadInjector.
  Runner(Mode mode, EnvironmentOptions options, TenantProfile profile,
         std::uint64_t load_seed);
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  Environment& env() { return env_; }
  LoadInjector& load() { return load_; }
  // The telemetry sinks; null without a scrape interval.
  const obs::SloMonitor* slo() const { return slo_.get(); }
  const obs::TimelineRecorder* timeline() const { return timeline_.get(); }
  // The run's exports, collected on the first call after Run() returned OK (at
  // a million invocations the metrics snapshot costs ~10 MiB of sorted views).
  const RunArtifacts& artifacts();

  // Builds the attachments the options declare, in order: the fault injector
  // (scheduling the plan), the scrubber, the scrape task. An invalid request
  // fails here, naming its cause, before any event runs: a scrubber without a
  // cache cluster, a scrub or scrape interval below 1 us, SLOs without a
  // scrape interval, or a plan the injector rejects.
  Status Arm();

  // Arms if needed, then drives the load: a tenant load through
  // LoadInjector::Run(horizon), a probe load step by step until its last
  // invocation completes or `drain` past the horizon. A positive `drain` then
  // runs on to max(now, horizon) + drain. The scrubber and the scrape task
  // stop, and a final partial scrape closes the timeline at the end.
  Status Run(SimDuration horizon, SimDuration drain = 0);

 private:
  Environment env_;
  LoadInjector load_;
  bool armed_ = false;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<core::Scrubber> scrubber_;
  std::unique_ptr<obs::SloMonitor> slo_;
  std::unique_ptr<obs::TimelineRecorder> timeline_;
  std::unique_ptr<sim::PeriodicTask> scraper_;
  bool collected_ = false;
  RunArtifacts artifacts_;
};

// The scale-trace scenario of bench/scale_stress and tests/scale_test: `trace`
// on kScaleTraceWorkers workers of 32 GiB under the normal booking profile,
// the tenants' records kept as counters only and each function's model
// pretrained on 40 invocations. `options` brings the seed (also the load's)
// and any attachments; its platform size is overwritten.
inline constexpr int kScaleTraceWorkers = 8;
Result<std::unique_ptr<Runner>> MakeScaleTraceRun(Mode mode, EnvironmentOptions options,
                                                  const workloads::ScaleTrace& trace);

}  // namespace ofc::faasload

#endif  // OFC_FAASLOAD_RUNNER_H_
