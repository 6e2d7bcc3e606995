#include "src/faasload/runner.h"

#include <algorithm>
#include <utility>

namespace ofc::faasload {

Runner::Runner(Mode mode, EnvironmentOptions options, TenantProfile profile,
               std::uint64_t load_seed)
    : env_(mode, std::move(options)), load_(&env_, profile, load_seed) {}

Status Runner::Arm() {
  if (armed_) {
    return OkStatus();
  }
  const EnvironmentOptions& options = env_.options();
  if (options.scrub.has_value()) {
    if (env_.cluster() == nullptr) {
      return FailedPreconditionError("the scrubber needs a cache cluster (OFC mode)");
    }
    if (options.scrub->interval < 1) {
      return InvalidArgumentError("the scrub interval is below 1 us");
    }
  }
  if (options.scrape_interval < 0) {
    return InvalidArgumentError("the scrape interval is below 1 us");
  }
  if (options.scrape_interval == 0 && !options.slos.empty()) {
    return InvalidArgumentError("SLO specs need a scrape interval");
  }
  if (options.faults.has_value()) {
    // Baseline modes have no cluster or proxy: a plan that targets them rejects.
    faults_ = std::make_unique<fault::FaultInjector>(
        &env_.loop(),
        fault::FaultInjectorTargets{&env_.platform(), env_.cluster(), &env_.rsds(),
                                    env_.ofc() != nullptr ? &env_.ofc()->proxy() : nullptr},
        fault::FaultInjectorOptions{&env_.metrics(), &env_.trace(), &env_.flight()});
    if (Status scheduled = faults_->Schedule(*options.faults); !scheduled.ok()) {
      return Status(scheduled.code(), "fault plan rejected: " + scheduled.message());
    }
  }
  if (options.scrub.has_value()) {
    core::ScrubberOptions scrub = *options.scrub;
    scrub.metrics = &env_.metrics();
    scrubber_ = std::make_unique<core::Scrubber>(&env_.loop(), env_.cluster(), &env_.rsds(),
                                                 scrub);
    scrubber_->Start();
  }
  if (options.scrape_interval > 0) {
    // SLO evaluation folds the interval first so the ofc.slo.* cells land in
    // the same timeline window the scrape captures.
    slo_ = std::make_unique<obs::SloMonitor>(&env_.metrics(), &env_.trace(), options.slos);
    timeline_ = std::make_unique<obs::TimelineRecorder>(&env_.metrics());
    scraper_ = std::make_unique<sim::PeriodicTask>(
        &env_.loop(), options.scrape_interval, [this](SimTime now) {
          slo_->Evaluate(now);
          timeline_->Scrape(now);
        });
    scraper_->Start();
  }
  armed_ = true;
  return OkStatus();
}

Status Runner::Run(SimDuration horizon, SimDuration drain) {
  OFC_RETURN_IF_ERROR(Arm());
  sim::EventLoop& loop = env_.loop();
  const SimTime end = loop.now() + horizon;
  if (load_.has_probe()) {
    load_.Settle(end + drain);
  } else {
    load_.Run(horizon);
  }
  if (drain > 0) {
    loop.RunUntil(std::max(loop.now(), end) + drain);
  }
  if (scrubber_ != nullptr) {
    scrubber_->Stop();
  }
  if (scraper_ != nullptr) {
    scraper_->Stop();
    // Final partial window: the tail between the last tick and the end.
    slo_->Evaluate(loop.now());
    timeline_->Scrape(loop.now());
  }
  return OkStatus();
}

const RunArtifacts& Runner::artifacts() {
  if (collected_) {
    return artifacts_;
  }
  collected_ = true;
  const sim::EventLoop& loop = env_.loop();
  const SimTime now = loop.now();
  artifacts_.metrics_json = env_.metrics().SnapshotJson(now);
  if (timeline_ != nullptr) {
    artifacts_.timeline_json = timeline_->ToJson();
    artifacts_.health_json = slo_->HealthJson(now);
  }
  if (env_.flight().enabled()) {
    artifacts_.flight_json = env_.flight().ToJson("end_of_run");
  }
  if (env_.trace().enabled()) {
    artifacts_.trace_json = env_.trace().ToJson();
  }
  artifacts_.final_time = now;
  artifacts_.events_scheduled = loop.total_scheduled();
  artifacts_.events_dispatched = loop.total_dispatched();
  artifacts_.invocations_fired = load_.invocations_fired();
  artifacts_.invocations_completed = load_.invocations_completed();
  return artifacts_;
}

Result<std::unique_ptr<Runner>> MakeScaleTraceRun(Mode mode, EnvironmentOptions options,
                                                  const workloads::ScaleTrace& trace) {
  options.platform.num_workers = kScaleTraceWorkers;
  options.platform.worker_memory = GiB(32);
  const std::uint64_t seed = options.seed;
  auto run = std::make_unique<Runner>(mode, std::move(options), TenantProfile::kNormal, seed);
  run->load().set_max_records_per_tenant(0);
  OFC_RETURN_IF_ERROR(run->load().AddScaleTrace(trace));
  run->load().PretrainModels(40);
  return run;
}

}  // namespace ofc::faasload
