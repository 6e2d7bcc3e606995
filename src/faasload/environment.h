// Experiment environments: the three configurations compared throughout §7.
//
//   * kOwkSwift — vanilla OpenWhisk, all data in the Swift RSDS (worst case);
//   * kOwkRedis — vanilla OpenWhisk, all data in a Redis IMOC (best case);
//   * kOfc      — OpenWhisk + OFC (RAMCloud cache, ML sizing, Swift RSDS).
//
// An Environment bundles the event loop, stores, cluster, OFC assembly and
// platform with consistent seeding so that benches construct them in one call.
// Its options also declare the run-time attachments a faasload::Runner builds
// around it (src/faasload/runner.h): the fault plan, the scrubber and the
// telemetry scrape.
#ifndef OFC_FAASLOAD_ENVIRONMENT_H_
#define OFC_FAASLOAD_ENVIRONMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/ofc_system.h"
#include "src/core/scrubber.h"
#include "src/faas/direct_data_service.h"
#include "src/faas/platform.h"
#include "src/fault/fault_plan.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/store/object_store.h"

namespace ofc::faasload {

enum class Mode { kOwkSwift, kOwkRedis, kOfc };

std::string ModeName(Mode mode);

struct EnvironmentOptions {
  faas::PlatformOptions platform;
  rc::ClusterOptions cluster;
  core::OfcOptions ofc;
  std::uint64_t seed = 42;
  // Overrides the RSDS latency profile (default: Swift for kOwkSwift/kOfc,
  // Redis for kOwkRedis). The Figure 3 motivation experiment uses S3.
  std::optional<store::StoreProfile> rsds_profile;
  // The registry every layer (platform, cluster, OFC, RSDS) reports into; null
  // -> the environment owns one.
  obs::MetricsRegistry* metrics = nullptr;
  // The Chrome trace: 0 leaves it off, N records every Nth invocation id.
  std::uint64_t trace_sample = 0;
  // The black-box flight ring: 0 leaves it off, N keeps the last N records.
  std::size_t flight_capacity = 0;

  // ---- Run-time attachments, built by faasload::Runner::Arm() ----------------
  // A fault plan replayed by a fault::FaultInjector. An engaged plan builds the
  // injector even when it holds no event, so its ofc.fault.* cells are exported.
  std::optional<fault::FaultPlan> faults;
  // The background integrity scrubber (needs the cache cluster: OFC mode).
  std::optional<core::ScrubberOptions> scrub;
  // Telemetry scrape period: every tick evaluates the SLOs, then scrapes the
  // timeline. 0 = no scrape; SLO specs need one.
  SimDuration scrape_interval = 0;
  std::vector<obs::SloSpec> slos;
};

class Environment {
 public:
  Environment(Mode mode, EnvironmentOptions options);

  Mode mode() const { return mode_; }
  const EnvironmentOptions& options() const { return options_; }
  sim::EventLoop& loop() { return loop_; }
  store::ObjectStore& rsds() { return *rsds_; }
  faas::Platform& platform() { return *platform_; }
  // Null in baseline modes.
  rc::Cluster* cluster() { return cluster_.get(); }
  core::OfcSystem* ofc() { return ofc_.get(); }
  // The registry/recorders every component of this environment reports into.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  obs::TraceRecorder& trace() { return trace_; }
  obs::FlightRecorder& flight() { return flight_; }

 private:
  Mode mode_;
  EnvironmentOptions options_;
  sim::EventLoop loop_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // When none injected.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceRecorder trace_;    // Off unless options.trace_sample > 0.
  obs::FlightRecorder flight_;  // Off unless options.flight_capacity > 0.
  std::unique_ptr<store::ObjectStore> rsds_;
  std::unique_ptr<rc::Cluster> cluster_;
  std::unique_ptr<core::OfcSystem> ofc_;
  std::unique_ptr<faas::DirectDataService> direct_;
  std::unique_ptr<faas::Platform> platform_;
};

}  // namespace ofc::faasload

#endif  // OFC_FAASLOAD_ENVIRONMENT_H_
