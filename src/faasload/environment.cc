#include "src/faasload/environment.h"

#include <utility>

namespace ofc::faasload {

std::string ModeName(Mode mode) {
  switch (mode) {
    case Mode::kOwkSwift:
      return "OWK-Swift";
    case Mode::kOwkRedis:
      return "OWK-Redis";
    case Mode::kOfc:
      return "OFC";
  }
  return "unknown";
}

Environment::Environment(Mode mode, EnvironmentOptions options)
    : mode_(mode), options_(std::move(options)) {
  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (options_.trace_sample > 0) {
    trace_.set_enabled(true);
    trace_.set_sample_period(options_.trace_sample);
  }
  if (options_.flight_capacity > 0) {
    flight_.set_capacity(options_.flight_capacity);
    flight_.set_enabled(true);
  }

  Rng rng(options_.seed);
  const store::StoreProfile profile = options_.rsds_profile.value_or(
      mode == Mode::kOwkRedis ? store::StoreProfile::Redis() : store::StoreProfile::Swift());
  rsds_ = std::make_unique<store::ObjectStore>(
      &loop_, profile, rng.Fork(), mode == Mode::kOwkRedis ? "redis" : "swift", metrics_);

  faas::PlatformOptions platform_options = options_.platform;
  platform_options.metrics = metrics_;
  platform_options.trace = &trace_;
  platform_options.flight = &flight_;

  if (mode == Mode::kOfc) {
    // One RAMCloud storage server per invoker node (§6.1).
    rc::ClusterOptions cluster_options = options_.cluster;
    cluster_options.default_capacity = 0;  // The CacheAgent sets real targets.
    cluster_options.metrics = metrics_;
    cluster_options.flight = &flight_;
    cluster_ = std::make_unique<rc::Cluster>(&loop_, options_.platform.num_workers,
                                             cluster_options, rng.Fork());
    core::OfcOptions ofc_options = options_.ofc;
    ofc_options.cache_agent.worker_memory = options_.platform.worker_memory;
    ofc_options.metrics = metrics_;
    ofc_options.trace = &trace_;
    ofc_options.flight = &flight_;
    ofc_ = std::make_unique<core::OfcSystem>(&loop_, cluster_.get(), rsds_.get(), ofc_options);
    platform_ = std::make_unique<faas::Platform>(&loop_, platform_options,
                                                 ofc_->data_service(), ofc_->hooks(),
                                                 rng.Fork());
    ofc_->Start();
  } else {
    direct_ = std::make_unique<faas::DirectDataService>(rsds_.get());
    platform_ = std::make_unique<faas::Platform>(&loop_, platform_options, direct_.get(),
                                                 /*hooks=*/nullptr, rng.Fork());
  }
}

}  // namespace ofc::faasload
