#include "src/core/ofc_system.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/logging.h"

namespace ofc::core {

namespace {

CacheAgentOptions WithObs(CacheAgentOptions o, obs::MetricsRegistry* metrics,
                          obs::TraceRecorder* trace, obs::FlightRecorder* flight) {
  o.metrics = metrics;
  o.trace = trace;
  o.flight = flight;
  return o;
}

ProxyOptions WithObs(ProxyOptions o, obs::MetricsRegistry* metrics, obs::TraceRecorder* trace,
                     obs::FlightRecorder* flight) {
  o.metrics = metrics;
  o.trace = trace;
  o.flight = flight;
  return o;
}

CacheAgentOptions WithPolicy(CacheAgentOptions o, CachePolicyEngine* policy) {
  o.policy = policy;
  return o;
}

ProxyOptions WithPolicy(ProxyOptions o, CachePolicyEngine* policy) {
  o.policy = policy;
  return o;
}

// Builds the shared policy engine from the options. An invalid spec downgrades
// to the paper-faithful lru default (with a warning) rather than failing the
// whole assembly; ofc-sim validates the flag up front for a hard error.
std::unique_ptr<CachePolicyEngine> MakePolicyEngine(const OfcOptions& options,
                                                    ModelRegistry* registry,
                                                    obs::MetricsRegistry* metrics) {
  CachePolicyEngineOptions engine_options;
  engine_options.config.sweep_min_access = options.cache_agent.sweep_min_access;
  engine_options.config.sweep_max_idle = options.cache_agent.sweep_max_idle;
  engine_options.config.sweep_period = options.cache_agent.sweep_period;
  engine_options.config.store_profile = options.rsds_estimate;
  engine_options.benefit = [registry](const std::string& function) {
    return registry->CachingBenefitConfidence(function);
  };
  engine_options.metrics = metrics;
  engine_options.flight = options.flight;
  auto engine = CachePolicyEngine::Create(options.cache_policy, engine_options);
  if (!engine.ok()) {
    OFC_LOG(Warning) << "invalid cache policy spec '" << options.cache_policy << "' ("
                     << engine.status().message() << "); falling back to lru";
    engine = CachePolicyEngine::Create("lru", engine_options);
  }
  return std::move(*engine);
}

}  // namespace

OfcSystem::OfcSystem(sim::EventLoop* loop, rc::Cluster* cluster, store::ObjectStore* rsds,
                     OfcOptions options)
    : cluster_(cluster),
      options_(options),
      owned_metrics_(options.metrics == nullptr ? std::make_unique<obs::MetricsRegistry>()
                                                : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics : owned_metrics_.get()),
      registry_(options.model),
      predictor_(&registry_, metrics_),
      trainer_(&registry_, options.rsds_estimate, metrics_),
      policy_engine_(MakePolicyEngine(options, &registry_, metrics_)),
      cache_agent_(loop, cluster,
                   WithPolicy(WithObs(options.cache_agent, metrics_, options.trace,
                                      options.flight),
                              policy_engine_.get())),
      proxy_(loop, cluster, rsds,
             WithPolicy(WithObs(options.proxy, metrics_, options.trace, options.flight),
                        policy_engine_.get())) {
  m_.good_predictions = metrics_->GetCounter("ofc.predictor.good_predictions");
  m_.bad_predictions = metrics_->GetCounter("ofc.predictor.bad_predictions");
  cache_agent_.set_writeback([this](const std::string& key, CacheAgent::WritebackDone done) {
    proxy_.Writeback(key, std::move(done));
  });
}

void OfcSystem::Start() {
  cache_agent_.Start();
  proxy_.InstallWebhooks();
}

faas::PlatformHooks::Sizing OfcSystem::SizeInvocation(
    const faas::FunctionConfig& fn, const std::vector<faas::InputObject>& inputs,
    const std::vector<double>& args) {
  const workloads::MediaDescriptor media = faas::Platform::AggregateMedia(inputs);
  // The Predictor itself counts model-vs-fallback into the shared registry.
  const Prediction prediction =
      predictor_.Predict(fn.spec, media, args, fn.booked_memory);
  return Sizing{prediction.memory, prediction.should_cache};
}

std::size_t OfcSystem::PickSandbox(const std::vector<faas::SandboxInfo>& candidates,
                                   Bytes wanted_limit,
                                   const std::vector<faas::InputObject>& inputs) {
  if (!options_.locality_routing) {
    return PlatformHooks::PickSandbox(candidates, wanted_limit, inputs);
  }
  // §6.5, decreasing priority: (i) smallest |current - wanted| memory delta,
  // (ii) headroom is enforced by the platform, (iii) data locality with the
  // master cached copy, (iv) most recently used.
  int master = -1;
  if (!inputs.empty()) {
    master = cluster_->MasterOf(inputs.front().key).value_or(-1);
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const auto delta = [&](std::size_t j) {
      return std::llabs(candidates[j].current_limit - wanted_limit);
    };
    if (delta(i) != delta(best)) {
      if (delta(i) < delta(best)) {
        best = i;
      }
      continue;
    }
    const bool i_local = candidates[i].worker == master;
    const bool best_local = candidates[best].worker == master;
    if (i_local != best_local) {
      if (i_local) {
        best = i;
      }
      continue;
    }
    if (candidates[i].last_used > candidates[best].last_used) {
      best = i;
    }
  }
  return best;
}

int OfcSystem::PickWorkerForNewSandbox(const faas::FunctionConfig&,
                                       const std::vector<faas::InputObject>& inputs,
                                       const std::vector<int>& candidates) {
  // §6.5: a new sandbox preferably lands on the node holding the master
  // (in-memory) copy of the requested object.
  if (options_.locality_routing && !inputs.empty()) {
    const auto master = cluster_->MasterOf(inputs.front().key);
    if (master.has_value() &&
        std::find(candidates.begin(), candidates.end(), *master) != candidates.end()) {
      return *master;
    }
  }
  return candidates.empty() ? -1 : candidates.front();
}

void OfcSystem::OnSandboxMemoryChange(const faas::SandboxMemoryEvent& event) {
  cache_agent_.OnSandboxMemoryChange(event);
}

bool OfcSystem::TryRaiseMemory(int worker, Bytes current_limit, Bytes needed,
                               SimDuration expected_compute) {
  if (expected_compute < options_.monitor_min_compute) {
    return false;  // Short invocations are not monitored (§5.3.1).
  }
  return cache_agent_.ReleaseForSandbox(worker, needed - current_limit);
}

void OfcSystem::OnInvocationComplete(const faas::FunctionConfig& fn,
                                     const std::vector<faas::InputObject>& inputs,
                                     const std::vector<double>& args,
                                     const faas::InvocationRecord& record) {
  const workloads::MediaDescriptor media = faas::Platform::AggregateMedia(inputs);
  const bool from_model =
      trainer_.RecordInvocation(fn.spec, media, args, record.memory_used, record.compute_time,
                                record.input_bytes, record.output_bytes);
  if (from_model) {
    if (record.oom_rescued || record.oom_killed) {
      ++*m_.bad_predictions;
    } else {
      ++*m_.good_predictions;
    }
  }
}

}  // namespace ofc::core
