// OfcSystem: the top-level OFC assembly (Figure 4).
//
// Owns the color-filled boxes the paper adds to OpenWhisk — Predictor,
// ModelTrainer, CacheAgent, Proxy — wired against the RAMCloud cluster and the
// RSDS, and implements the platform hooks:
//
//   * SizeInvocation   = Predictor + Sizer (per-invocation M_p, shouldBeCached);
//   * PickSandbox / PickWorkerForNewSandbox = the §6.5 locality-aware routing;
//   * OnSandboxMemoryChange = CacheAgent hoarding (vertical scaling, §6.4);
//   * TryRaiseMemory   = Monitor rescue of under-predicted sandboxes (§5.3.1);
//   * OnInvocationComplete = Monitor -> ModelTrainer feedback loop.
#ifndef OFC_CORE_OFC_SYSTEM_H_
#define OFC_CORE_OFC_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/cache_agent.h"
#include "src/core/ml_service.h"
#include "src/core/proxy.h"
#include "src/faas/platform.h"
#include "src/ramcloud/cluster.h"
#include "src/store/object_store.h"

namespace ofc::core {

struct OfcOptions {
  ModelConfig model;
  CacheAgentOptions cache_agent;
  ProxyOptions proxy;
  // §5.3.1: only invocations expected to run >= 3 s are monitored closely
  // enough for a mid-flight memory raise.
  SimDuration monitor_min_compute = Seconds(3);
  // §6.5 locality-aware routing; disabling it (ablation) falls back to vanilla
  // OWK placement (home-worker hashing, most-recently-used sandbox).
  bool locality_routing = true;
  // RSDS latency estimate used for the caching-benefit labels (§5.2).
  store::StoreProfile rsds_estimate = store::StoreProfile::Swift();
  // Cache admission/eviction policy spec (cache_policy.h):
  // "NAME[,function=NAME...]". The default `lru` reproduces the paper's
  // eviction and cold-sweep behaviour byte-for-byte. An invalid spec logs a
  // warning and falls back to lru (callers wanting a hard error should run
  // ParseCachePolicySpec() first, as ofc-sim does).
  std::string cache_policy = "lru";
  // Observability sinks (src/obs/), propagated into the CacheAgent and Proxy
  // sub-options so the whole assembly shares one registry. Null `metrics` ->
  // the system owns a private registry; null `flight` -> no black-box records.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  obs::FlightRecorder* flight = nullptr;
};

class OfcSystem : public faas::PlatformHooks {
 public:
  OfcSystem(sim::EventLoop* loop, rc::Cluster* cluster, store::ObjectStore* rsds,
            OfcOptions options);

  // Arms the CacheAgent timers and installs the RSDS webhooks.
  void Start();

  faas::DataService* data_service() { return &proxy_; }
  faas::PlatformHooks* hooks() { return this; }

  ModelRegistry& registry() { return registry_; }
  Predictor& predictor() { return predictor_; }
  ModelTrainer& trainer() { return trainer_; }
  CacheAgent& cache_agent() { return cache_agent_; }
  Proxy& proxy() { return proxy_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }

  // ---- faas::PlatformHooks -------------------------------------------------------

  Sizing SizeInvocation(const faas::FunctionConfig& fn,
                        const std::vector<faas::InputObject>& inputs,
                        const std::vector<double>& args) override;
  std::size_t PickSandbox(const std::vector<faas::SandboxInfo>& candidates,
                          Bytes wanted_limit,
                          const std::vector<faas::InputObject>& inputs) override;
  int PickWorkerForNewSandbox(const faas::FunctionConfig& fn,
                              const std::vector<faas::InputObject>& inputs,
                              const std::vector<int>& candidates) override;
  void OnSandboxMemoryChange(const faas::SandboxMemoryEvent& event) override;
  bool TryRaiseMemory(int worker, Bytes current_limit, Bytes needed,
                      SimDuration expected_compute) override;
  void OnInvocationComplete(const faas::FunctionConfig& fn,
                            const std::vector<faas::InputObject>& inputs,
                            const std::vector<double>& args,
                            const faas::InvocationRecord& record) override;

 private:
  // Prediction-quality cells, judged on completion. The Predictor counts
  // model predictions and booked fallbacks itself, into the same registry.
  struct Metrics {
    obs::Counter* good_predictions = nullptr;  // Completed within the predicted size.
    obs::Counter* bad_predictions = nullptr;   // Needed a rescue or an OOM retry.
  };

  rc::Cluster* cluster_;
  OfcOptions options_;
  // Declared before the sub-components: the resolved registry pointer feeds
  // their constructors.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // When none injected.
  obs::MetricsRegistry* metrics_ = nullptr;
  ModelRegistry registry_;
  Predictor predictor_;
  ModelTrainer trainer_;
  // Declared before the CacheAgent and Proxy: both hold a raw pointer to it.
  std::unique_ptr<CachePolicyEngine> policy_engine_;
  CacheAgent cache_agent_;
  Proxy proxy_;
  Metrics m_;
};

}  // namespace ofc::core

#endif  // OFC_CORE_OFC_SYSTEM_H_
