// Predictor and ModelTrainer (Figure 4): the two ML-facing components of OFC.
//
// The Predictor answers, per invocation and on the critical path, (i) how much
// memory the sandbox needs (M_p) and (ii) whether caching the invocation's
// objects is beneficial (shouldBeCached). The ModelTrainer consumes completion
// reports from the Monitor and keeps the per-function models fresh. Both share
// a ModelRegistry, mirroring the paper's setup where models are stored with the
// function metadata (CouchDB) and fetched on invocation.
#ifndef OFC_CORE_ML_SERVICE_H_
#define OFC_CORE_ML_SERVICE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/function_model.h"
#include "src/obs/metrics.h"
#include "src/sim/latency.h"
#include "src/store/object_store.h"
#include "src/workloads/functions.h"

namespace ofc::core {

class ModelRegistry {
 public:
  explicit ModelRegistry(ModelConfig config) : config_(config) {}

  // Looks up the model for `spec`, creating a blank one on first sight (models
  // are blank when a function is uploaded, §5.1.1).
  FunctionModel& GetOrCreate(const workloads::FunctionSpec& spec);
  FunctionModel* Find(const std::string& function);
  const FunctionModel* Find(const std::string& function) const;
  const ModelConfig& config() const { return config_; }

  // Per-function caching-benefit confidence for the cost-aware cache policy:
  // the function's FunctionModel::BenefitConfidence(), or 0.5 (no opinion)
  // while the model is unknown or immature.
  double CachingBenefitConfidence(const std::string& function) const;

 private:
  ModelConfig config_;
  std::map<std::string, std::unique_ptr<FunctionModel>> models_;
};

struct Prediction {
  Bytes memory = 0;           // Sandbox allocation (conservative upper bound).
  bool should_cache = false;  // Caching-benefit call (§5.2).
  bool from_model = false;    // False: immature model, booked memory returned.
};

class Predictor {
 public:
  // `metrics` (optional): registers `ofc.predictor.model_predictions` /
  // `ofc.predictor.booked_fallbacks`, bumped per Predict() call.
  explicit Predictor(ModelRegistry* registry, obs::MetricsRegistry* metrics = nullptr)
      : registry_(registry) {
    if (metrics != nullptr) {
      model_predictions_ = metrics->GetCounter("ofc.predictor.model_predictions");
      booked_fallbacks_ = metrics->GetCounter("ofc.predictor.booked_fallbacks");
    }
  }

  // Critical-path prediction. Falls back to `booked` until the function's
  // model is mature (§5.3.1); the benefit model is subordinated to the memory
  // model's maturity (§7.1.3).
  Prediction Predict(const workloads::FunctionSpec& spec,
                     const workloads::MediaDescriptor& media, const std::vector<double>& args,
                     Bytes booked);

 private:
  ModelRegistry* registry_;
  obs::Counter* model_predictions_ = nullptr;  // Null when metrics not wired.
  obs::Counter* booked_fallbacks_ = nullptr;
};

class ModelTrainer {
 public:
  // `rsds_estimate` prices what E (read) and L (write) would cost against the
  // remote store; the benefit label is (E + L) / (E + T + L) > 0.5 (§5.2).
  // `metrics` (optional): registers `ofc.trainer.samples` /
  // `ofc.trainer.models_matured`.
  ModelTrainer(ModelRegistry* registry, store::StoreProfile rsds_estimate,
               obs::MetricsRegistry* metrics = nullptr)
      : registry_(registry), rsds_estimate_(rsds_estimate) {
    if (metrics != nullptr) {
      samples_ = metrics->GetCounter("ofc.trainer.samples");
      models_matured_ = metrics->GetCounter("ofc.trainer.models_matured");
    }
  }

  // Completion feedback from the Monitor: actual peak memory (cgroup), the
  // measured transform time, and the observed input/output sizes. Returns
  // whether the function's model was mature before it learned this sample,
  // that is, whether the Predictor sized the invocation from the model.
  bool RecordInvocation(const workloads::FunctionSpec& spec,
                        const workloads::MediaDescriptor& media,
                        const std::vector<double>& args, Bytes actual_memory,
                        SimDuration compute_time, Bytes input_bytes, Bytes output_bytes);

  // Offline pretraining from a synthetic invocation trace (the artifact ships
  // offline ML scripts and initial datasets; used to warm up macro workloads).
  void Pretrain(const workloads::FunctionSpec& spec, int invocations, Rng& rng);

 private:
  ModelRegistry* registry_;
  store::StoreProfile rsds_estimate_;
  obs::Counter* samples_ = nullptr;  // Null when metrics not wired.
  obs::Counter* models_matured_ = nullptr;
};

}  // namespace ofc::core

#endif  // OFC_CORE_ML_SERVICE_H_
