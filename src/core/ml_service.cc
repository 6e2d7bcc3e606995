#include "src/core/ml_service.h"

#include "src/workloads/media.h"

namespace ofc::core {

FunctionModel& ModelRegistry::GetOrCreate(const workloads::FunctionSpec& spec) {
  auto it = models_.find(spec.name);
  if (it == models_.end()) {
    it = models_
             .emplace(spec.name, std::make_unique<FunctionModel>(
                                     spec.name, workloads::FeatureAttributes(spec), config_))
             .first;
  }
  return *it->second;
}

FunctionModel* ModelRegistry::Find(const std::string& function) {
  auto it = models_.find(function);
  return it == models_.end() ? nullptr : it->second.get();
}

const FunctionModel* ModelRegistry::Find(const std::string& function) const {
  auto it = models_.find(function);
  return it == models_.end() ? nullptr : it->second.get();
}

double ModelRegistry::CachingBenefitConfidence(const std::string& function) const {
  const FunctionModel* model = Find(function);
  if (model == nullptr || !model->mature()) {
    return 0.5;
  }
  return model->BenefitConfidence();
}

Prediction Predictor::Predict(const workloads::FunctionSpec& spec,
                              const workloads::MediaDescriptor& media,
                              const std::vector<double>& args, Bytes booked) {
  Prediction prediction;
  prediction.memory = booked;
  FunctionModel& model = registry_->GetOrCreate(spec);
  const auto fallback = [this, &prediction] {
    if (booked_fallbacks_ != nullptr) {
      ++*booked_fallbacks_;
    }
    return prediction;
  };
  if (!model.mature()) {
    return fallback();
  }
  const std::vector<double> features = workloads::ExtractFeatures(spec, media, args);
  const std::optional<int> cls = model.PredictClass(features);
  if (!cls.has_value()) {
    return fallback();
  }
  const MemoryIntervals& intervals = registry_->config().intervals;
  prediction.memory = registry_->config().conservative_bump
                          ? intervals.ConservativeAllocation(*cls)
                          : intervals.UpperBound(*cls);
  prediction.from_model = true;
  prediction.should_cache = model.PredictBenefit(features).value_or(false);
  if (model_predictions_ != nullptr) {
    ++*model_predictions_;
  }
  return prediction;
}

bool ModelTrainer::RecordInvocation(const workloads::FunctionSpec& spec,
                                    const workloads::MediaDescriptor& media,
                                    const std::vector<double>& args, Bytes actual_memory,
                                    SimDuration compute_time, Bytes input_bytes,
                                    Bytes output_bytes) {
  FunctionModel& model = registry_->GetOrCreate(spec);
  const std::vector<double> features = workloads::ExtractFeatures(spec, media, args);
  // Estimate the E and L phases against the RSDS (jitter-free expectation);
  // caching is beneficial when they would dominate (§5.2).
  const SimDuration e_est = rsds_estimate_.read.Cost(input_bytes);
  const SimDuration l_est = rsds_estimate_.write.Cost(output_bytes);
  const double total = static_cast<double>(e_est + compute_time + l_est);
  const bool benefit = total > 0 && static_cast<double>(e_est + l_est) / total > 0.5;
  const bool was_mature = model.mature();
  model.Learn(features, actual_memory, benefit);
  if (samples_ != nullptr) {
    ++*samples_;
    if (!was_mature && model.mature()) {
      ++*models_matured_;
    }
  }
  return was_mature;
}

void ModelTrainer::Pretrain(const workloads::FunctionSpec& spec, int invocations, Rng& rng) {
  workloads::MediaGenerator generator(rng.Fork());
  for (int i = 0; i < invocations; ++i) {
    const workloads::MediaDescriptor media = generator.Generate(spec.kind);
    const std::vector<double> args = workloads::SampleArgs(spec, rng);
    const workloads::InvocationDemand demand =
        workloads::ComputeDemand(spec, media, args, &rng);
    RecordInvocation(spec, media, args, demand.memory, demand.compute, media.byte_size,
                     demand.output_size);
  }
}

}  // namespace ofc::core
