#include "src/core/function_model.h"

#include <utility>

#include "src/common/logging.h"

namespace ofc::core {

FunctionModel::FunctionModel(std::string function, std::vector<ml::Attribute> features,
                             ModelConfig config)
    : function_(std::move(function)),
      config_(config),
      memory_data_(ml::Schema(features, config_.intervals.ClassAttribute())),
      benefit_data_(ml::Schema(std::move(features),
                               ml::Attribute::Nominal("benefit", {"no", "yes"}))) {}

std::optional<int> FunctionModel::PredictClass(const std::vector<double>& features) const {
  if (!trained_) {
    return std::nullopt;
  }
  return memory_model_.Predict(features);
}

std::optional<bool> FunctionModel::PredictBenefit(const std::vector<double>& features) const {
  if (!benefit_trained_) {
    return std::nullopt;
  }
  return benefit_model_.Predict(features) == 1;
}

double FunctionModel::BenefitConfidence() const {
  if (!benefit_trained_ || benefit_data_.empty()) {
    return 0.5;
  }
  std::size_t helpful = 0;
  for (const ml::Instance& inst : benefit_data_.instances()) {
    if (inst.label == 1) {
      ++helpful;
    }
  }
  return static_cast<double>(helpful) / static_cast<double>(benefit_data_.size());
}

double FunctionModel::eo_rate() const {
  if (recent_evals_.empty()) {
    return 0.0;
  }
  int eo = 0;
  for (const auto& [predicted, truth] : recent_evals_) {
    eo += predicted >= truth;
  }
  return static_cast<double>(eo) / static_cast<double>(recent_evals_.size());
}

double FunctionModel::under_within_one_rate() const {
  int under = 0;
  int within = 0;
  for (const auto& [predicted, truth] : recent_evals_) {
    if (predicted < truth) {
      ++under;
      within += truth - predicted == 1;
    }
  }
  return under == 0 ? 1.0 : static_cast<double>(within) / static_cast<double>(under);
}

void FunctionModel::UpdateMaturity(int predicted, int truth) {
  recent_evals_.emplace_back(predicted, truth);
  while (recent_evals_.size() > static_cast<std::size_t>(config_.maturity_window)) {
    recent_evals_.pop_front();
  }
  if (!mature_ && observations_ >= config_.maturity_min_invocations &&
      eo_rate() >= config_.maturity_eo_threshold &&
      under_within_one_rate() >= config_.maturity_under_within_one) {
    mature_ = true;
    matured_at_ = observations_;
    OFC_LOG(Info) << function_ << " model matured after " << observations_ << " invocations "
                  << "(EO " << eo_rate() << ", under-within-1 " << under_within_one_rate()
                  << ")";
  }
}

void FunctionModel::Learn(const std::vector<double>& features, Bytes actual_memory,
                          bool benefit_label) {
  ++observations_;
  const int truth = config_.intervals.Label(actual_memory);

  // Shadow-evaluate the current model to drive maturation (§5.3.1) and decide
  // what to retain (§5.3.3).
  std::optional<int> predicted = PredictClass(features);
  if (predicted.has_value()) {
    UpdateMaturity(*predicted, truth);
  }

  bool keep = true;
  double weight = 1.0;
  if (mature_ && predicted.has_value()) {
    const int k = *predicted;
    const bool under = k < truth;
    const bool way_over = k - truth > config_.way_over_threshold;
    keep = under || way_over;
    if (under) {
      weight = config_.under_weight;
    }
  } else if (predicted.has_value() && *predicted < truth) {
    weight = config_.under_weight;
  }

  if (keep && AddSample(memory_data_, ml::Instance{features, truth, weight})) {
    ++new_samples_since_train_;
  }
  AddSample(benefit_data_, ml::Instance{features, benefit_label ? 1 : 0, 1.0});
  MaybeRetrain();
}

bool FunctionModel::AddSample(ml::Dataset& set, ml::Instance sample) {
  const Status status = set.Add(std::move(sample));
  if (!status.ok()) {
    OFC_LOG(Warning) << function_ << ": training sample rejected: " << status.ToString();
    return false;
  }
  while (set.size() > config_.max_training_set) {
    set.PopFront();
  }
  return true;
}

void FunctionModel::MaybeRetrain() {
  const bool first_train =
      !trained_ && static_cast<int>(memory_data_.size()) >= config_.min_train;
  const bool periodic = trained_ && new_samples_since_train_ >= config_.retrain_every;
  if (!first_train && !periodic) {
    return;
  }
  new_samples_since_train_ = 0;

  // J48 is not incremental (§5.3.3): rebuild both models from the curated sets.
  trained_ = memory_model_.Train(memory_data_).ok() || trained_;
  benefit_trained_ = benefit_model_.Train(benefit_data_).ok() || benefit_trained_;
}

}  // namespace ofc::core
