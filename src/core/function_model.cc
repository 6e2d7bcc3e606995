#include "src/core/function_model.h"

#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/ml/serialization.h"

namespace ofc::core {

namespace {

// Validates restored samples against `schema`, keeping their order.
Result<ml::Dataset> ToDataset(const ml::Schema& schema, std::vector<ml::Instance> samples) {
  ml::Dataset data(schema);
  for (ml::Instance& sample : samples) {
    OFC_RETURN_IF_ERROR(data.Add(std::move(sample)));
  }
  return data;
}

}  // namespace

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
  ++evaluated_;
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

std::string FunctionModel::SerializeState() const {
  std::ostringstream out;
  out << "fnmodel 1 ";
  ml::WriteString(out, function_);
  out << observations_ << ' ' << evaluated_ << ' ' << (mature_ ? 1 : 0) << ' '
      << matured_at_ << ' ' << new_samples_since_train_ << ' ';
  out << recent_evals_.size() << ' ';
  for (const auto& [predicted, truth] : recent_evals_) {
    out << predicted << ' ' << truth << ' ';
  }
  ml::WriteJ48(out, memory_model_);
  ml::WriteJ48(out, benefit_model_);
  // Training sets (schema first, for instance arity).
  ml::WriteSchema(out, memory_data_.schema());
  ml::WriteInstances(out, memory_data_.instances());
  ml::WriteInstances(out, benefit_data_.instances());
  return out.str();
}

Status FunctionModel::RestoreState(const std::string& data) {
  std::istringstream in(data);
  std::string tag;
  int version = 0;
  if (!(in >> tag >> version) || tag != "fnmodel" || version != 1) {
    return InvalidArgumentError("not a fnmodel v1 document");
  }
  auto name = ml::ReadString(in);
  if (!name.ok()) {
    return name.status();
  }
  if (*name != function_) {
    return InvalidArgumentError("model document is for function " + *name);
  }
  int observations = 0;
  int evaluated = 0;
  int mature_flag = 0;
  int matured_at = -1;
  int pending = 0;
  std::size_t eval_count = 0;
  if (!(in >> observations >> evaluated >> mature_flag >> matured_at >> pending >>
        eval_count) ||
      eval_count > (1u << 20)) {
    return InvalidArgumentError("truncated fnmodel counters");
  }
  std::deque<std::pair<int, int>> evals;
  for (std::size_t i = 0; i < eval_count; ++i) {
    int predicted = 0;
    int truth = 0;
    if (!(in >> predicted >> truth)) {
      return InvalidArgumentError("truncated maturity window");
    }
    evals.emplace_back(predicted, truth);
  }
  auto memory_model = ml::ReadJ48(in);
  if (!memory_model.ok()) {
    return memory_model.status();
  }
  auto benefit_model = ml::ReadJ48(in);
  if (!benefit_model.ok()) {
    return benefit_model.status();
  }
  auto schema = ml::ReadSchema(in);
  if (!schema.ok()) {
    return schema.status();
  }
  if (schema->num_features() != memory_data_.schema().num_features()) {
    return InvalidArgumentError("feature arity mismatch in model document");
  }
  auto memory_samples = ml::ReadInstances(in, *schema);
  if (!memory_samples.ok()) {
    return memory_samples.status();
  }
  auto benefit_samples = ml::ReadInstances(in, *schema);
  if (!benefit_samples.ok()) {
    return benefit_samples.status();
  }
  auto memory_data = ToDataset(memory_data_.schema(), std::move(*memory_samples));
  if (!memory_data.ok()) {
    return memory_data.status();
  }
  auto benefit_data = ToDataset(benefit_data_.schema(), std::move(*benefit_samples));
  if (!benefit_data.ok()) {
    return benefit_data.status();
  }

  observations_ = observations;
  evaluated_ = evaluated;
  mature_ = mature_flag == 1;
  matured_at_ = matured_at;
  new_samples_since_train_ = pending;
  recent_evals_ = std::move(evals);
  trained_ = memory_model->NumNodes() > 0;
  benefit_trained_ = benefit_model->NumNodes() > 0;
  memory_model_ = std::move(*memory_model);
  benefit_model_ = std::move(*benefit_model);
  memory_data_ = std::move(*memory_data);
  benefit_data_ = std::move(*benefit_data);
  return OkStatus();
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
