// FunctionModel: per-function ML state shared by the Predictor and the
// ModelTrainer (§5).
//
// Holds the two J48 models (memory intervals, §5.1; caching benefit, §5.2), the
// curated training sets (§5.3.3), and the maturation tracking of §5.3.1:
//
//   * predictions are not used until >= 90 % of (shadow) predictions are
//     exact-or-over AND >= 50 % of underpredictions land within one interval of
//     the truth, evaluated from 100 observed invocations onward;
//   * after maturation, only underpredictions (upweighted) and extreme
//     overpredictions (k - k* > 6) are retained for retraining, keeping the
//     training set small but valuable.
#ifndef OFC_CORE_FUNCTION_MODEL_H_
#define OFC_CORE_FUNCTION_MODEL_H_

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/core/intervals.h"
#include "src/ml/dataset.h"
#include "src/ml/j48.h"

namespace ofc::core {

struct ModelConfig {
  MemoryIntervals intervals;
  // §5.3.1 conservative next-interval allocation. Disabling it (ablation)
  // allocates the predicted interval's own upper bound, trading ~5 % of
  // EO-coverage for tighter memory.
  bool conservative_bump = true;
  int min_train = 10;        // Invocations before the first training.
  int retrain_every = 25;    // New curated samples between retrainings.
  std::size_t max_training_set = 1500;
  double under_weight = 2.0;  // §5.3.3: upweight underprediction samples.
  int maturity_min_invocations = 100;  // §7.1.3: checks start at 100.
  double maturity_eo_threshold = 0.90;
  double maturity_under_within_one = 0.50;
  // Maturity rates are computed over the most recent evaluations (the early,
  // barely-trained model's errors must not penalize it forever).
  int maturity_window = 100;
  int way_over_threshold = 6;  // Retain overpredictions with k - k* > 6.
};

class FunctionModel {
 public:
  FunctionModel(std::string function, std::vector<ml::Attribute> features,
                ModelConfig config);

  const std::string& function() const { return function_; }
  const ModelConfig& config() const { return config_; }

  // ---- Inference (Predictor side) ---------------------------------------------

  bool trained() const { return trained_; }
  bool mature() const { return mature_; }

  // Predicted memory interval; nullopt before the first training.
  std::optional<int> PredictClass(const std::vector<double>& features) const;

  // Predicted caching benefit; nullopt before the first training.
  std::optional<bool> PredictBenefit(const std::vector<double>& features) const;

  // Aggregate caching-benefit confidence in [0, 1]: the fraction of curated
  // benefit samples labeled "caching helps". 0.5 (no opinion) until the
  // benefit tree has trained. The cost-aware cache policy uses this as the
  // per-function prior on an object's expected E+L saving.
  double BenefitConfidence() const;

  // ---- Learning (ModelTrainer side) ---------------------------------------------

  // Feeds one completed invocation: extracted features, the actual peak memory
  // (from the Monitor's cgroup statistics), and the ground-truth benefit label
  // ((E+L)/total > 0.5 on estimated RSDS timings).
  void Learn(const std::vector<double>& features, Bytes actual_memory, bool benefit_label);

  // ---- Introspection -----------------------------------------------------------

  int observations() const { return observations_; }
  int evaluated() const { return evaluated_; }
  double eo_rate() const;
  double under_within_one_rate() const;
  std::size_t training_set_size() const { return memory_data_.size(); }
  // Invocation count at which the model matured; -1 while immature (§7.1.3
  // maturation-quickness metric).
  int matured_at() const { return matured_at_; }
  // The two trees as last trained (empty until the first training).
  const ml::J48& memory_model() const { return memory_model_; }
  const ml::J48& benefit_model() const { return benefit_model_; }

  // ---- Persistence (models live in OWK's metadata database, §5.1) ---------------

  // Full state: both trees, curated training sets, maturity counters.
  std::string SerializeState() const;
  // Restores a state produced by SerializeState(); schemas must match this
  // model's function (feature arity and every restored sample are validated).
  Status RestoreState(const std::string& data);

 private:
  void MaybeRetrain();
  void UpdateMaturity(int predicted, int truth);
  // Appends a validated sample to a curated set, dropping the oldest past the
  // cap. A sample the set's schema rejects is logged and not kept.
  bool AddSample(ml::Dataset& set, ml::Instance sample);

  std::string function_;
  ModelConfig config_;

  ml::J48 memory_model_;
  ml::J48 benefit_model_;
  bool trained_ = false;
  bool benefit_trained_ = false;

  // Curated training sets, oldest first, validated on entry; the trees train
  // on them directly.
  ml::Dataset memory_data_;
  ml::Dataset benefit_data_;
  int new_samples_since_train_ = 0;

  // Maturity tracking: sliding window of (predicted, truth) shadow evaluations.
  int observations_ = 0;
  int evaluated_ = 0;
  std::deque<std::pair<int, int>> recent_evals_;
  bool mature_ = false;
  int matured_at_ = -1;
};

}  // namespace ofc::core

#endif  // OFC_CORE_FUNCTION_MODEL_H_
