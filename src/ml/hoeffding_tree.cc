#include "src/ml/hoeffding_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/ml/tree_math.h"

namespace ofc::ml {

void HoeffdingTree::GaussianEstimator::Add(double x, double w) {
  weight += w;
  const double delta = x - mean;
  mean += delta * w / weight;
  m2 += w * delta * (x - mean);
}

double HoeffdingTree::GaussianEstimator::CdfBelow(double x) const {
  if (weight <= 0.0) {
    return 0.0;
  }
  const double var = variance();
  if (var <= 1e-12) {
    return x >= mean ? 1.0 : 0.0;
  }
  return 0.5 * std::erfc((mean - x) / std::sqrt(2.0 * var));
}

Status HoeffdingTree::Reset(const Schema& schema) {
  if (schema.num_classes() < 2) {
    return InvalidArgumentError("HoeffdingTree: need at least two classes");
  }
  schema_ = schema;
  root_ = MakeLeaf();
  num_nodes_ = 1;
  trained_ = true;
  return OkStatus();
}

Status HoeffdingTree::Train(const Dataset& data) {
  if (data.empty()) {
    return InvalidArgumentError("HoeffdingTree: empty training set");
  }
  OFC_RETURN_IF_ERROR(Reset(data.schema()));
  for (const Instance& inst : data.instances()) {
    OFC_RETURN_IF_ERROR(Observe(inst));
  }
  return OkStatus();
}

std::unique_ptr<HoeffdingTree::Node> HoeffdingTree::MakeLeaf() {
  auto node = std::make_unique<Node>();
  node->stats = std::make_unique<LeafStats>();
  LeafStats& stats = *node->stats;
  stats.class_counts.assign(schema_.num_classes(), 0.0);
  stats.gaussians.resize(schema_.num_features());
  stats.attr_min.assign(schema_.num_features(), std::numeric_limits<double>::infinity());
  stats.attr_max.assign(schema_.num_features(), -std::numeric_limits<double>::infinity());
  stats.nominal_counts.resize(schema_.num_features());
  for (std::size_t a = 0; a < schema_.num_features(); ++a) {
    const Attribute& attr = schema_.feature(a);
    if (attr.kind == AttributeKind::kNumeric) {
      stats.gaussians[a].resize(schema_.num_classes());
    } else {
      stats.nominal_counts[a].assign(attr.num_values() * schema_.num_classes(), 0.0);
    }
  }
  return node;
}

double HoeffdingTree::TotalWeight(const LeafStats& stats) const {
  return WeightSum(stats.class_counts);
}

Status HoeffdingTree::Observe(const Instance& instance) {
  if (!trained_) {
    return FailedPreconditionError("HoeffdingTree: call Reset()/Train() first");
  }
  if (instance.features.size() != schema_.num_features()) {
    return InvalidArgumentError("HoeffdingTree: instance arity mismatch");
  }
  Node* leaf = DescendMutable(instance.features);
  LeafStats& stats = *leaf->stats;
  const auto label = static_cast<std::size_t>(instance.label);
  // Adaptive leaf prediction: score both strategies on this instance *before*
  // absorbing it (prequential evaluation).
  if (options_.leaf_prediction == LeafPrediction::kNaiveBayesAdaptive &&
      WeightSum(stats.class_counts) > 0.0) {
    if (static_cast<int>(ArgMax(stats.class_counts)) == instance.label) {
      stats.majority_correct += instance.weight;
    }
    if (NaiveBayesPredict(stats, instance.features) == instance.label) {
      stats.nb_correct += instance.weight;
    }
  }
  stats.class_counts[label] += instance.weight;
  for (std::size_t a = 0; a < schema_.num_features(); ++a) {
    const Attribute& attr = schema_.feature(a);
    const double v = instance.features[a];
    if (std::isnan(v)) {
      continue;  // Missing values update no per-attribute statistics.
    }
    if (attr.kind == AttributeKind::kNumeric) {
      stats.gaussians[a][label].Add(v, instance.weight);
      stats.attr_min[a] = std::min(stats.attr_min[a], v);
      stats.attr_max[a] = std::max(stats.attr_max[a], v);
    } else {
      stats.nominal_counts[a][static_cast<std::size_t>(v) * schema_.num_classes() + label] +=
          instance.weight;
    }
  }
  const double weight = TotalWeight(stats);
  if (weight - stats.weight_at_last_attempt >= options_.grace_period &&
      num_nodes_ < static_cast<std::size_t>(options_.max_nodes)) {
    stats.weight_at_last_attempt = weight;
    MaybeSplit(leaf);
  }
  return OkStatus();
}

void HoeffdingTree::MaybeSplit(Node* leaf) {
  LeafStats& stats = *leaf->stats;
  const double total = TotalWeight(stats);
  const double node_entropy = Entropy(stats.class_counts);
  if (node_entropy <= 0.0 || total <= 0.0) {
    return;
  }

  // Best split candidate (highest info gain) per attribute.
  struct Candidate {
    double gain = 0.0;
    int attr = -1;
    bool numeric = false;
    double threshold = 0.0;
  };
  const std::size_t num_classes = schema_.num_classes();
  std::vector<Candidate> candidates;
  std::vector<double> split(2 * num_classes);  // [left | right] class weights.
  for (std::size_t a = 0; a < schema_.num_features(); ++a) {
    const Attribute& attr = schema_.feature(a);
    Candidate cand;
    cand.attr = static_cast<int>(a);
    if (attr.kind == AttributeKind::kNominal) {
      cand.gain = node_entropy - PartitionEntropy(stats.nominal_counts[a], num_classes);
      cand.numeric = false;
      candidates.push_back(cand);
    } else {
      if (!(stats.attr_min[a] < stats.attr_max[a])) {
        continue;
      }
      cand.numeric = true;
      double best_gain = -1.0;
      double best_threshold = 0.0;
      for (int b = 1; b < options_.numeric_bins; ++b) {
        const double t = stats.attr_min[a] + (stats.attr_max[a] - stats.attr_min[a]) *
                                                 static_cast<double>(b) /
                                                 static_cast<double>(options_.numeric_bins);
        for (std::size_t c = 0; c < num_classes; ++c) {
          const GaussianEstimator& g = stats.gaussians[a][c];
          const double below = g.weight * g.CdfBelow(t);
          split[c] = below;
          split[num_classes + c] = g.weight - below;
        }
        const double gain = node_entropy - PartitionEntropy(split, num_classes);
        if (gain > best_gain) {
          best_gain = gain;
          best_threshold = t;
        }
      }
      cand.gain = best_gain;
      cand.threshold = best_threshold;
      candidates.push_back(cand);
    }
  }
  if (candidates.empty()) {
    return;
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) { return x.gain > y.gain; });
  const Candidate& best = candidates[0];
  const double second_gain = candidates.size() > 1 ? candidates[1].gain : 0.0;
  if (best.gain <= 1e-9) {
    return;
  }

  // Hoeffding bound over the info-gain range. Information gain at this leaf is
  // bounded by the entropy of its class distribution, itself bounded by
  // log2(#classes actually observed here) — far tighter than log2(#classes)
  // when the schema has many intervals but the function's memory only spans a
  // few (the common case for the 128-interval memory models).
  std::size_t observed_classes = 0;
  for (double count : stats.class_counts) {
    observed_classes += count > 0.0;
  }
  const double range =
      std::log2(static_cast<double>(std::max<std::size_t>(2, observed_classes)));
  const double epsilon =
      std::sqrt(range * range * std::log(1.0 / options_.delta) / (2.0 * total));
  if (best.gain - second_gain <= epsilon && epsilon >= options_.tie_threshold) {
    return;
  }

  // Convert the leaf into a split node with fresh leaves.
  leaf->attr = best.attr;
  leaf->numeric_split = best.numeric;
  leaf->threshold = best.threshold;
  leaf->class_counts_snapshot = stats.class_counts;
  const std::size_t branches =
      best.numeric ? 2 : schema_.feature(static_cast<std::size_t>(best.attr)).num_values();
  for (std::size_t b = 0; b < branches; ++b) {
    leaf->children.push_back(MakeLeaf());
  }
  num_nodes_ += branches;
  leaf->stats.reset();
}

HoeffdingTree::Node* HoeffdingTree::DescendMutable(const std::vector<double>& features) {
  Node* node = root_.get();
  while (!node->IsLeaf()) {
    const std::size_t a = static_cast<std::size_t>(node->attr);
    const double value = features[a];
    // Missing values descend the left/first branch.
    const std::size_t branch =
        std::isnan(value) ? 0u
                          : (node->numeric_split ? (value <= node->threshold ? 0u : 1u)
                                                 : static_cast<std::size_t>(value));
    assert(branch < node->children.size());
    node = node->children[branch].get();
  }
  return node;
}

const HoeffdingTree::Node* HoeffdingTree::Descend(const std::vector<double>& features) const {
  const Node* node = root_.get();
  const Node* last_informed = node;
  while (!node->IsLeaf()) {
    const std::size_t a = static_cast<std::size_t>(node->attr);
    const double value = features[a];
    const std::size_t branch =
        std::isnan(value) ? 0u
                          : (node->numeric_split ? (value <= node->threshold ? 0u : 1u)
                                                 : static_cast<std::size_t>(value));
    if (branch >= node->children.size()) {
      return last_informed;
    }
    node = node->children[branch].get();
    if (node->IsLeaf() && WeightSum(node->stats->class_counts) > 0.0) {
      last_informed = node;
    } else if (!node->IsLeaf()) {
      last_informed = node;
    }
  }
  return node->IsLeaf() && WeightSum(node->stats->class_counts) > 0.0 ? node : last_informed;
}

int HoeffdingTree::NaiveBayesPredict(const LeafStats& stats,
                                     const std::vector<double>& features) const {
  const double total = WeightSum(stats.class_counts);
  if (total <= 0.0) {
    return 0;
  }
  const std::size_t num_classes = schema_.num_classes();
  double best_score = -std::numeric_limits<double>::infinity();
  int best_class = static_cast<int>(ArgMax(stats.class_counts));
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (stats.class_counts[c] <= 0.0) {
      continue;  // Unseen classes cannot win under NB anyway.
    }
    double log_score = std::log(stats.class_counts[c] / total);
    for (std::size_t a = 0; a < schema_.num_features(); ++a) {
      const Attribute& attr = schema_.feature(a);
      const double v = features[a];
      if (std::isnan(v)) {
        continue;  // Missing feature: contributes no evidence.
      }
      if (attr.kind == AttributeKind::kNominal) {
        const double count =
            stats.nominal_counts[a][static_cast<std::size_t>(v) * num_classes + c];
        // Laplace smoothing over the attribute's value ensemble.
        log_score += std::log((count + 1.0) /
                              (stats.class_counts[c] +
                               static_cast<double>(attr.num_values())));
      } else {
        const GaussianEstimator& g = stats.gaussians[a][c];
        if (g.weight <= 1.0) {
          continue;  // Not enough evidence for a density estimate.
        }
        const double var = std::max(g.variance(), 1e-6);
        const double diff = v - g.mean;
        log_score += -0.5 * (std::log(2.0 * 3.141592653589793 * var) + diff * diff / var);
      }
    }
    if (log_score > best_score) {
      best_score = log_score;
      best_class = static_cast<int>(c);
    }
  }
  return best_class;
}

int HoeffdingTree::LeafPredict(const LeafStats& stats,
                               const std::vector<double>& features) const {
  if (options_.leaf_prediction == LeafPrediction::kNaiveBayesAdaptive &&
      stats.nb_correct > stats.majority_correct) {
    return NaiveBayesPredict(stats, features);
  }
  return static_cast<int>(ArgMax(stats.class_counts));
}

int HoeffdingTree::Predict(const std::vector<double>& features) const {
  assert(trained_);
  const Node* node = Descend(features);
  if (node->IsLeaf() && WeightSum(node->stats->class_counts) > 0.0) {
    return LeafPredict(*node->stats, features);
  }
  const std::vector<double>& counts =
      node->IsLeaf() ? node->stats->class_counts : node->class_counts_snapshot;
  if (WeightSum(counts) <= 0.0) {
    return 0;
  }
  return static_cast<int>(ArgMax(counts));
}

std::vector<double> HoeffdingTree::PredictDistribution(
    const std::vector<double>& features) const {
  const Node* node = Descend(features);
  std::vector<double> dist =
      node->IsLeaf() ? node->stats->class_counts : node->class_counts_snapshot;
  const double total = WeightSum(dist);
  if (total > 0.0) {
    for (double& d : dist) {
      d /= total;
    }
  } else {
    dist.assign(schema_.num_classes(), 1.0 / static_cast<double>(schema_.num_classes()));
  }
  return dist;
}

}  // namespace ofc::ml
