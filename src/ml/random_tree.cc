#include "src/ml/random_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/ml/tree_math.h"

namespace ofc::ml {

namespace {

std::vector<double> DistributionOf(const Dataset& data, const std::vector<std::size_t>& indices) {
  std::vector<double> dist(data.schema().num_classes(), 0.0);
  for (std::size_t i : indices) {
    const Instance& inst = data.instance(i);
    dist[static_cast<std::size_t>(inst.label)] += inst.weight;
  }
  return dist;
}

}  // namespace

Status RandomTree::Train(const Dataset& data) {
  if (data.empty()) {
    return InvalidArgumentError("RandomTree: empty training set");
  }
  schema_ = data.schema();
  std::vector<std::size_t> indices(data.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i;
  }
  Rng rng(options_.seed);
  const std::vector<double> dist = DistributionOf(data, indices);
  root_ = Build(data, indices, 0, rng, dist);
  trained_ = true;
  return OkStatus();
}

std::unique_ptr<RandomTree::Node> RandomTree::Build(const Dataset& data,
                                                    const std::vector<std::size_t>& indices,
                                                    int depth, Rng& rng,
                                                    const std::vector<double>& parent_dist) {
  auto node = std::make_unique<Node>();
  if (indices.empty()) {
    node->class_dist.assign(parent_dist.size(), 0.0);
    node->majority = static_cast<int>(ArgMax(parent_dist));
    return node;
  }
  node->class_dist = DistributionOf(data, indices);
  node->majority = static_cast<int>(ArgMax(node->class_dist));
  node->weight = WeightSum(node->class_dist);

  const double node_entropy = Entropy(node->class_dist);
  if (node->weight < 2.0 * options_.min_leaf_weight || node_entropy <= 0.0 ||
      depth >= options_.max_depth) {
    return node;
  }

  // Sample K candidate attributes without replacement.
  const std::size_t num_features = schema_.num_features();
  std::size_t k = options_.num_attributes > 0
                      ? static_cast<std::size_t>(options_.num_attributes)
                      : static_cast<std::size_t>(
                            std::floor(std::log2(static_cast<double>(num_features)))) +
                            1;
  k = std::min(k, num_features);
  std::vector<std::size_t> attrs(num_features);
  for (std::size_t i = 0; i < num_features; ++i) {
    attrs[i] = i;
  }
  // Partial Fisher-Yates for the first k slots.
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(attrs[i], attrs[i + rng.Index(num_features - i)]);
  }

  // The split search works on the k classes present here, in ascending class
  // order, as J48's does: an absent class's column would hold exact +0.0 and
  // change no sum or entropy, so the tree is bit-identical to one searched
  // over all num_classes columns.
  std::vector<std::size_t> column(node->class_dist.size());  // Read for present classes only.
  std::vector<double> present_dist;
  for (std::size_t c = 0; c < column.size(); ++c) {
    if (node->class_dist[c] > 0.0) {
      column[c] = present_dist.size();
      present_dist.push_back(node->class_dist[c]);
    }
  }
  const std::size_t num_present = present_dist.size();
  auto column_of = [&](const Instance& inst) {
    return column[static_cast<std::size_t>(inst.label)];
  };

  double best_gain = 1e-9;
  int best_attr = -1;
  bool best_numeric = false;
  double best_threshold = 0.0;
  for (std::size_t slot = 0; slot < k; ++slot) {
    const std::size_t a = attrs[slot];
    const Attribute& attr = schema_.feature(a);
    if (attr.kind == AttributeKind::kNominal) {
      // One row of class weights per nominal value.
      std::vector<double> branches(attr.num_values() * num_present, 0.0);
      for (std::size_t i : indices) {
        const Instance& inst = data.instance(i);
        if (std::isnan(inst.features[a])) {
          continue;  // Missing values carry no evidence for this split.
        }
        branches[static_cast<std::size_t>(inst.features[a]) * num_present + column_of(inst)] +=
            inst.weight;
      }
      const double gain = node_entropy - PartitionEntropy(branches, num_present);
      if (gain > best_gain) {
        best_gain = gain;
        best_attr = static_cast<int>(a);
        best_numeric = false;
      }
    } else {
      std::vector<std::size_t> sorted;
      for (std::size_t i : indices) {
        if (!std::isnan(data.instance(i).features[a])) {
          sorted.push_back(i);
        }
      }
      std::sort(sorted.begin(), sorted.end(), [&](std::size_t x, std::size_t y) {
        return data.instance(x).features[a] < data.instance(y).features[a];
      });
      // [left | right] class weights.
      std::vector<double> split(2 * num_present, 0.0);
      std::copy(present_dist.begin(), present_dist.end(),
                split.begin() + static_cast<std::ptrdiff_t>(num_present));
      for (std::size_t pos = 0; pos + 1 < sorted.size(); ++pos) {
        const Instance& inst = data.instance(sorted[pos]);
        split[column_of(inst)] += inst.weight;
        split[num_present + column_of(inst)] -= inst.weight;
        const double v = inst.features[a];
        const double v_next = data.instance(sorted[pos + 1]).features[a];
        if (v_next <= v) {
          continue;
        }
        const double gain = node_entropy - PartitionEntropy(split, num_present);
        if (gain > best_gain) {
          best_gain = gain;
          best_attr = static_cast<int>(a);
          best_numeric = true;
          best_threshold = (v + v_next) / 2.0;
        }
      }
    }
  }
  if (best_attr < 0) {
    return node;
  }

  node->attr = best_attr;
  node->numeric_split = best_numeric;
  node->threshold = best_threshold;
  const std::size_t a = static_cast<std::size_t>(best_attr);
  std::vector<std::vector<std::size_t>> partitions;
  // Simplified missing-value routing (unlike J48's fractional instances):
  // numeric NaN goes left; nominal NaN goes to branch 0.
  if (best_numeric) {
    partitions.resize(2);
    for (std::size_t i : indices) {
      const double v = data.instance(i).features[a];
      partitions[!std::isnan(v) && v > best_threshold ? 1 : 0].push_back(i);
    }
  } else {
    partitions.resize(schema_.feature(a).num_values());
    for (std::size_t i : indices) {
      const double v = data.instance(i).features[a];
      partitions[std::isnan(v) ? 0 : static_cast<std::size_t>(v)].push_back(i);
    }
  }
  // A degenerate "split" that keeps everything in one branch would recurse
  // forever; treat it as a leaf.
  std::size_t populated = 0;
  for (const auto& part : partitions) {
    if (!part.empty()) {
      ++populated;
    }
  }
  if (populated < 2) {
    node->attr = -1;
    return node;
  }
  for (const auto& part : partitions) {
    node->children.push_back(Build(data, part, depth + 1, rng, node->class_dist));
  }
  return node;
}

const RandomTree::Node* RandomTree::Descend(const std::vector<double>& features) const {
  assert(trained_);
  const Node* node = root_.get();
  while (!node->IsLeaf()) {
    const std::size_t a = static_cast<std::size_t>(node->attr);
    std::size_t branch;
    const double value = features[a];
    if (node->numeric_split) {
      branch = !std::isnan(value) && value > node->threshold ? 1 : 0;
    } else {
      if (std::isnan(value)) {
        break;  // Missing nominal: answer from this node's distribution.
      }
      branch = static_cast<std::size_t>(value);
      if (branch >= node->children.size()) {
        break;
      }
    }
    const Node* child = node->children[branch].get();
    if (child->weight <= 0.0) {
      break;
    }
    node = child;
  }
  return node;
}

int RandomTree::Predict(const std::vector<double>& features) const {
  return Descend(features)->majority;
}

std::vector<double> RandomTree::PredictDistribution(const std::vector<double>& features) const {
  const Node* node = Descend(features);
  std::vector<double> dist = node->class_dist;
  const double total = WeightSum(dist);
  if (total > 0.0) {
    for (double& d : dist) {
      d /= total;
    }
  } else {
    dist.assign(schema_.num_classes(), 0.0);
    dist[static_cast<std::size_t>(node->majority)] = 1.0;
  }
  return dist;
}

std::size_t RandomTree::CountNodes(const Node* node) {
  if (node == nullptr) {
    return 0;
  }
  std::size_t n = 1;
  for (const auto& child : node->children) {
    n += CountNodes(child.get());
  }
  return n;
}

std::size_t RandomTree::NumNodes() const { return CountNodes(root_.get()); }

}  // namespace ofc::ml
