#include "src/ml/j48.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>

#include "src/ml/tree_math.h"

namespace ofc::ml {

namespace {

bool IsMissing(double value) { return std::isnan(value); }

struct CandidateSplit {
  int attr = -1;
  bool numeric = false;
  double threshold = 0.0;
  double gain = 0.0;
  double gain_ratio = 0.0;
  bool valid = false;
};

// An instance at a node: index into the dataset and accumulated path weight
// (fractions arise from missing values).
struct WeightedIndex {
  std::size_t index;
  double weight;
};

// A known value of the attribute under evaluation, with its instance's
// weight and class as an index into the node's present classes.
struct Record {
  double value;
  double weight;
  std::size_t cls;
};

constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();

}  // namespace

// Reused by every node of one Train() call: once the buffers have grown, the
// split search allocates nothing per node, attribute or candidate threshold
// (the tree's own nodes aside).
struct J48::Workspace {
  const Dataset* data = nullptr;
  // The instance ranges of every node on the current root-to-node path,
  // used as a stack: a node's children's ranges are appended past its own and
  // popped once the children are built. `bounds` holds their start offsets.
  std::vector<WeightedIndex> items;
  std::vector<std::size_t> bounds;
  // Per class: its column among the node's present classes, or kAbsent.
  std::vector<std::size_t> column;
  std::vector<CandidateSplit> candidates;
  std::vector<Record> records;
  std::vector<double> known_dist;  // One column per present class.
  std::vector<double> counts;      // Branches x present classes.
  // Partitioning of the chosen split.
  std::vector<std::size_t> branch_of;  // Per instance; kAbsent when missing.
  std::vector<double> branch_weights;
  std::vector<std::size_t> cursor;
};

Status J48::Train(const Dataset& data) {
  if (data.empty()) {
    return InvalidArgumentError("J48: empty training set");
  }
  if (data.schema().num_classes() < 2) {
    return InvalidArgumentError("J48: need at least two classes");
  }
  schema_ = data.schema();
  Workspace ws;
  ws.data = &data;
  ws.items.resize(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ws.items[i] = WeightedIndex{i, data.instance(i).weight};
  }
  root_ = Build(ws, 0, data.size(), 0);
  if (options_.prune) {
    Prune(root_.get());
  }
  trained_ = true;
  return OkStatus();
}

std::unique_ptr<J48::Node> J48::Build(Workspace& ws, std::size_t begin, std::size_t end,
                                      int depth) {
  const Dataset& data = *ws.data;
  const std::size_t num_classes = schema_.num_classes();
  auto node = std::make_unique<Node>();
  std::vector<double>& dist = node->class_dist;
  dist.assign(num_classes, 0.0);
  ws.column.assign(num_classes, kAbsent);
  for (std::size_t i = begin; i < end; ++i) {
    const auto label = static_cast<std::size_t>(data.instance(ws.items[i].index).label);
    dist[label] += ws.items[i].weight;
    ws.column[label] = 0;  // Present; numbered below.
  }
  const double total = WeightSum(dist);
  node->majority = static_cast<int>(ArgMax(dist));
  node->weight = total;

  // Stopping conditions: too small, pure, or depth guard.
  const double node_entropy = Entropy(dist);
  if (total < 2.0 * options_.min_leaf_weight || node_entropy <= 0.0 ||
      depth >= options_.max_depth) {
    return node;
  }
  // The split search works on the k classes present here, in ascending class
  // order. An absent class's column would hold exact +0.0, which changes no
  // sum, entropy, gain or split information, so the tree is bit-identical to
  // one searched over all num_classes columns. With 128 memory intervals and
  // a few present per node, that skips most of the work.
  std::size_t k = 0;
  for (std::size_t& column : ws.column) {
    if (column != kAbsent) {
      column = k++;
    }
  }

  // Evaluate one candidate split per attribute. Instances whose value for the
  // attribute is missing are excluded from the gain computation; the gain is
  // scaled by the known fraction (C4.5).
  const std::size_t num_features = schema_.num_features();
  ws.candidates.assign(num_features, CandidateSplit{});
  for (std::size_t a = 0; a < num_features; ++a) {
    const Attribute& attr = schema_.feature(a);
    CandidateSplit& cand = ws.candidates[a];
    cand.attr = static_cast<int>(a);

    ws.records.clear();
    ws.known_dist.assign(k, 0.0);
    double known_weight = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const Instance& inst = data.instance(ws.items[i].index);
      const double value = inst.features[a];
      if (!IsMissing(value)) {
        const double weight = ws.items[i].weight;
        const std::size_t cls = ws.column[static_cast<std::size_t>(inst.label)];
        ws.records.push_back(Record{value, weight, cls});
        known_weight += weight;
        ws.known_dist[cls] += weight;
      }
    }
    if (known_weight < 2.0 * options_.min_leaf_weight) {
      continue;
    }
    const double known_fraction = known_weight / total;
    const double known_entropy = Entropy(ws.known_dist);

    if (attr.kind == AttributeKind::kNominal) {
      // Multiway split, one branch per nominal value.
      const std::size_t num_values = attr.num_values();
      ws.counts.assign(num_values * k, 0.0);
      for (const Record& rec : ws.records) {
        ws.counts[static_cast<std::size_t>(rec.value) * k + rec.cls] += rec.weight;
      }
      // C4.5 requires at least two branches with min_leaf weight.
      std::size_t sufficient = 0;
      for (std::size_t b = 0; b < num_values; ++b) {
        if (WeightSum(std::span<const double>(ws.counts).subspan(b * k, k)) >=
            options_.min_leaf_weight) {
          ++sufficient;
        }
      }
      if (sufficient < 2) {
        continue;
      }
      cand.numeric = false;
      cand.gain = known_fraction * (known_entropy - PartitionEntropy(ws.counts, k));
      const double si = SplitInformation(ws.counts, k);
      if (cand.gain > 1e-9 && si > 1e-9) {
        cand.gain_ratio = cand.gain / si;
        cand.valid = true;
      }
    } else {
      // Numeric: scan sorted known values for the best binary threshold.
      // std::sort sees the same sequence and comparisons as a sort of
      // instance indices by value would, so ties land in the same order.
      std::vector<Record>& sorted = ws.records;
      std::sort(sorted.begin(), sorted.end(),
                [](const Record& x, const Record& y) { return x.value < y.value; });
      // counts = [left | right], one row per branch.
      ws.counts.assign(2 * k, 0.0);
      std::copy(ws.known_dist.begin(), ws.known_dist.end(),
                ws.counts.begin() + static_cast<std::ptrdiff_t>(k));
      double left_total = 0.0;
      double best_gain = -1.0;
      double best_threshold = 0.0;
      double best_split_info = 0.0;
      std::size_t num_boundaries = 0;
      for (std::size_t pos = 0; pos + 1 < sorted.size(); ++pos) {
        const Record& rec = sorted[pos];
        ws.counts[rec.cls] += rec.weight;
        left_total += rec.weight;
        ws.counts[k + rec.cls] -= rec.weight;
        const double v = rec.value;
        const double v_next = sorted[pos + 1].value;
        if (v_next <= v) {
          continue;  // Not a boundary between distinct values.
        }
        ++num_boundaries;
        if (left_total < options_.min_leaf_weight ||
            known_weight - left_total < options_.min_leaf_weight) {
          continue;
        }
        const double gain = known_entropy - PartitionEntropy(ws.counts, k);
        if (gain > best_gain) {
          best_gain = gain;
          best_threshold = (v + v_next) / 2.0;
          best_split_info = SplitInformation(ws.counts, k);
        }
      }
      if (best_gain <= 1e-9 || num_boundaries == 0) {
        continue;
      }
      // C4.5's MDL correction: distributing log2(#candidate thresholds) bits of
      // threshold-choice cost over the instances.
      const double corrected =
          known_fraction * best_gain -
          Log2(static_cast<double>(num_boundaries)) / total;
      if (corrected <= 1e-9 || best_split_info <= 1e-9) {
        continue;
      }
      cand.numeric = true;
      cand.threshold = best_threshold;
      cand.gain = corrected;
      cand.gain_ratio = corrected / best_split_info;
      cand.valid = true;
    }
  }

  // C4.5 selection: best gain ratio among splits with at-least-average gain.
  double gain_sum = 0.0;
  std::size_t gain_count = 0;
  for (const CandidateSplit& cand : ws.candidates) {
    if (cand.valid) {
      gain_sum += cand.gain;
      ++gain_count;
    }
  }
  if (gain_count == 0) {
    return node;
  }
  const double avg_gain = gain_sum / static_cast<double>(gain_count);
  const CandidateSplit* best = nullptr;
  for (const CandidateSplit& cand : ws.candidates) {
    if (!cand.valid || cand.gain + 1e-9 < avg_gain) {
      continue;
    }
    if (best == nullptr || cand.gain_ratio > best->gain_ratio) {
      best = &cand;
    }
  }
  if (best == nullptr) {
    return node;
  }
  node->attr = best->attr;
  node->numeric_split = best->numeric;
  node->threshold = best->threshold;

  // Partition known instances by branch; missing-valued instances descend
  // every non-empty branch with proportional fractional weight. Each child's
  // range holds its known instances in order, then the missing ones.
  const auto a = static_cast<std::size_t>(node->attr);
  const std::size_t num_branches =
      node->numeric_split ? 2 : schema_.feature(a).num_values();
  ws.branch_of.resize(end - begin);
  ws.branch_weights.assign(num_branches, 0.0);
  ws.cursor.assign(num_branches, 0);  // Known instances per branch, for now.
  std::size_t num_missing = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const double value = data.instance(ws.items[i].index).features[a];
    std::size_t& branch = ws.branch_of[i - begin];
    if (IsMissing(value)) {
      branch = kAbsent;
      ++num_missing;
      continue;
    }
    branch = node->numeric_split ? (value <= node->threshold ? 0u : 1u)
                                 : static_cast<std::size_t>(value);
    ws.branch_weights[branch] += ws.items[i].weight;
    ++ws.cursor[branch];
  }
  const double known_total = WeightSum(ws.branch_weights);
  constexpr double kMinFraction = 1e-4;  // Drop negligible fractions.
  auto fraction = [&](std::size_t b) {
    return known_total > 0.0 ? ws.branch_weights[b] / known_total : 0.0;
  };

  const std::size_t base = ws.items.size();
  const std::size_t bounds_base = ws.bounds.size();
  std::size_t offset = base;
  for (std::size_t b = 0; b < num_branches; ++b) {
    ws.bounds.push_back(offset);
    const std::size_t known = ws.cursor[b];
    ws.cursor[b] = offset;
    offset += known + (fraction(b) > kMinFraction ? num_missing : 0);
  }
  ws.bounds.push_back(offset);
  ws.items.resize(offset);
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t branch = ws.branch_of[i - begin];
    if (branch != kAbsent) {
      ws.items[ws.cursor[branch]++] = ws.items[i];
    }
  }
  if (num_missing > 0) {
    for (std::size_t i = begin; i < end; ++i) {
      if (ws.branch_of[i - begin] != kAbsent) {
        continue;
      }
      for (std::size_t b = 0; b < num_branches; ++b) {
        const double f = fraction(b);
        if (f > kMinFraction) {
          ws.items[ws.cursor[b]++] = WeightedIndex{ws.items[i].index, ws.items[i].weight * f};
        }
      }
    }
  }

  for (std::size_t b = 0; b < num_branches; ++b) {
    const std::size_t child_begin = ws.bounds[bounds_base + b];
    const std::size_t child_end = ws.bounds[bounds_base + b + 1];
    if (child_begin == child_end) {
      // Empty branch: inherit this node's majority but carry zero weight so
      // pruning-time error estimates do not double-count its instances.
      auto leaf = std::make_unique<Node>();
      leaf->class_dist.assign(num_classes, 0.0);
      leaf->majority = node->majority;
      node->children.push_back(std::move(leaf));
    } else {
      node->children.push_back(Build(ws, child_begin, child_end, depth + 1));
    }
  }
  ws.items.resize(base);
  ws.bounds.resize(bounds_base);
  return node;
}

double J48::Prune(Node* node) {
  // Weighted training errors of predicting the majority class. A node's weight
  // is the sum of its class distribution (zero for an empty branch, whose
  // inherited majority then has zero weight too).
  const double errors = node->weight - node->class_dist[static_cast<std::size_t>(node->majority)];
  const double leaf_estimate =
      errors + PessimisticExtraErrors(node->weight, errors, options_.confidence);
  if (node->IsLeaf()) {
    return leaf_estimate;
  }
  double subtree_estimate = 0.0;
  for (const auto& child : node->children) {
    subtree_estimate += Prune(child.get());
  }
  // Subtree replacement: collapse when a leaf is (pessimistically) no worse.
  if (leaf_estimate <= subtree_estimate + 0.1) {
    node->attr = -1;
    node->children.clear();
    return leaf_estimate;
  }
  return subtree_estimate;
}

void J48::Accumulate(const Node* node, const std::vector<double>& features, double weight,
                     std::vector<double>& dist) const {
  while (!node->IsLeaf()) {
    const std::size_t a = static_cast<std::size_t>(node->attr);
    const double value = features[a];
    if (IsMissing(value)) {
      // Blend the children's answers by their training weights.
      double child_total = 0.0;
      for (const auto& child : node->children) {
        child_total += child->weight;
      }
      if (child_total <= 0.0) {
        break;  // Degenerate: answer from this node's own distribution.
      }
      for (const auto& child : node->children) {
        if (child->weight > 0.0) {
          Accumulate(child.get(), features, weight * child->weight / child_total, dist);
        }
      }
      return;
    }
    std::size_t branch;
    if (node->numeric_split) {
      branch = value <= node->threshold ? 0 : 1;
    } else {
      branch = static_cast<std::size_t>(value);
      if (branch >= node->children.size()) {
        break;  // Unseen nominal value: fall back to this node's distribution.
      }
    }
    const Node* child = node->children[branch].get();
    if (child->weight <= 0.0) {
      break;  // Empty branch: the parent distribution is the best evidence.
    }
    node = child;
  }
  // Contribute this node's (normalized) class distribution.
  const double total = WeightSum(node->class_dist);
  if (total > 0.0) {
    for (std::size_t c = 0; c < dist.size(); ++c) {
      dist[c] += weight * node->class_dist[c] / total;
    }
  } else if (!dist.empty()) {
    dist[static_cast<std::size_t>(node->majority)] += weight;
  }
}

int J48::Predict(const std::vector<double>& features) const {
  assert(trained_);
  // Fast path: fully observed features descend a single path, allocation-free
  // (prediction sits on the invocation critical path, Figure 6).
  bool has_missing = false;
  for (double value : features) {
    if (IsMissing(value)) {
      has_missing = true;
      break;
    }
  }
  if (!has_missing) {
    const Node* node = root_.get();
    while (!node->IsLeaf()) {
      const std::size_t a = static_cast<std::size_t>(node->attr);
      std::size_t branch;
      if (node->numeric_split) {
        branch = features[a] <= node->threshold ? 0 : 1;
      } else {
        branch = static_cast<std::size_t>(features[a]);
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
    return node->majority;
  }
  std::vector<double> dist(schema_.num_classes(), 0.0);
  Accumulate(root_.get(), features, 1.0, dist);
  return static_cast<int>(ArgMax(dist));
}

std::vector<double> J48::PredictDistribution(const std::vector<double>& features) const {
  assert(trained_);
  std::vector<double> dist(schema_.num_classes(), 0.0);
  Accumulate(root_.get(), features, 1.0, dist);
  return dist;
}

std::size_t J48::CountNodes(const Node* node) {
  if (node == nullptr) {
    return 0;
  }
  std::size_t n = 1;
  for (const auto& child : node->children) {
    n += CountNodes(child.get());
  }
  return n;
}

std::size_t J48::NumNodes() const { return CountNodes(root_.get()); }

}  // namespace ofc::ml
