#include "src/ml/j48.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>

#include "src/common/sim_assert.h"
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

// An eligible boundary of the numeric scan: it lies between sorted records
// `pos` and `pos + 1`, and splitting there has about `approx_gain`.
struct Boundary {
  std::size_t pos;
  double approx_gain;
};

// The best binary threshold of one numeric attribute.
struct Threshold {
  double gain = -1.0;  // Exact; -1 when no boundary is eligible.
  double value = 0.0;  // Midway between the boundary's two values.
  double split_info = 0.0;
  std::size_t num_boundaries = 0;  // Between distinct values, eligible or not.
};

// Train() tables x log2 x when the training set's weights are whole numbers
// that average at most this much. The table costs one logarithm per entry;
// computing the terms costs about two per record and numeric attribute at
// every node.
constexpr double kTableWeightPerInstance = 16.0;

// Slack on the approximate gains, so that every eligible boundary's
// approximate gain lies within it of the gain the exact scan computes.
//
// Derivation. Let u = 2^-53 be the unit roundoff; the scan has n records of
// k present classes, total weight T and smallest weight w_min. Every branch
// total x lies in [w_min, T], so |log2 x| + 1/ln 2 <= Lambda, with
// Lambda = log2 max(T, 2) + log2 max(1, 1/w_min) + 2; and every sum of
// |x log2 x| over the 2k class weights, or over the two branch totals, is at most
// M = T * Lambda + 2k (a weight below 1 adds at most 1/(e ln 2) < 1). Log2 is
// std::log (within one ulp) times a rounded 1/ln 2, so each x log2 x term,
// tabled or computed, is within a relative 5u of its value. Both gains read
// the same class weights, so the two differ only by rounding:
//  - the approximate side: its terms, 10 u M in all; the running sum, whose
//    four operations per record round quantities of at most 4M (9 u M per
//    record) and whose first 2k terms add 2k u M; the branch totals, running
//    sums that may sit 4 n u T from the class weights' totals and move their
//    terms by Lambda times that, 8 n u T Lambda in all; the divisor T, up to
//    2 n u T off, moving the entropy by 2 n u log2 k; and the final sums,
//    4 u M;
//  - the exact scan: PartitionEntropy's sums, divisions and logarithms, at
//    most (4k + 12) u (log2 k + 2); and a class weight that the right
//    branch's subtractions leave a few ulps below zero, which the entropy
//    skips but the branch total counts, at most n u Lambda;
//  - on both sides, subtracting the entropy from the node's, u log2 k each.
// After dividing the approximate side by T, with log2 k <= Lambda (k <= n <=
// T / w_min), the gains differ by at most u (20n + 6k + 28) (Lambda + 2k/T).
// For a 1,600-record curated set of 40 classes (T about 2,250) that is about
// 5e-11. The slack is 128 times the bound.
double GainSlack(std::size_t n, std::size_t k, double total, double min_weight) {
  constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2.0;
  constexpr double kMargin = 128.0;
  const double lambda =
      Log2(std::max(total, 2.0)) + Log2(std::max(1.0, 1.0 / min_weight)) + 2.0;
  const auto records = static_cast<double>(n);
  const auto classes = static_cast<double>(k);
  return kMargin * kUnitRoundoff * (20.0 * records + 6.0 * classes + 28.0) *
         (lambda + 2.0 * classes / total);
}

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
  // The numeric threshold search (FindThreshold).
  std::vector<double> xlog2x;  // XLog2X of whole x; empty unless weights are whole.
  std::vector<double> terms;   // XLog2X of each entry of `counts`.
  std::vector<Boundary> boundaries;
  // Partitioning of the chosen split.
  std::vector<std::size_t> branch_of;  // Per instance; kAbsent when missing.
  std::vector<double> branch_weights;
  std::vector<std::size_t> cursor;

  // The best threshold over `records`, sorted by value, whose class weights
  // are `known_dist` (k present classes, total `known_weight`, entropy
  // `known_entropy`, smallest record weight `min_weight`). `whole_weights`:
  // every record's weight is a whole number.
  //
  // It returns what a scan computing PartitionEntropy at every eligible
  // boundary would, bit for bit: the first boundary of highest exact gain, and
  // that gain and split information. Pass 1 computes every eligible
  // boundary's gain to within GainSlack() in O(1) from running sums of
  // x log2 x; pass 2 replays the scan and evaluates exactly, in scan order,
  // only the boundaries whose approximate gain is within twice the slack of
  // the largest. The exact maximum's approximate gain is at least the largest
  // exact gain minus the slack, which is at least the largest approximate gain
  // minus twice the slack, so pass 2 evaluates it and every boundary that ties
  // it, and keeps the same first one.
  Threshold FindThreshold(std::size_t k, double known_weight, double known_entropy,
                          double min_weight, bool whole_weights, double min_leaf_weight);

  // Pass 1 of FindThreshold: appends each eligible boundary to `boundaries`,
  // counts every boundary into `num_boundaries`, and returns the largest
  // approximate gain. `xlog2x_of` maps a class weight or branch total to its
  // XLog2X term.
  template <typename XLog2XOf>
  double ApproximateGains(std::size_t k, double known_weight, double known_entropy,
                          double min_leaf_weight, std::size_t& num_boundaries,
                          XLog2XOf xlog2x_of);

  // counts = [0 | known_dist], the scan's state before its first record.
  void ResetCounts(std::size_t k) {
    counts.assign(2 * k, 0.0);
    std::copy(known_dist.begin(), known_dist.end(),
              counts.begin() + static_cast<std::ptrdiff_t>(k));
  }
};

template <typename XLog2XOf>
double J48::Workspace::ApproximateGains(std::size_t k, double known_weight,
                                        double known_entropy, double min_leaf_weight,
                                        std::size_t& num_boundaries, XLog2XOf xlog2x_of) {
  // sum = the XLog2X terms of every class weight of both branches, kept as
  // each record moves from the right branch to the left. Then T times the
  // partition entropy is XLog2X(left) + XLog2X(right) - sum.
  terms.resize(2 * k);
  double sum = 0.0;
  for (std::size_t c = 0; c < 2 * k; ++c) {
    terms[c] = xlog2x_of(counts[c]);
    sum += terms[c];
  }
  boundaries.clear();
  double max_gain = -std::numeric_limits<double>::infinity();
  double left_total = 0.0;
  for (std::size_t pos = 0; pos + 1 < records.size(); ++pos) {
    const Record& rec = records[pos];
    // The same operations as the exact scan's, so the class weights match.
    counts[rec.cls] += rec.weight;
    left_total += rec.weight;
    counts[k + rec.cls] -= rec.weight;
    const double left_term = xlog2x_of(counts[rec.cls]);
    const double right_term = xlog2x_of(counts[k + rec.cls]);
    sum += (left_term - terms[rec.cls]) + (right_term - terms[k + rec.cls]);
    terms[rec.cls] = left_term;
    terms[k + rec.cls] = right_term;
    if (records[pos + 1].value <= rec.value) {
      continue;  // Not a boundary between distinct values.
    }
    ++num_boundaries;
    const double right_total = known_weight - left_total;
    if (left_total < min_leaf_weight || right_total < min_leaf_weight) {
      continue;
    }
    const double gain =
        known_entropy - (xlog2x_of(left_total) + xlog2x_of(right_total) - sum) / known_weight;
    boundaries.push_back(Boundary{pos, gain});
    max_gain = std::max(max_gain, gain);
  }
  return max_gain;
}

Threshold J48::Workspace::FindThreshold(std::size_t k, double known_weight,
                                        double known_entropy, double min_weight,
                                        bool whole_weights, double min_leaf_weight) {
  Threshold best;
  ResetCounts(k);
  // Whole weights keep every class weight and branch total whole, and at most
  // the set's total weight, so their terms are table lookups.
  const double max_gain =
      whole_weights && known_weight < static_cast<double>(xlog2x.size())
          ? ApproximateGains(k, known_weight, known_entropy, min_leaf_weight,
                             best.num_boundaries,
                             [this](double x) { return xlog2x[static_cast<std::size_t>(x)]; })
          : ApproximateGains(k, known_weight, known_entropy, min_leaf_weight,
                             best.num_boundaries, XLog2X);
  if (boundaries.empty()) {
    return best;
  }
  const double slack = GainSlack(records.size(), k, known_weight, min_weight);
  const double cutoff = max_gain - 2.0 * slack;
  ResetCounts(k);
  std::size_t next = 0;  // The first record not yet moved to the left branch.
  for (const Boundary& boundary : boundaries) {
    if (boundary.approx_gain < cutoff) {
      continue;
    }
    for (; next <= boundary.pos; ++next) {
      counts[records[next].cls] += records[next].weight;
      counts[k + records[next].cls] -= records[next].weight;
    }
    const double gain = known_entropy - PartitionEntropy(counts, k);
    SIM_ASSERT(std::abs(gain - boundary.approx_gain) <= slack)
        << "J48 split search: approximate gain " << boundary.approx_gain << " vs exact "
        << gain << ", slack " << slack;
    if (gain > best.gain) {
      best.gain = gain;
      best.value = (records[boundary.pos].value + records[boundary.pos + 1].value) / 2.0;
      best.split_info = SplitInformation(counts, k);
    }
  }
  return best;
}

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
  double total_weight = 0.0;
  bool whole_weights = true;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double weight = data.instance(i).weight;
    ws.items[i] = WeightedIndex{i, weight};
    total_weight += weight;
    whole_weights = whole_weights && weight == std::floor(weight);
  }
  if (whole_weights &&
      total_weight <= kTableWeightPerInstance * static_cast<double>(data.size())) {
    ws.xlog2x.resize(static_cast<std::size_t>(total_weight) + 1);
    for (std::size_t x = 0; x < ws.xlog2x.size(); ++x) {
      ws.xlog2x[x] = XLog2X(static_cast<double>(x));
    }
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
  bool whole_weights = true;  // Missing values descend with fractional weights.
  for (std::size_t i = begin; i < end; ++i) {
    const auto label = static_cast<std::size_t>(data.instance(ws.items[i].index).label);
    const double weight = ws.items[i].weight;
    dist[label] += weight;
    ws.column[label] = 0;  // Present; numbered below.
    whole_weights = whole_weights && weight == std::floor(weight);
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
    double min_weight = std::numeric_limits<double>::infinity();
    for (std::size_t i = begin; i < end; ++i) {
      const Instance& inst = data.instance(ws.items[i].index);
      const double value = inst.features[a];
      if (!IsMissing(value)) {
        const double weight = ws.items[i].weight;
        const std::size_t cls = ws.column[static_cast<std::size_t>(inst.label)];
        ws.records.push_back(Record{value, weight, cls});
        known_weight += weight;
        min_weight = std::min(min_weight, weight);
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
      std::sort(ws.records.begin(), ws.records.end(),
                [](const Record& x, const Record& y) { return x.value < y.value; });
      const Threshold threshold = ws.FindThreshold(k, known_weight, known_entropy, min_weight,
                                                   whole_weights, options_.min_leaf_weight);
      if (threshold.gain <= 1e-9 || threshold.num_boundaries == 0) {
        continue;
      }
      // C4.5's MDL correction: distributing log2(#candidate thresholds) bits of
      // threshold-choice cost over the instances.
      const double corrected =
          known_fraction * threshold.gain -
          Log2(static_cast<double>(threshold.num_boundaries)) / total;
      if (corrected <= 1e-9 || threshold.split_info <= 1e-9) {
        continue;
      }
      cand.numeric = true;
      cand.threshold = threshold.value;
      cand.gain = corrected;
      cand.gain_ratio = corrected / threshold.split_info;
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
