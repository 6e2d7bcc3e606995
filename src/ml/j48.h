// J48: a C4.5 decision-tree learner (Quinlan 1993), matching the Weka variant the
// paper uses (§5.1.1): gain-ratio attribute selection with the average-gain
// guard, binary splits with MDL correction on numeric attributes, multiway splits
// on nominal attributes, pessimistic error pruning (confidence factor 0.25), and
// C4.5's fractional-instance treatment of missing values (encode a missing
// feature as NaN): during training, instances with an unknown split attribute
// descend every branch with proportional weight and the gain is scaled by the
// known fraction; during prediction, a missing attribute blends the children's
// distributions by their training weights.
//
// Decision trees fit OFC's constraints: prediction is a handful of comparisons
// (Figure 6 budget of ~1 ms is beaten by orders of magnitude), and nominal
// argument values need no semantic preprocessing. Full retraining on the
// curated training set (§5.3.3) is not free: on a 4-vCPU VM, in a Release
// build, a full 1,500-instance set takes 3.4 ms over the 128 memory intervals
// and 2.1 ms over the two benefit classes (bench/micro_ops_benchmark,
// BM_J48Retrain*), down from 7.8 ms and 2.7 ms when the numeric split search
// computed every boundary's entropy exactly (DESIGN.md §12, "Split search").
#ifndef OFC_ML_J48_H_
#define OFC_ML_J48_H_

#include <iosfwd>
#include <memory>
#include <vector>

#include "src/ml/classifier.h"

namespace ofc::ml {

struct J48Options {
  double confidence = 0.25;      // Pessimistic-pruning confidence factor.
  double min_leaf_weight = 2.0;  // Minimum weighted instances per leaf.
  bool prune = true;
  int max_depth = 60;  // Safety guard; C4.5 has no explicit limit.
};

class J48 : public Classifier {
 public:
  explicit J48(J48Options options = {}) : options_(options) {}

  Status Train(const Dataset& data) override;
  int Predict(const std::vector<double>& features) const override;
  std::vector<double> PredictDistribution(const std::vector<double>& features) const override;
  std::string Name() const override { return "J48"; }
  std::size_t NumNodes() const override;

  // The tree dump (src/ml/serialization.h) that the J48 tree goldens hash.
  friend void WriteJ48(std::ostream& out, const J48& model);

 private:
  struct Node {
    // Leaf payload (also kept on internal nodes for empty-branch fallbacks and
    // for pruning-time error estimates).
    std::vector<double> class_dist;
    int majority = 0;
    double weight = 0.0;  // Weighted training instances reaching this node.

    // Split payload; attr < 0 means leaf.
    int attr = -1;
    bool numeric_split = false;
    double threshold = 0.0;  // For numeric splits: left branch is value <= threshold.
    std::vector<std::unique_ptr<Node>> children;

    bool IsLeaf() const { return attr < 0; }
  };

  // Split-search scratch buffers shared by all nodes of one Train() call.
  struct Workspace;

  // Grows the subtree for the non-empty instance range [begin, end) of the
  // workspace's item stack.
  std::unique_ptr<Node> Build(Workspace& ws, std::size_t begin, std::size_t end, int depth);
  // Returns the estimated (pessimistic) error count of the subtree, pruning it
  // in place to a leaf where that lowers the estimate.
  double Prune(Node* node);
  // Adds `weight` x the subtree's class distribution for `features` into
  // `dist`, blending across branches when the split attribute is missing.
  void Accumulate(const Node* node, const std::vector<double>& features, double weight,
                  std::vector<double>& dist) const;
  static std::size_t CountNodes(const Node* node);

  J48Options options_;
  std::unique_ptr<Node> root_;
};

}  // namespace ofc::ml

#endif  // OFC_ML_J48_H_
