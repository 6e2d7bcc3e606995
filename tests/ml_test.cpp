// Unit tests for the ML library: dataset, tree math, the four classifiers of
// Table 1, the evaluation harness, and golden digests of trained J48 trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/ml_service.h"
#include "src/ml/dataset.h"
#include "src/ml/evaluation.h"
#include "src/ml/hoeffding_tree.h"
#include "src/ml/j48.h"
#include "src/ml/random_forest.h"
#include "src/ml/random_tree.h"
#include "src/ml/serialization.h"
#include "src/ml/tree_math.h"
#include "src/workloads/functions.h"

namespace ofc::ml {
namespace {

Schema TwoFeatureSchema() {
  return Schema({Attribute::Numeric("x"), Attribute::Nominal("color", {"red", "green", "blue"})},
                Attribute::Nominal("class", {"a", "b"}));
}

// A dataset with a crisp two-level rule: class = b iff (x > 5 and color != blue).
Dataset RuleDataset(int n, std::uint64_t seed) {
  Dataset data(TwoFeatureSchema());
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double x = rng.Uniform(0.0, 10.0);
    const double color = static_cast<double>(rng.UniformInt(0, 2));
    const int label = (x > 5.0 && color != 2.0) ? 1 : 0;
    EXPECT_TRUE(data.Add({{x, color}, label, 1.0}).ok());
  }
  return data;
}

// A noisy multi-class problem over 3 numeric features; the label is a banded
// function of a hidden combination, which mimics the memory-interval task.
Dataset BandedDataset(int n, int num_classes, std::uint64_t seed, double noise = 0.0) {
  std::vector<std::string> class_names;
  for (int c = 0; c < num_classes; ++c) {
    class_names.push_back("c" + std::to_string(c));
  }
  Schema schema({Attribute::Numeric("w"), Attribute::Numeric("h"), Attribute::Numeric("arg")},
                Attribute::Nominal("band", class_names));
  Dataset data(schema);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double w = rng.Uniform(10, 100);
    const double h = rng.Uniform(10, 100);
    const double arg = rng.Uniform(0, 4);
    double score = w * h * (1.0 + 0.2 * arg);
    score *= 1.0 + noise * rng.Gaussian(0.0, 1.0);
    int label = static_cast<int>(score / (100.0 * 100.0 * 1.8 / num_classes));
    label = std::clamp(label, 0, num_classes - 1);
    EXPECT_TRUE(data.Add({{w, h, arg}, label, 1.0}).ok());
  }
  return data;
}

// ---- Dataset -------------------------------------------------------------

TEST(DatasetTest, RejectsArityMismatch) {
  Dataset data(TwoFeatureSchema());
  EXPECT_FALSE(data.Add({{1.0}, 0, 1.0}).ok());
}

TEST(DatasetTest, RejectsBadLabel) {
  Dataset data(TwoFeatureSchema());
  EXPECT_FALSE(data.Add({{1.0, 0.0}, 2, 1.0}).ok());
  EXPECT_FALSE(data.Add({{1.0, 0.0}, -1, 1.0}).ok());
}

TEST(DatasetTest, RejectsOutOfRangeNominal) {
  Dataset data(TwoFeatureSchema());
  EXPECT_FALSE(data.Add({{1.0, 3.0}, 0, 1.0}).ok());
  EXPECT_FALSE(data.Add({{1.0, 0.5}, 0, 1.0}).ok());
}

TEST(DatasetTest, RejectsNonPositiveWeight) {
  Dataset data(TwoFeatureSchema());
  EXPECT_FALSE(data.Add({{1.0, 0.0}, 0, 0.0}).ok());
}

TEST(DatasetTest, ClassDistributionWeighted) {
  Dataset data(TwoFeatureSchema());
  ASSERT_TRUE(data.Add({{1.0, 0.0}, 0, 2.0}).ok());
  ASSERT_TRUE(data.Add({{2.0, 1.0}, 1, 3.0}).ok());
  const auto dist = data.ClassDistribution();
  EXPECT_DOUBLE_EQ(dist[0], 2.0);
  EXPECT_DOUBLE_EQ(dist[1], 3.0);
  EXPECT_DOUBLE_EQ(data.TotalWeight(), 5.0);
}

TEST(DatasetTest, PopFrontDropsOldestInOrder) {
  Dataset data(TwoFeatureSchema());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(data.Add({{static_cast<double>(i), 0.0}, i % 2, 1.0}).ok());
  }
  for (int i = 0; i < 25; ++i) {
    data.PopFront();
  }
  ASSERT_EQ(data.size(), 15u);
  ASSERT_EQ(data.instances().size(), 15u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data.instance(i).features[0], 25.0 + static_cast<double>(i));
    EXPECT_EQ(data.instances()[i].features[0], 25.0 + static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(data.TotalWeight(), 15.0);
  ASSERT_TRUE(data.Add({{40.0, 0.0}, 0, 1.0}).ok());
  EXPECT_EQ(data.instance(15).features[0], 40.0);
}

TEST(DatasetTest, FilterKeepsMatching) {
  Dataset data = RuleDataset(100, 1);
  Dataset ones = data.Filter([](const Instance& i) { return i.label == 1; });
  for (const auto& inst : ones.instances()) {
    EXPECT_EQ(inst.label, 1);
  }
  EXPECT_LT(ones.size(), data.size());
  EXPECT_GT(ones.size(), 0u);
}

TEST(SchemaTest, FeatureIndexLookup) {
  Schema s = TwoFeatureSchema();
  EXPECT_EQ(s.FeatureIndex("x"), 0);
  EXPECT_EQ(s.FeatureIndex("color"), 1);
  EXPECT_EQ(s.FeatureIndex("nope"), -1);
}

// ---- Tree math -------------------------------------------------------------

TEST(TreeMathTest, EntropyKnownValues) {
  EXPECT_DOUBLE_EQ(Entropy(std::vector<double>{1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(Entropy(std::vector<double>{4.0, 0.0}), 0.0);
  EXPECT_NEAR(Entropy(std::vector<double>{2.0, 2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(Entropy({}), 0.0);
}

TEST(TreeMathTest, PartitionEntropyPerfectSplitIsZero) {
  EXPECT_DOUBLE_EQ(PartitionEntropy(std::vector<double>{5.0, 0.0, 0.0, 5.0}, 2), 0.0);
}

TEST(TreeMathTest, SplitInformationBalancedBinary) {
  EXPECT_NEAR(SplitInformation(std::vector<double>{2.0, 3.0, 1.0, 4.0}, 2), 1.0, 1e-12);
}

TEST(TreeMathTest, AbsentClassColumnsChangeNoBit) {
  // Dropping all-zero class columns leaves every partition result bit-equal:
  // the J48 split search relies on this to skip absent memory intervals.
  const std::vector<double> wide = {0.0, 1.5, 0.0, 2.25, 0.0, 0.0, 3.0, 0.0, 0.75, 0.0};
  const std::vector<double> narrow = {1.5, 2.25, 3.0, 0.75};
  EXPECT_EQ(Entropy(std::span<const double>(wide).first(5)),
            Entropy(std::span<const double>(narrow).first(2)));
  EXPECT_EQ(PartitionEntropy(wide, 5), PartitionEntropy(narrow, 2));
  EXPECT_EQ(SplitInformation(wide, 5), SplitInformation(narrow, 2));
}

TEST(TreeMathTest, NormalInverseKnownQuantiles) {
  EXPECT_NEAR(NormalInverse(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalInverse(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalInverse(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(NormalInverse(0.75), 0.674490, 1e-5);
}

TEST(TreeMathTest, PessimisticExtraErrorsPositiveAndMonotone) {
  // More observed errors on the same support -> at least as many extra errors
  // is not guaranteed, but the estimate must always be positive and bounded.
  const double e0 = PessimisticExtraErrors(10.0, 0.0, 0.25);
  const double e2 = PessimisticExtraErrors(10.0, 2.0, 0.25);
  EXPECT_GT(e0, 0.0);
  EXPECT_GT(e2, 0.0);
  EXPECT_LT(e2, 10.0);
  // Larger support shrinks the correction per instance.
  EXPECT_GT(PessimisticExtraErrors(10.0, 1.0, 0.25) / 10.0,
            PessimisticExtraErrors(1000.0, 100.0, 0.25) / 1000.0);
}

TEST(TreeMathTest, ArgMaxFirstOnTies) {
  EXPECT_EQ(ArgMax({1.0, 3.0, 3.0}), 1u);
  EXPECT_EQ(ArgMax({5.0}), 0u);
}

// ---- J48 -------------------------------------------------------------------

TEST(J48Test, LearnsCrispRule) {
  Dataset train = RuleDataset(400, 2);
  Dataset test = RuleDataset(200, 3);
  J48 model;
  ASSERT_TRUE(model.Train(train).ok());
  int correct = 0;
  for (const auto& inst : test.instances()) {
    correct += model.Predict(inst.features) == inst.label;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.size()), 0.95);
}

TEST(J48Test, RejectsEmptyDataset) {
  J48 model;
  EXPECT_FALSE(model.Train(Dataset(TwoFeatureSchema())).ok());
}

TEST(J48Test, PureDatasetYieldsSingleLeaf) {
  Dataset data(TwoFeatureSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(data.Add({{static_cast<double>(i), 0.0}, 0, 1.0}).ok());
  }
  J48 model;
  ASSERT_TRUE(model.Train(data).ok());
  EXPECT_EQ(model.NumNodes(), 1u);
  EXPECT_EQ(model.Predict({3.0, 1.0}), 0);
}

TEST(J48Test, PruningShrinksTree) {
  Dataset train = BandedDataset(600, 6, 5, /*noise=*/0.15);
  J48 pruned(J48Options{.prune = true});
  J48 unpruned(J48Options{.prune = false});
  ASSERT_TRUE(pruned.Train(train).ok());
  ASSERT_TRUE(unpruned.Train(train).ok());
  EXPECT_LE(pruned.NumNodes(), unpruned.NumNodes());
}

TEST(J48Test, PredictDistributionSumsToOne) {
  Dataset train = BandedDataset(300, 4, 7);
  J48 model;
  ASSERT_TRUE(model.Train(train).ok());
  const auto dist = model.PredictDistribution({50.0, 50.0, 2.0});
  double sum = 0.0;
  for (double d : dist) {
    sum += d;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(J48Test, HandlesWeightedInstances) {
  // Upweighting class-1 instances shifts ties toward class 1.
  Dataset data(TwoFeatureSchema());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(data.Add({{1.0, 0.0}, 0, 1.0}).ok());
    ASSERT_TRUE(data.Add({{1.0, 0.0}, 1, 3.0}).ok());
  }
  J48 model;
  ASSERT_TRUE(model.Train(data).ok());
  EXPECT_EQ(model.Predict({1.0, 0.0}), 1);
}

TEST(J48Test, RetrainReplacesModel) {
  J48 model;
  Dataset a(TwoFeatureSchema());
  Dataset b(TwoFeatureSchema());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.Add({{1.0, 0.0}, 0, 1.0}).ok());
    ASSERT_TRUE(b.Add({{1.0, 0.0}, 1, 1.0}).ok());
  }
  ASSERT_TRUE(model.Train(a).ok());
  EXPECT_EQ(model.Predict({1.0, 0.0}), 0);
  ASSERT_TRUE(model.Train(b).ok());
  EXPECT_EQ(model.Predict({1.0, 0.0}), 1);
}

// ---- J48 missing values (C4.5 fractional instances) ---------------------------

constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

TEST(J48MissingTest, DatasetAcceptsNaNAsMissing) {
  Dataset data(TwoFeatureSchema());
  EXPECT_TRUE(data.Add({{kMissing, 0.0}, 0, 1.0}).ok());
  EXPECT_TRUE(data.Add({{1.0, kMissing}, 1, 1.0}).ok());  // Nominal missing too.
}

// The crisp rule dataset with 20 % of x values knocked out.
Dataset MissingXDataset() {
  Dataset data(TwoFeatureSchema());
  Rng rng(101);
  for (int i = 0; i < 600; ++i) {
    const double x = rng.Uniform(0.0, 10.0);
    const double color = static_cast<double>(rng.UniformInt(0, 2));
    const int label = (x > 5.0 && color != 2.0) ? 1 : 0;
    const double feature_x = rng.Bernoulli(0.2) ? kMissing : x;
    EXPECT_TRUE(data.Add({{feature_x, color}, label, 1.0}).ok());
  }
  return data;
}

TEST(J48MissingTest, TrainsThroughMissingValues) {
  // The tree must still learn the rule from the known instances.
  Dataset train = MissingXDataset();
  J48 model;
  ASSERT_TRUE(model.Train(train).ok());
  Dataset test = RuleDataset(300, 103);
  int correct = 0;
  for (const auto& inst : test.instances()) {
    correct += model.Predict(inst.features) == inst.label;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.size()), 0.9);
}

TEST(J48MissingTest, MissingFeatureAtPredictionBlendsBranches) {
  Dataset train = RuleDataset(500, 107);
  J48 model;
  ASSERT_TRUE(model.Train(train).ok());
  // With x missing, the distribution blends both sides of the x-split: the
  // result must be a proper distribution, not a crash or a degenerate one-hot
  // copy of a single branch.
  const auto dist = model.PredictDistribution({kMissing, 0.0});
  ASSERT_EQ(dist.size(), 2u);
  const double sum = dist[0] + dist[1];
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(dist[0], 0.05);  // Both classes keep mass: x <= 5 gives class 0...
  EXPECT_GT(dist[1], 0.05);  // ...and x > 5 with color red/green gives class 1.
  // Prediction still works when everything is missing.
  const int p = model.Predict({kMissing, kMissing});
  EXPECT_TRUE(p == 0 || p == 1);
}

TEST(J48MissingTest, FullyObservedPredictionsUnchangedByMissingSupport) {
  // Sanity: on fully observed data the missing-value machinery is inert.
  Dataset train = RuleDataset(400, 109);
  J48 model;
  ASSERT_TRUE(model.Train(train).ok());
  EXPECT_EQ(model.Predict({8.0, 0.0}), 1);
  EXPECT_EQ(model.Predict({2.0, 0.0}), 0);
  EXPECT_EQ(model.Predict({8.0, 2.0}), 0);
}

// ---- RandomTree / RandomForest ----------------------------------------------

TEST(RandomTreeTest, LearnsCrispRule) {
  Dataset train = RuleDataset(600, 11);
  Dataset test = RuleDataset(200, 12);
  RandomTree model(RandomTreeOptions{.seed = 5});
  ASSERT_TRUE(model.Train(train).ok());
  int correct = 0;
  for (const auto& inst : test.instances()) {
    correct += model.Predict(inst.features) == inst.label;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.size()), 0.9);
}

TEST(RandomTreeTest, SeedChangesTree) {
  Dataset train = BandedDataset(400, 4, 13);
  RandomTree a(RandomTreeOptions{.seed = 1});
  RandomTree b(RandomTreeOptions{.seed = 2});
  ASSERT_TRUE(a.Train(train).ok());
  ASSERT_TRUE(b.Train(train).ok());
  // Different random attribute subsets almost surely give different shapes.
  EXPECT_TRUE(a.NumNodes() != b.NumNodes() || a.NumNodes() > 1);
}

TEST(RandomForestTest, BeatsSingleRandomTreeOnNoisyData) {
  Dataset train = BandedDataset(500, 6, 17, /*noise=*/0.2);
  Dataset test = BandedDataset(400, 6, 18, /*noise=*/0.2);
  RandomTree tree(RandomTreeOptions{.seed = 3});
  RandomForest forest(RandomForestOptions{.num_trees = 25, .seed = 4});
  ASSERT_TRUE(tree.Train(train).ok());
  ASSERT_TRUE(forest.Train(train).ok());
  int tree_ok = 0;
  int forest_ok = 0;
  for (const auto& inst : test.instances()) {
    tree_ok += tree.Predict(inst.features) == inst.label;
    forest_ok += forest.Predict(inst.features) == inst.label;
  }
  EXPECT_GE(forest_ok, tree_ok);
}

TEST(RandomForestTest, DistributionAveragesTrees) {
  Dataset train = RuleDataset(300, 19);
  RandomForest forest(RandomForestOptions{.num_trees = 10, .seed = 6});
  ASSERT_TRUE(forest.Train(train).ok());
  const auto dist = forest.PredictDistribution({8.0, 0.0});
  double sum = 0.0;
  for (double d : dist) {
    sum += d;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(forest.Predict({8.0, 0.0}), 1);
}

// ---- HoeffdingTree -----------------------------------------------------------

TEST(HoeffdingTreeTest, LearnsIncrementally) {
  HoeffdingTree model(HoeffdingTreeOptions{.grace_period = 25});
  ASSERT_TRUE(model.Reset(TwoFeatureSchema()).ok());
  Rng rng(23);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.Uniform(0.0, 10.0);
    const double color = static_cast<double>(rng.UniformInt(0, 2));
    const int label = (x > 5.0 && color != 2.0) ? 1 : 0;
    ASSERT_TRUE(model.Observe({{x, color}, label, 1.0}).ok());
  }
  Dataset test = RuleDataset(300, 24);
  int correct = 0;
  for (const auto& inst : test.instances()) {
    correct += model.Predict(inst.features) == inst.label;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.size()), 0.85);
  EXPECT_GT(model.NumNodes(), 1u);
}

TEST(HoeffdingTreeTest, ObserveBeforeResetFails) {
  HoeffdingTree model;
  EXPECT_FALSE(model.Observe({{1.0, 0.0}, 0, 1.0}).ok());
}

TEST(HoeffdingTreeTest, NaiveBayesLeavesBeatMajorityOnSmallStreams) {
  // Six well-separated Gaussian classes over one feature, but too few samples
  // for the Hoeffding bound to split: a majority vote is stuck at the modal
  // class while the NB leaf reads the per-class Gaussians.
  Schema schema({Attribute::Numeric("x")},
                Attribute::Nominal("cls", {"c0", "c1", "c2", "c3", "c4", "c5"}));
  auto make = [&](std::uint64_t seed, int n) {
    Dataset data(schema);
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      const int label = static_cast<int>(rng.UniformInt(0, 5));
      EXPECT_TRUE(data.Add({{rng.Gaussian(label * 10.0, 1.0)}, label, 1.0}).ok());
    }
    return data;
  };
  Dataset train = make(77, 120);
  Dataset test = make(79, 300);
  // Grace period above the stream length: the tree stays a single leaf, so
  // the comparison isolates the leaf-prediction strategies.
  HoeffdingTree nb(HoeffdingTreeOptions{
      .grace_period = 500, .leaf_prediction = LeafPrediction::kNaiveBayesAdaptive});
  HoeffdingTree mc(HoeffdingTreeOptions{
      .grace_period = 500, .leaf_prediction = LeafPrediction::kMajorityClass});
  ASSERT_TRUE(nb.Train(train).ok());
  ASSERT_TRUE(mc.Train(train).ok());
  int nb_ok = 0;
  int mc_ok = 0;
  for (const auto& inst : test.instances()) {
    nb_ok += nb.Predict(inst.features) == inst.label;
    mc_ok += mc.Predict(inst.features) == inst.label;
  }
  EXPECT_GT(nb_ok, mc_ok + 50);
  EXPECT_GT(static_cast<double>(nb_ok) / static_cast<double>(test.size()), 0.8);
}

TEST(HoeffdingTreeTest, BatchTrainWorks) {
  Dataset train = RuleDataset(2500, 29);
  HoeffdingTree model(HoeffdingTreeOptions{.grace_period = 25});
  ASSERT_TRUE(model.Train(train).ok());
  Dataset test = RuleDataset(200, 31);
  int correct = 0;
  for (const auto& inst : test.instances()) {
    correct += model.Predict(inst.features) == inst.label;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.size()), 0.8);
}

// ---- Evaluation --------------------------------------------------------------

TEST(ConfusionMatrixTest, AccuracyAndEO) {
  ConfusionMatrix m(3);
  m.Add(0, 0);  // exact
  m.Add(1, 2);  // over
  m.Add(2, 0);  // under by 2
  m.Add(2, 1);  // under by 1
  EXPECT_DOUBLE_EQ(m.Accuracy(), 0.25);
  EXPECT_DOUBLE_EQ(m.ExactOrOverAccuracy(), 0.5);
  EXPECT_DOUBLE_EQ(m.UnderpredictionRate(), 0.5);
  EXPECT_DOUBLE_EQ(m.OverpredictionRate(), 0.25);
  EXPECT_DOUBLE_EQ(m.UnderpredictionsWithin(1), 0.5);
  EXPECT_DOUBLE_EQ(m.UnderpredictionsWithin(2), 1.0);
}

TEST(ConfusionMatrixTest, PrecisionRecallF) {
  ConfusionMatrix m(2);
  // 8 TP, 2 FN, 1 FP, 9 TN for class 1.
  for (int i = 0; i < 8; ++i) m.Add(1, 1);
  for (int i = 0; i < 2; ++i) m.Add(1, 0);
  m.Add(0, 1);
  for (int i = 0; i < 9; ++i) m.Add(0, 0);
  EXPECT_NEAR(m.Precision(1), 8.0 / 9.0, 1e-12);
  EXPECT_NEAR(m.Recall(1), 0.8, 1e-12);
  const double p = 8.0 / 9.0;
  EXPECT_NEAR(m.FMeasure(1), 2 * p * 0.8 / (p + 0.8), 1e-12);
}

TEST(ConfusionMatrixTest, MergeAggregates) {
  ConfusionMatrix a(2);
  ConfusionMatrix b(2);
  a.Add(0, 0);
  b.Add(1, 1);
  b.Add(1, 0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.total(), 3.0);
  EXPECT_NEAR(a.Accuracy(), 2.0 / 3.0, 1e-12);
}

TEST(ConfusionMatrixTest, NoUnderpredictionsMeansWithinIsOne) {
  ConfusionMatrix m(3);
  m.Add(0, 0);
  m.Add(0, 2);
  EXPECT_DOUBLE_EQ(m.UnderpredictionsWithin(1), 1.0);
}

TEST(CrossValidationTest, HighAccuracyOnLearnableTask) {
  Dataset data = RuleDataset(500, 37);
  Rng rng(41);
  const auto result =
      CrossValidate([] { return std::make_unique<J48>(); }, data, 10, rng);
  EXPECT_GT(result.confusion.Accuracy(), 0.9);
  EXPECT_EQ(result.errors.size(), data.size());
}

TEST(CrossValidationTest, ErrorsSignedInIntervalUnits) {
  Dataset data = BandedDataset(400, 8, 43, /*noise=*/0.1);
  Rng rng(47);
  const auto result =
      CrossValidate([] { return std::make_unique<J48>(); }, data, 5, rng);
  for (int e : result.errors) {
    EXPECT_GE(e, -7);
    EXPECT_LE(e, 7);
  }
}

// Parameterized sweep: every classifier must beat a majority-class baseline on
// the banded task, mirroring the Table 1 comparison setup.
class AllClassifiersTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Classifier> Make() const {
    const std::string name = GetParam();
    if (name == "J48") {
      return std::make_unique<J48>();
    }
    if (name == "RandomForest") {
      return std::make_unique<RandomForest>(RandomForestOptions{.num_trees = 15, .seed = 9});
    }
    if (name == "RandomTree") {
      return std::make_unique<RandomTree>(RandomTreeOptions{.seed = 9});
    }
    return std::make_unique<HoeffdingTree>(HoeffdingTreeOptions{.grace_period = 25});
  }
};

TEST_P(AllClassifiersTest, BeatsMajorityBaseline) {
  // 3000 instances so that even the stream learner (Hoeffding bound needs
  // thousands of observations per split) has room to grow.
  Dataset train = BandedDataset(3000, 5, 53, /*noise=*/0.05);
  Dataset test = BandedDataset(300, 5, 59, /*noise=*/0.05);
  auto model = Make();
  ASSERT_TRUE(model->Train(train).ok());

  const auto train_dist = train.ClassDistribution();
  const int majority = static_cast<int>(ArgMax(train_dist));
  int model_ok = 0;
  int baseline_ok = 0;
  for (const auto& inst : test.instances()) {
    model_ok += model->Predict(inst.features) == inst.label;
    baseline_ok += majority == inst.label;
  }
  EXPECT_GT(model_ok, baseline_ok) << model->Name();
}

TEST_P(AllClassifiersTest, PredictionInRange) {
  Dataset train = BandedDataset(400, 5, 61);
  auto model = Make();
  ASSERT_TRUE(model->Train(train).ok());
  Rng rng(67);
  for (int i = 0; i < 100; ++i) {
    const int p =
        model->Predict({rng.Uniform(10, 100), rng.Uniform(10, 100), rng.Uniform(0, 4)});
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 5);
  }
}

INSTANTIATE_TEST_SUITE_P(Table1Algorithms, AllClassifiersTest,
                         ::testing::Values("J48", "RandomForest", "RandomTree",
                                           "HoeffdingTree"));

// ---- J48 tree goldens ---------------------------------------------------------
//
// FNV-64 digests of trained trees' hexfloat dumps (SerializeJ48), pinned in
// testdata/goldens/j48_trees.txt. The dump holds every threshold and class
// weight bit for bit, so a change to the split search that moves one
// floating-point result shows here. Re-bless with tools/update_goldens.py
// (OFC_UPDATE_GOLDENS=1 rewrites the file instead of comparing).

bool UpdateGoldens() {
  const char* env = std::getenv("OFC_UPDATE_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string TreeDigest(const J48& model) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis.
  for (const unsigned char c : SerializeJ48(model)) {
    h ^= c;
    h *= 0x00000100000001b3ULL;  // FNV prime.
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// Missing values in both features, tied x values, and non-unit weights: the
// fractional-instance paths where summation order is easiest to disturb.
Dataset TiedWeightedMissingDataset() {
  Dataset data(TwoFeatureSchema());
  Rng rng(211);
  for (int i = 0; i < 500; ++i) {
    const double x = std::round(rng.Uniform(0.0, 10.0) * 4.0) / 4.0;
    const double color = static_cast<double>(rng.UniformInt(0, 2));
    const int label = (x > 5.0 && color != 2.0) != rng.Bernoulli(0.1) ? 1 : 0;
    const double weight = 0.5 * static_cast<double>(rng.UniformInt(1, 3));
    const double feature_x = rng.Bernoulli(0.2) ? kMissing : x;
    const double feature_color = rng.Bernoulli(0.1) ? kMissing : color;
    EXPECT_TRUE(data.Add({{feature_x, feature_color}, label, weight}).ok());
  }
  return data;
}

// The split-search corpus: seeded datasets aimed at the numeric threshold
// scan. The cases vary what the scan's arithmetic depends on: classes
// present (up to 40 of the 128 memory intervals, or two), instance weights,
// missing values (children then receive fractional descents), runs of tied
// values, and n from 4 to 1,600. Every case also carries attributes with
// exactly one boundary (`flag`, eligible wherever both values keep a leaf's
// weight), one boundary that is never eligible (`rare`: one instance of
// weight 1.0 differs) and none (`constant`).
enum class ScanWeights { kUnit, kCurated, kFractional };

struct ScanCase {
  const char* name;
  int n;
  int num_classes;  // 128 (the memory intervals' schema) or 2.
  int present;      // Classes drawn, spread evenly over the schema's.
  ScanWeights weights;
  double missing;  // Chance that x, and independently y, is missing.
  int x_levels;    // 0: continuous x; else x takes this many values.
};

constexpr ScanCase kScanCases[] = {
    {"scan.c128.k2.n40.curated", 40, 128, 2, ScanWeights::kCurated, 0.0, 0},
    {"scan.c128.k5.n4.curated", 4, 128, 5, ScanWeights::kCurated, 0.0, 0},
    {"scan.c128.k5.n150.curated", 150, 128, 5, ScanWeights::kCurated, 0.0, 0},
    {"scan.c128.k12.n600.curated", 600, 128, 12, ScanWeights::kCurated, 0.0, 0},
    {"scan.c128.k40.n1600.curated", 1600, 128, 40, ScanWeights::kCurated, 0.0, 0},
    {"scan.c128.k40.n600.unit.ties", 600, 128, 40, ScanWeights::kUnit, 0.0, 6},
    {"scan.c128.k20.n1600.curated.ties", 1600, 128, 20, ScanWeights::kCurated, 0.0, 12},
    {"scan.c128.k12.n1600.unit.missing", 1600, 128, 12, ScanWeights::kUnit, 0.2, 0},
    {"scan.c128.k12.n600.fractional.missing", 600, 128, 12, ScanWeights::kFractional, 0.2,
     0},
    {"scan.c128.k30.n1600.fractional.missing.ties", 1600, 128, 30,
     ScanWeights::kFractional, 0.15, 9},
    {"scan.c2.n4.unit", 4, 2, 2, ScanWeights::kUnit, 0.0, 0},
    {"scan.c2.n9.curated", 9, 2, 2, ScanWeights::kCurated, 0.0, 0},
    {"scan.c2.n40.unit.ties", 40, 2, 2, ScanWeights::kUnit, 0.0, 3},
    {"scan.c2.n600.curated", 600, 2, 2, ScanWeights::kCurated, 0.0, 0},
    {"scan.c2.n1600.curated.ties", 1600, 2, 2, ScanWeights::kCurated, 0.0, 4},
    {"scan.c2.n150.fractional.missing", 150, 2, 2, ScanWeights::kFractional, 0.25, 0},
    {"scan.c2.n1600.fractional.missing.ties", 1600, 2, 2, ScanWeights::kFractional, 0.1,
     20},
};

Dataset ScanDataset(const ScanCase& c, std::uint64_t seed) {
  std::vector<std::string> class_names;
  for (int i = 0; i < c.num_classes; ++i) {
    class_names.push_back("m" + std::to_string(i));
  }
  Schema schema({Attribute::Numeric("x"), Attribute::Numeric("y"), Attribute::Numeric("flag"),
                 Attribute::Numeric("rare"), Attribute::Numeric("constant"),
                 Attribute::Nominal("color", {"red", "green", "blue"})},
                Attribute::Nominal("class", class_names));
  Dataset data(schema);
  Rng rng(seed);
  const int stride = c.num_classes / c.present;
  for (int i = 0; i < c.n; ++i) {
    const double x = c.x_levels > 0
                         ? static_cast<double>(rng.UniformInt(0, c.x_levels - 1))
                         : rng.Uniform(0.0, 100.0);
    const double x_scale = c.x_levels > 0 ? static_cast<double>(c.x_levels) : 100.0;
    const double y = std::round(rng.Uniform(0.0, 8.0));
    const double flag = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    const double color = static_cast<double>(rng.UniformInt(0, 2));
    const double score = 0.6 * x / x_scale + 0.3 * y / 8.0 + 0.1 * flag;
    int band = std::clamp(static_cast<int>(score * c.present), 0, c.present - 1);
    if (rng.Bernoulli(0.15)) {
      band = static_cast<int>(rng.UniformInt(0, c.present - 1));
    }
    double weight = 1.0;
    if (c.weights == ScanWeights::kCurated) {
      weight = rng.Bernoulli(0.3) ? 2.0 : 1.0;
    } else if (c.weights == ScanWeights::kFractional) {
      weight = rng.Uniform(0.1, 3.0);
    }
    const bool rare = i == 0;
    EXPECT_TRUE(data.Add({{rng.Bernoulli(c.missing) ? kMissing : x,
                           rng.Bernoulli(c.missing) ? kMissing : y, flag, rare ? 1.0 : 0.0,
                           3.0, color},
                          band * stride,
                          rare ? 1.0 : weight})
                    .ok());
  }
  return data;
}

// Mirror-image sets: the classes and weights along x read the same from both
// ends, so each boundary's exact gain ties bit for bit with its mirror's
// (whole weights keep every class weight exact, and the sum of the two branch
// terms is the same in either order), while the scan reaches the two from
// opposite ends. The first of the tied boundaries must win.
Dataset MirrorDataset(int half, int num_classes, int present, std::uint64_t seed) {
  std::vector<std::string> class_names;
  for (int i = 0; i < num_classes; ++i) {
    class_names.push_back("m" + std::to_string(i));
  }
  Dataset data(Schema({Attribute::Numeric("x")}, Attribute::Nominal("class", class_names)));
  Rng rng(seed);
  std::vector<std::pair<int, double>> side;  // (label, weight) of the first half.
  int label = 0;
  for (int i = 0; i < half; ++i) {
    if (rng.Bernoulli(0.2)) {
      label = static_cast<int>(rng.UniformInt(0, present - 1)) * (num_classes / present);
    }
    side.emplace_back(label, rng.Bernoulli(0.3) ? 2.0 : 1.0);
  }
  for (int i = 0; i < 2 * half; ++i) {
    const auto& [cls, weight] = side[static_cast<std::size_t>(i < half ? i : 2 * half - 1 - i)];
    EXPECT_TRUE(data.Add({{static_cast<double>(i)}, cls, weight}).ok());
  }
  return data;
}

std::map<std::string, std::string> GoldenTreeDigests() {
  std::map<std::string, std::string> digests;
  std::uint64_t seed = 3001;
  for (const ScanCase& c : kScanCases) {
    J48 model;
    EXPECT_TRUE(model.Train(ScanDataset(c, seed++)).ok()) << c.name;
    digests[c.name] = TreeDigest(model);
  }
  for (const auto& [half, num_classes, present] :
       {std::tuple{20, 2, 2}, std::tuple{100, 2, 2}, std::tuple{400, 2, 2},
        std::tuple{60, 128, 5}, std::tuple{300, 128, 12}, std::tuple{800, 128, 40}}) {
    for (int round = 0; round < 2; ++round) {
      J48 model;
      EXPECT_TRUE(model.Train(MirrorDataset(half, num_classes, present, seed++)).ok());
      digests["mirror.c" + std::to_string(num_classes) + ".k" + std::to_string(present) +
              ".n" + std::to_string(2 * half) + "." + std::to_string(round)] =
          TreeDigest(model);
    }
  }
  J48 missing_x;
  EXPECT_TRUE(missing_x.Train(MissingXDataset()).ok());
  digests["missing_x"] = TreeDigest(missing_x);
  J48 tied_weighted_missing;
  EXPECT_TRUE(tied_weighted_missing.Train(TiedWeightedMissingDataset()).ok());
  digests["tied_weighted_missing"] = TreeDigest(tied_weighted_missing);

  // Both trees of a FunctionModel pretrained past the 1,500-sample cap, one
  // function per input kind: the 128-interval memory tree over the curated
  // set's mixed 1.0 / 2.0 weights, and the two-class benefit tree.
  core::ModelRegistry registry((core::ModelConfig()));
  core::ModelTrainer trainer(&registry, store::StoreProfile::Swift());
  for (const char* function : {"wand_sepia", "audio_compress", "video_grayscale",
                               "text_summarize"}) {
    Rng rng(2024);
    trainer.Pretrain(*workloads::FindFunction(function), 1600, rng);
    const core::FunctionModel* model = registry.Find(function);
    EXPECT_TRUE(model->trained());
    digests[std::string(function) + ".memory"] = TreeDigest(model->memory_model());
    digests[std::string(function) + ".benefit"] = TreeDigest(model->benefit_model());
  }
  return digests;
}

TEST(J48GoldenTest, TreesMatchGoldens) {
  const std::map<std::string, std::string> actual = GoldenTreeDigests();
  const std::filesystem::path path =
      std::filesystem::path(OFC_TESTDATA_DIR) / "goldens" / "j48_trees.txt";
  if (UpdateGoldens()) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const auto& [name, digest] : actual) {
      out << name << ' ' << digest << '\n';
    }
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run tools/update_goldens.py to bless it";
  std::map<std::string, std::string> expected;
  std::string name;
  std::string digest;
  while (in >> name >> digest) {
    expected[name] = digest;
  }
  EXPECT_EQ(expected.size(), actual.size());
  for (const auto& [tree, value] : actual) {
    EXPECT_EQ(expected[tree], value) << "tree " << tree << " changed";
  }
}

}  // namespace
}  // namespace ofc::ml
