// Tabular dataset representation for the OFC decision-tree classifiers.
//
// Mirrors the paper's setting (§5.1.2): features are either numeric (file size,
// pixel dimensions, durations, function arguments...) or nominal (media format,
// codec, discrete argument values...). The class attribute is nominal; for the
// memory model the class values are *ordered* memory intervals, which is what
// makes exact-or-over (EO) accuracy meaningful.
#ifndef OFC_ML_DATASET_H_
#define OFC_ML_DATASET_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace ofc::ml {

enum class AttributeKind { kNumeric, kNominal };

struct Attribute {
  std::string name;
  AttributeKind kind = AttributeKind::kNumeric;
  // For nominal attributes: the ensemble of values (§5.1.2 — learned from the
  // retained training set). Feature vectors store the index into this list.
  std::vector<std::string> values;

  static Attribute Numeric(std::string name) {
    return Attribute{std::move(name), AttributeKind::kNumeric, {}};
  }
  static Attribute Nominal(std::string name, std::vector<std::string> values) {
    return Attribute{std::move(name), AttributeKind::kNominal, std::move(values)};
  }

  std::size_t num_values() const { return values.size(); }
};

// Feature schema plus the class attribute. Shared (by value; it is small) between
// a Dataset and the classifiers trained from it.
class Schema {
 public:
  Schema() = default;
  Schema(std::vector<Attribute> features, Attribute class_attribute)
      : features_(std::move(features)), class_attribute_(std::move(class_attribute)) {}

  std::size_t num_features() const { return features_.size(); }
  const Attribute& feature(std::size_t i) const { return features_[i]; }
  const std::vector<Attribute>& features() const { return features_; }
  const Attribute& class_attribute() const { return class_attribute_; }
  std::size_t num_classes() const { return class_attribute_.values.size(); }

  // Index of the named feature, or -1.
  int FeatureIndex(const std::string& name) const;

 private:
  std::vector<Attribute> features_;
  Attribute class_attribute_;
};

// One labelled example. Nominal features hold the value index as a double.
struct Instance {
  std::vector<double> features;
  int label = 0;
  double weight = 1.0;
};

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  std::size_t size() const { return instances_.size() - head_; }
  bool empty() const { return head_ == instances_.size(); }
  const Instance& instance(std::size_t i) const { return instances_[head_ + i]; }
  std::span<const Instance> instances() const {
    return std::span<const Instance>(instances_).subspan(head_);
  }

  // Validates feature arity and nominal ranges before accepting the instance.
  Status Add(Instance instance);

  // Drops the oldest instance in amortized O(1), for sets capped to their
  // most recent instances. Requires !empty().
  void PopFront();

  // Total instance weight.
  double TotalWeight() const;

  // Per-class weight distribution.
  std::vector<double> ClassDistribution() const;

  // Keeps only instances for which `keep(instance)` is true.
  template <typename Pred>
  Dataset Filter(Pred keep) const {
    Dataset out(schema_);
    for (const Instance& inst : instances()) {
      if (keep(inst)) {
        out.instances_.push_back(inst);
      }
    }
    return out;
  }

 private:
  Schema schema_;
  // Live instances are instances_[head_..]. PopFront() frees a dropped
  // instance's features at once and erases the dropped prefix when it reaches
  // an eighth of the live part: eight moves per pop on average, little slack.
  std::vector<Instance> instances_;
  std::size_t head_ = 0;
};

}  // namespace ofc::ml

#endif  // OFC_ML_DATASET_H_
