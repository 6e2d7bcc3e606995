#include "src/ml/dataset.h"

#include <cassert>
#include <cmath>

namespace ofc::ml {

int Schema::FeatureIndex(const std::string& name) const {
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (features_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Status Dataset::Add(Instance instance) {
  if (instance.features.size() != schema_.num_features()) {
    return InvalidArgumentError("instance arity mismatch");
  }
  if (instance.label < 0 || static_cast<std::size_t>(instance.label) >= schema_.num_classes()) {
    return InvalidArgumentError("label out of range");
  }
  for (std::size_t i = 0; i < instance.features.size(); ++i) {
    const Attribute& attr = schema_.feature(i);
    const double v = instance.features[i];
    if (std::isnan(v)) {
      continue;  // NaN encodes a missing value (handled by C4.5's fractional split).
    }
    if (attr.kind == AttributeKind::kNominal) {
      if (v != std::floor(v) || v < 0 || static_cast<std::size_t>(v) >= attr.num_values()) {
        return InvalidArgumentError("nominal value out of range for " + attr.name);
      }
    }
  }
  if (instance.weight <= 0) {
    return InvalidArgumentError("non-positive instance weight");
  }
  instances_.push_back(std::move(instance));
  return OkStatus();
}

void Dataset::PopFront() {
  assert(!empty());
  instances_[head_++] = Instance{};
  if (head_ * 8 >= size()) {
    instances_.erase(instances_.begin(),
                     instances_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

double Dataset::TotalWeight() const {
  double total = 0.0;
  for (const Instance& inst : instances()) {
    total += inst.weight;
  }
  return total;
}

std::vector<double> Dataset::ClassDistribution() const {
  std::vector<double> dist(schema_.num_classes(), 0.0);
  for (const Instance& inst : instances()) {
    dist[static_cast<std::size_t>(inst.label)] += inst.weight;
  }
  return dist;
}

}  // namespace ofc::ml
