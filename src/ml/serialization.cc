#include "src/ml/serialization.h"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace ofc::ml {

namespace {

// Doubles are written in round-trippable hex-float form.
void WriteDouble(std::ostream& out, double value) {
  out << std::hexfloat << value << std::defaultfloat << ' ';
}

Result<double> ReadDouble(std::istream& in) {
  // std::hexfloat extraction is unreliable across standard libraries; parse a
  // token with strtod, which accepts hex floats.
  std::string token;
  if (!(in >> token)) {
    return InvalidArgumentError("truncated double");
  }
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str()) {
    return InvalidArgumentError("malformed double: " + token);
  }
  return value;
}

Result<std::int64_t> ReadInt(std::istream& in) {
  std::int64_t value = 0;
  if (!(in >> value)) {
    return InvalidArgumentError("truncated integer");
  }
  return value;
}

}  // namespace

void WriteString(std::ostream& out, const std::string& value) {
  out << value.size() << ' ' << value << ' ';
}

Result<std::string> ReadString(std::istream& in) {
  std::size_t length = 0;
  if (!(in >> length)) {
    return InvalidArgumentError("truncated string length");
  }
  if (length > (1u << 20)) {
    return InvalidArgumentError("string too long");
  }
  in.get();  // The separating space.
  std::string value(length, '\0');
  in.read(value.data(), static_cast<std::streamsize>(length));
  if (in.gcount() != static_cast<std::streamsize>(length)) {
    return InvalidArgumentError("truncated string body");
  }
  return value;
}

namespace {

void WriteAttribute(std::ostream& out, const Attribute& attribute) {
  out << (attribute.kind == AttributeKind::kNominal ? 1 : 0) << ' ';
  WriteString(out, attribute.name);
  out << attribute.values.size() << ' ';
  for (const std::string& value : attribute.values) {
    WriteString(out, value);
  }
}

Result<Attribute> ReadAttribute(std::istream& in) {
  const auto kind = ReadInt(in);
  if (!kind.ok()) {
    return kind.status();
  }
  auto name = ReadString(in);
  if (!name.ok()) {
    return name.status();
  }
  const auto count = ReadInt(in);
  if (!count.ok()) {
    return count.status();
  }
  if (*count < 0 || *count > (1 << 20)) {
    return InvalidArgumentError("implausible nominal value count");
  }
  std::vector<std::string> values;
  values.reserve(static_cast<std::size_t>(*count));
  for (std::int64_t i = 0; i < *count; ++i) {
    auto value = ReadString(in);
    if (!value.ok()) {
      return value.status();
    }
    values.push_back(std::move(*value));
  }
  Attribute attribute;
  attribute.kind = *kind == 1 ? AttributeKind::kNominal : AttributeKind::kNumeric;
  attribute.name = std::move(*name);
  attribute.values = std::move(values);
  return attribute;
}

}  // namespace

void WriteSchema(std::ostream& out, const Schema& schema) {
  out << "schema " << schema.num_features() << ' ';
  for (const Attribute& attribute : schema.features()) {
    WriteAttribute(out, attribute);
  }
  WriteAttribute(out, schema.class_attribute());
}

Result<Schema> ReadSchema(std::istream& in) {
  std::string tag;
  if (!(in >> tag) || tag != "schema") {
    return InvalidArgumentError("missing schema tag");
  }
  const auto count = ReadInt(in);
  if (!count.ok()) {
    return count.status();
  }
  if (*count < 0 || *count > (1 << 16)) {
    return InvalidArgumentError("implausible feature count");
  }
  std::vector<Attribute> features;
  for (std::int64_t i = 0; i < *count; ++i) {
    auto attribute = ReadAttribute(in);
    if (!attribute.ok()) {
      return attribute.status();
    }
    features.push_back(std::move(*attribute));
  }
  auto class_attribute = ReadAttribute(in);
  if (!class_attribute.ok()) {
    return class_attribute.status();
  }
  return Schema(std::move(features), std::move(*class_attribute));
}

void WriteInstances(std::ostream& out, std::span<const Instance> instances) {
  out << "instances " << instances.size() << ' ';
  for (const Instance& instance : instances) {
    out << instance.label << ' ';
    WriteDouble(out, instance.weight);
    for (double feature : instance.features) {
      WriteDouble(out, feature);
    }
  }
}

Result<std::vector<Instance>> ReadInstances(std::istream& in, const Schema& schema) {
  std::string tag;
  if (!(in >> tag) || tag != "instances") {
    return InvalidArgumentError("missing instances tag");
  }
  const auto count = ReadInt(in);
  if (!count.ok()) {
    return count.status();
  }
  if (*count < 0 || *count > (1 << 24)) {
    return InvalidArgumentError("implausible instance count");
  }
  std::vector<Instance> instances;
  instances.reserve(static_cast<std::size_t>(*count));
  for (std::int64_t i = 0; i < *count; ++i) {
    Instance instance;
    const auto label = ReadInt(in);
    if (!label.ok()) {
      return label.status();
    }
    instance.label = static_cast<int>(*label);
    const auto weight = ReadDouble(in);
    if (!weight.ok()) {
      return weight.status();
    }
    instance.weight = *weight;
    instance.features.resize(schema.num_features());
    for (double& feature : instance.features) {
      const auto value = ReadDouble(in);
      if (!value.ok()) {
        return value.status();
      }
      feature = *value;
    }
    instances.push_back(std::move(instance));
  }
  return instances;
}

void WriteJ48(std::ostream& out, const J48& model) {
  out << "j48 " << (model.root_ != nullptr ? 1 : 0) << ' ';
  if (model.root_ == nullptr) {
    return;
  }
  WriteSchema(out, model.schema_);
  // Preorder tree dump.
  struct Writer {
    std::ostream& out;
    void Visit(const J48::Node* node) {
      out << node->attr << ' ' << (node->numeric_split ? 1 : 0) << ' ';
      WriteDouble(out, node->threshold);
      out << node->majority << ' ';
      WriteDouble(out, node->weight);
      out << node->class_dist.size() << ' ';
      for (double d : node->class_dist) {
        WriteDouble(out, d);
      }
      out << node->children.size() << ' ';
      for (const auto& child : node->children) {
        Visit(child.get());
      }
    }
  };
  Writer{out}.Visit(model.root_.get());
}

Result<J48> ReadJ48(std::istream& in) {
  std::string tag;
  if (!(in >> tag) || tag != "j48") {
    return InvalidArgumentError("missing j48 tag");
  }
  const auto trained = ReadInt(in);
  if (!trained.ok()) {
    return trained.status();
  }
  J48 model;
  if (*trained == 0) {
    return model;
  }
  auto schema = ReadSchema(in);
  if (!schema.ok()) {
    return schema.status();
  }

  struct Reader {
    std::istream& in;
    Status error;
    std::unique_ptr<J48::Node> Visit(int depth) {
      if (!error.ok() || depth > 256) {
        if (error.ok()) {
          error = InvalidArgumentError("tree too deep");
        }
        return nullptr;
      }
      auto node = std::make_unique<J48::Node>();
      std::int64_t numeric = 0;
      std::size_t dist_size = 0;
      std::size_t child_count = 0;
      if (!(in >> node->attr >> numeric)) {
        error = InvalidArgumentError("truncated node header");
        return nullptr;
      }
      const auto threshold = ReadDouble(in);
      if (!threshold.ok()) {
        error = threshold.status();
        return nullptr;
      }
      node->numeric_split = numeric == 1;
      node->threshold = *threshold;
      if (!(in >> node->majority)) {
        error = InvalidArgumentError("truncated node majority");
        return nullptr;
      }
      const auto weight = ReadDouble(in);
      if (!weight.ok()) {
        error = weight.status();
        return nullptr;
      }
      node->weight = *weight;
      if (!(in >> dist_size) || dist_size > (1u << 16)) {
        error = InvalidArgumentError("bad class distribution size");
        return nullptr;
      }
      node->class_dist.resize(dist_size);
      for (double& d : node->class_dist) {
        const auto value = ReadDouble(in);
        if (!value.ok()) {
          error = value.status();
          return nullptr;
        }
        d = *value;
      }
      if (!(in >> child_count) || child_count > (1u << 16)) {
        error = InvalidArgumentError("bad child count");
        return nullptr;
      }
      for (std::size_t c = 0; c < child_count; ++c) {
        auto child = Visit(depth + 1);
        if (!error.ok()) {
          return nullptr;
        }
        node->children.push_back(std::move(child));
      }
      return node;
    }
  };
  Reader reader{in, OkStatus()};
  auto root = reader.Visit(0);
  if (!reader.error.ok()) {
    return reader.error;
  }
  model.schema_ = std::move(*schema);
  model.trained_ = true;
  model.root_ = std::move(root);
  return model;
}

std::string SerializeJ48(const J48& model) {
  std::ostringstream out;
  WriteJ48(out, model);
  return out.str();
}

Result<J48> DeserializeJ48(const std::string& data) {
  std::istringstream in(data);
  return ReadJ48(in);
}

}  // namespace ofc::ml
