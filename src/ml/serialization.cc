#include "src/ml/serialization.h"

#include <ostream>
#include <sstream>

namespace ofc::ml {

namespace {

// Doubles are written in round-trippable hex-float form.
void WriteDouble(std::ostream& out, double value) {
  out << std::hexfloat << value << std::defaultfloat << ' ';
}

// Length-prefixed string ("4 jpeg"); survives embedded whitespace.
void WriteString(std::ostream& out, const std::string& value) {
  out << value.size() << ' ' << value << ' ';
}

void WriteAttribute(std::ostream& out, const Attribute& attribute) {
  out << (attribute.kind == AttributeKind::kNominal ? 1 : 0) << ' ';
  WriteString(out, attribute.name);
  out << attribute.values.size() << ' ';
  for (const std::string& value : attribute.values) {
    WriteString(out, value);
  }
}

void WriteSchema(std::ostream& out, const Schema& schema) {
  out << "schema " << schema.num_features() << ' ';
  for (const Attribute& attribute : schema.features()) {
    WriteAttribute(out, attribute);
  }
  WriteAttribute(out, schema.class_attribute());
}

}  // namespace

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

std::string SerializeJ48(const J48& model) {
  std::ostringstream out;
  WriteJ48(out, model);
  return out.str();
}

}  // namespace ofc::ml
