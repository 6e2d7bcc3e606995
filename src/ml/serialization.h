// Serialization for schemas, datasets and J48 models.
//
// The paper stores each function's models in OpenWhisk's metadata database
// (CouchDB, §5.1): when a function is invoked and OWK fetches its metadata, the
// model comes along. This module provides the compact text encoding those
// documents use — token-based, whitespace-separated, with length-prefixed
// strings, so round trips are exact and the format is diffable.
#ifndef OFC_ML_SERIALIZATION_H_
#define OFC_ML_SERIALIZATION_H_

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/ml/dataset.h"
#include "src/ml/j48.h"

namespace ofc::ml {

// ---- Primitives ------------------------------------------------------------------

// Length-prefixed string ("4 jpeg"); survives embedded whitespace.
void WriteString(std::ostream& out, const std::string& value);
Result<std::string> ReadString(std::istream& in);

// ---- Schema ----------------------------------------------------------------------

void WriteSchema(std::ostream& out, const Schema& schema);
Result<Schema> ReadSchema(std::istream& in);

// ---- Instances (training-set persistence) ------------------------------------------

void WriteInstances(std::ostream& out, std::span<const Instance> instances);
Result<std::vector<Instance>> ReadInstances(std::istream& in, const Schema& schema);

// ---- J48 --------------------------------------------------------------------------

// Serializes a trained model (schema + tree). Untrained models serialize to a
// marker that deserializes back into an untrained model.
std::string SerializeJ48(const J48& model);
Result<J48> DeserializeJ48(const std::string& data);

void WriteJ48(std::ostream& out, const J48& model);
Result<J48> ReadJ48(std::istream& in);

}  // namespace ofc::ml

#endif  // OFC_ML_SERIALIZATION_H_
