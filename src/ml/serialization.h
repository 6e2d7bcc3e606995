// A text dump of trained J48 trees, kept for the J48 tree goldens
// (tests/ml_test.cpp hashes it against testdata/goldens/j48_trees.txt).
//
// Token-based and whitespace-separated, with length-prefixed strings and
// doubles in hex-float form, so the dump holds every threshold and class
// weight bit for bit and a change to one floating-point result shows.
#ifndef OFC_ML_SERIALIZATION_H_
#define OFC_ML_SERIALIZATION_H_

#include <iosfwd>
#include <string>

#include "src/ml/j48.h"

namespace ofc::ml {

// Dumps a trained model (schema + preorder tree). An untrained model dumps to
// a marker.
std::string SerializeJ48(const J48& model);

void WriteJ48(std::ostream& out, const J48& model);

}  // namespace ofc::ml

#endif  // OFC_ML_SERIALIZATION_H_
