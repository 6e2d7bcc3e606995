// Shared information-theory and statistics helpers for the tree learners.
#ifndef OFC_ML_TREE_MATH_H_
#define OFC_ML_TREE_MATH_H_

#include <cstddef>
#include <span>
#include <vector>

namespace ofc::ml {

// log2(x) as the tree learners compute it, ln(x) / ln(2); trees are pinned
// bit for bit to this rounding.
double Log2(double x);

// x * Log2(x), and 0 for x <= 0 (an empty class adds nothing to an entropy).
// Entropies are sums of these terms: T * H(w) = XLog2X(T) - sum XLog2X(w_c)
// for weights w_c summing to T.
double XLog2X(double x);

// Sum of the weights, added in order.
double WeightSum(std::span<const double> weights);

// Shannon entropy (bits) of a weight distribution. Zero-weight distributions
// have zero entropy.
double Entropy(std::span<const double> class_weights);

// The partition helpers below read the per-branch class weights as one
// row-major branches x `num_classes` matrix, so callers can keep them in a
// reused buffer; neither allocates. Zero entries contribute exact +0.0 to
// every sum, so a caller may drop the columns of classes absent from all
// branches without changing any result bit.

// Entropy of a partition: sum over branches of (w_branch / w_total) * H(branch).
double PartitionEntropy(std::span<const double> branch_class_weights, std::size_t num_classes);

// Split information term used by the C4.5 gain ratio: entropy of branch sizes.
double SplitInformation(std::span<const double> branch_class_weights, std::size_t num_classes);

// Inverse of the standard normal CDF (Acklam's rational approximation; relative
// error < 1.15e-9). Used by the pessimistic error estimate.
double NormalInverse(double p);

// Weka-compatible pessimistic additional-error estimate: given a leaf covering
// N (weighted) instances with e (weighted) errors, returns the extra errors to
// add so the estimate is an upper confidence bound at level (1 - confidence).
// C4.5's default confidence factor is 0.25.
double PessimisticExtraErrors(double n, double e, double confidence);

// argmax over a distribution (first index on ties).
std::size_t ArgMax(const std::vector<double>& values);

}  // namespace ofc::ml

#endif  // OFC_ML_TREE_MATH_H_
