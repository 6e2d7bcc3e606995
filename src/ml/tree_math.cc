#include "src/ml/tree_math.h"

#include <cassert>
#include <cmath>

namespace ofc::ml {

double Log2(double x) { return std::log(x) * 1.4426950408889634; }

double XLog2X(double x) { return x > 0.0 ? x * Log2(x) : 0.0; }

double WeightSum(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  return total;
}

namespace {

// Entropy of `class_weights` given their WeightSum().
double EntropyOfSum(std::span<const double> class_weights, double total) {
  if (total <= 0.0) {
    return 0.0;
  }
  double h = 0.0;
  for (double w : class_weights) {
    if (w > 0.0) {
      const double p = w / total;
      h -= p * Log2(p);
    }
  }
  return h;
}

}  // namespace

double Entropy(std::span<const double> class_weights) {
  return EntropyOfSum(class_weights, WeightSum(class_weights));
}

double PartitionEntropy(std::span<const double> branch_class_weights, std::size_t num_classes) {
  assert(num_classes > 0 && branch_class_weights.size() % num_classes == 0);
  const double total = WeightSum(branch_class_weights);
  if (total <= 0.0) {
    return 0.0;
  }
  double h = 0.0;
  for (std::size_t at = 0; at < branch_class_weights.size(); at += num_classes) {
    const std::span<const double> branch = branch_class_weights.subspan(at, num_classes);
    const double branch_total = WeightSum(branch);
    if (branch_total > 0.0) {
      h += branch_total / total * EntropyOfSum(branch, branch_total);
    }
  }
  return h;
}

double SplitInformation(std::span<const double> branch_class_weights, std::size_t num_classes) {
  assert(num_classes > 0 && branch_class_weights.size() % num_classes == 0);
  // The total adds branch totals (not single weights); each branch total is
  // recomputed in the second pass rather than stored, and comes out the same.
  double total = 0.0;
  for (std::size_t at = 0; at < branch_class_weights.size(); at += num_classes) {
    total += WeightSum(branch_class_weights.subspan(at, num_classes));
  }
  if (total <= 0.0) {
    return 0.0;
  }
  double si = 0.0;
  for (std::size_t at = 0; at < branch_class_weights.size(); at += num_classes) {
    const double branch_total = WeightSum(branch_class_weights.subspan(at, num_classes));
    if (branch_total > 0.0) {
      const double p = branch_total / total;
      si -= p * Log2(p);
    }
  }
  return si;
}

double NormalInverse(double p) {
  assert(p > 0.0 && p < 1.0);
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kLow = 0.02425;
  constexpr double kHigh = 1.0 - kLow;
  double q;
  double r;
  if (p < kLow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= kHigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double PessimisticExtraErrors(double n, double e, double confidence) {
  if (n <= 0.0) {
    return 0.0;
  }
  // Mirrors Weka's weka.core.Utils-style Stats.addErrs.
  if (e < 1.0) {
    const double base = n * (1.0 - std::pow(confidence, 1.0 / n));
    if (e == 0.0) {
      return base;
    }
    return base + e * (PessimisticExtraErrors(n, 1.0, confidence) - base);
  }
  if (e + 0.5 >= n) {
    return std::max(n - e, 0.0);
  }
  const double z = NormalInverse(1.0 - confidence);
  const double f = (e + 0.5) / n;
  const double r =
      (f + z * z / (2.0 * n) + z * std::sqrt(f / n - f * f / n + z * z / (4.0 * n * n))) /
      (1.0 + z * z / n);
  return r * n - e;
}

std::size_t ArgMax(const std::vector<double>& values) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[best]) {
      best = i;
    }
  }
  return best;
}

}  // namespace ofc::ml
