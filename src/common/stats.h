// Small statistics toolkit: running summaries, percentile sketches over stored
// samples, fixed-bucket histograms, and sliding time windows.
//
// These back both the paper's measurements (e.g. Figure 6 percentiles, the §6.4
// memory-churn sliding window) and the bench harness output.
#ifndef OFC_COMMON_STATS_H_
#define OFC_COMMON_STATS_H_

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace ofc {

// Accumulates count/mean/min/max/variance without storing samples (Welford).
class RunningStat {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double variance() const;
  double stddev() const;
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// q in [0, 1] over an ascending `sorted`; linear interpolation between closest
// ranks. Empty -> 0.
double SortedPercentile(const std::vector<double>& sorted, double q);

// Stores all samples; exact percentiles over finite values. The sorted view is
// kept up to date incrementally: a query sorts only the values added since the
// previous query and merges them in, so querying after every k new samples
// costs O(k log k + count()) rather than a full re-sort.
class Samples {
 public:
  void Add(double x) { values_.push_back(x); }
  std::size_t count() const { return values_.size(); }
  double Mean() const;
  double Min() const;
  double Max() const;
  // q in [0, 1]; linear interpolation between closest ranks. Empty -> 0.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  // values_[0, merged_) in ascending order.
  mutable std::vector<double> sorted_;
  mutable std::size_t merged_ = 0;
  void EnsureSorted() const;
};

// Fixed-width bucket histogram over [lo, hi); out-of-range samples clamp to the
// first/last bucket. Used to render Figure 5/6-style distributions as text.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void Add(double x);
  std::size_t count(std::size_t bucket) const { return counts_[bucket]; }
  std::size_t total() const { return total_; }
  double BucketLow(std::size_t bucket) const;
  double BucketHigh(std::size_t bucket) const;

  // Multi-line ASCII rendering with per-bucket bars, for bench output.
  std::string ToString(const std::string& label) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

// Sliding window of (time, value) observations; supports querying aggregate
// statistics over the last `window` of simulated time. Backs the §6.4 slack-pool
// estimator (60 s churn samples, 120 s adjustment period).
class SlidingTimeWindow {
 public:
  explicit SlidingTimeWindow(SimDuration window) : window_(window) {}

  void Add(SimTime now, double value);
  // Drops samples older than `now - window`, then reports.
  double MeanAt(SimTime now);
  double MaxAt(SimTime now);
  std::size_t CountAt(SimTime now);

 private:
  void Expire(SimTime now);
  SimDuration window_;
  std::deque<std::pair<SimTime, double>> samples_;
};

}  // namespace ofc

#endif  // OFC_COMMON_STATS_H_
