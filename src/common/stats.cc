#include "src/common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace ofc {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double SortedPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void Samples::EnsureSorted() const {
  if (merged_ == values_.size()) {
    return;
  }
  // Finite doubles are totally ordered, so merging the sorted new values into
  // the sorted prefix yields exactly the sequence a full re-sort would.
  // Mirroring values_' capacity reallocates only when values_ did, never per
  // query, and holds no more than values_ does.
  sorted_.reserve(values_.capacity());
  sorted_.insert(sorted_.end(), values_.begin() + static_cast<std::ptrdiff_t>(merged_),
                 values_.end());
  const auto mid = sorted_.begin() + static_cast<std::ptrdiff_t>(merged_);
  std::sort(mid, sorted_.end());
  std::inplace_merge(sorted_.begin(), mid, sorted_.end());
  merged_ = values_.size();
}

double Samples::Mean() const {
  if (values_.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double v : values_) {
    s += v;
  }
  return s / static_cast<double>(values_.size());
}

double Samples::Min() const {
  EnsureSorted();
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double Samples::Max() const {
  EnsureSorted();
  return sorted_.empty() ? 0.0 : sorted_.back();
}

double Samples::Percentile(double q) const {
  EnsureSorted();
  return SortedPercentile(sorted_, q);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)), counts_(buckets, 0) {
  assert(hi > lo);
  assert(buckets > 0);
}

void Histogram::Add(double x) {
  std::ptrdiff_t idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::BucketLow(std::size_t bucket) const {
  return lo_ + width_ * static_cast<double>(bucket);
}

double Histogram::BucketHigh(std::size_t bucket) const {
  return lo_ + width_ * static_cast<double>(bucket + 1);
}

std::string Histogram::ToString(const std::string& label) const {
  std::string out = label + " (n=" + std::to_string(total_) + ")\n";
  std::size_t max_count = 1;
  for (std::size_t c : counts_) {
    max_count = std::max(max_count, c);
  }
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const int bar = static_cast<int>(40.0 * static_cast<double>(counts_[i]) /
                                     static_cast<double>(max_count));
    std::snprintf(line, sizeof(line), "  [%10.2f, %10.2f) %8zu ", BucketLow(i), BucketHigh(i),
                  counts_[i]);
    out += line;
    out.append(static_cast<std::size_t>(bar), '#');
    out += '\n';
  }
  return out;
}

void SlidingTimeWindow::Add(SimTime now, double value) {
  Expire(now);
  samples_.emplace_back(now, value);
}

void SlidingTimeWindow::Expire(SimTime now) {
  while (!samples_.empty() && samples_.front().first < now - window_) {
    samples_.pop_front();
  }
}

double SlidingTimeWindow::MeanAt(SimTime now) {
  Expire(now);
  if (samples_.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (const auto& [t, v] : samples_) {
    s += v;
  }
  return s / static_cast<double>(samples_.size());
}

double SlidingTimeWindow::MaxAt(SimTime now) {
  Expire(now);
  double m = 0.0;
  bool first = true;
  for (const auto& [t, v] : samples_) {
    m = first ? v : std::max(m, v);
    first = false;
  }
  return m;
}

std::size_t SlidingTimeWindow::CountAt(SimTime now) {
  Expire(now);
  return samples_.size();
}

}  // namespace ofc
