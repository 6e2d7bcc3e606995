#include "src/obs/timeline.h"

#include <algorithm>
#include <cstdio>

#include "src/common/stats.h"
#include "src/obs/export_util.h"

namespace ofc::obs {

namespace {

std::string CellKey(const std::string& name, const std::string& label) {
  std::string key = name;
  key.push_back('\0');
  key += label;
  return key;
}

}  // namespace

TimelineRecorder::TimelineRecorder(const MetricsRegistry* registry, TimelineOptions options)
    : registry_(registry), options_(options) {
  if (options_.max_windows == 0) {
    options_.max_windows = 1;
  }
}

void TimelineRecorder::Scrape(SimTime now) {
  TimelineWindow window;
  window.index = next_index_++;
  window.start = scraped_once_ ? last_scrape_ : 0;
  window.end = now;
  const double window_s =
      window.end > window.start ? static_cast<double>(window.end - window.start) / 1e6 : 0.0;

  registry_->VisitCounters([&](const std::string& name, const std::string& label,
                               const Counter& cell) {
    TimelineCounter out;
    out.name = name;
    out.label = label;
    out.value = cell.value();
    PrevCounter& prev = prev_counters_[CellKey(name, label)];
    // Reset-safe: a counter that moved backwards was Reset(); everything since
    // the reset counts as this window's delta.
    out.delta = out.value >= prev.value ? out.value - prev.value : out.value;
    out.rate_per_s = window_s > 0.0 ? static_cast<double>(out.delta) / window_s : 0.0;
    prev.value = out.value;
    window.counters.push_back(std::move(out));
  });

  registry_->VisitGauges(
      [&](const std::string& name, const std::string& label, const Gauge& cell) {
        TimelineGauge out;
        out.name = name;
        out.label = label;
        out.value = cell.value();
        window.gauges.push_back(std::move(out));
      });

  std::vector<double> slice;  // Reused across series.
  registry_->VisitSeries([&](const std::string& name, const std::string& label,
                             const Series& cell) {
    TimelineSeries out;
    out.name = name;
    out.label = label;
    out.count = cell.count();
    PrevSeries& prev = prev_series_[CellKey(name, label)];
    const bool reset = cell.count() < prev.count;
    const std::size_t prev_count = reset ? 0 : prev.count;
    const double prev_sum = reset ? 0.0 : prev.sum;
    const std::size_t prev_stored = reset ? 0 : prev.stored_count;
    out.delta = static_cast<std::uint64_t>(cell.count() - prev_count);
    if (out.delta > 0) {
      out.interval_mean = (cell.sum() - prev_sum) / static_cast<double>(out.delta);
    }
    const std::vector<double>& stored = cell.samples().values();
    if (stored.size() > prev_stored) {
      slice.assign(stored.begin() + static_cast<std::ptrdiff_t>(prev_stored), stored.end());
      std::sort(slice.begin(), slice.end());
      out.interval_p50 = SortedPercentile(slice, 0.50);
      out.interval_p95 = SortedPercentile(slice, 0.95);
      out.interval_p99 = SortedPercentile(slice, 0.99);
    }
    out.run_p50 = cell.samples().Percentile(0.50);
    out.run_p99 = cell.samples().Percentile(0.99);
    prev.count = cell.count();
    prev.sum = cell.sum();
    prev.stored_count = stored.size();
    window.series.push_back(std::move(out));
  });

  last_scrape_ = now;
  scraped_once_ = true;
  if (windows_.size() >= options_.max_windows) {
    windows_.pop_front();
  }
  windows_.push_back(std::move(window));
}

std::uint64_t TimelineRecorder::CounterDelta(std::uint64_t window_index, const std::string& name,
                                             const std::string& label) const {
  for (const TimelineWindow& window : windows_) {
    if (window.index != window_index) {
      continue;
    }
    for (const TimelineCounter& cell : window.counters) {
      if (cell.name == name && cell.label == label) {
        return cell.delta;
      }
    }
  }
  return 0;
}

std::string TimelineRecorder::ToJson() const {
  std::string out = "{\"total_windows\": " + std::to_string(next_index_);
  out += ", \"evicted\": " + std::to_string(evicted());
  out += ", \"windows\": [";
  bool first_window = true;
  for (const TimelineWindow& window : windows_) {
    if (!first_window) {
      out += ",";
    }
    first_window = false;
    out += "\n{\"index\": " + std::to_string(window.index);
    out += ", \"start_us\": " + std::to_string(window.start);
    out += ", \"end_us\": " + std::to_string(window.end);
    out += ", \"counters\": [";
    bool first = true;
    for (const TimelineCounter& cell : window.counters) {
      if (!first) {
        out += ", ";
      }
      first = false;
      out += "{\"name\": \"" + JsonEscape(cell.name) + "\"";
      if (!cell.label.empty()) {
        out += ", \"label\": \"" + JsonEscape(cell.label) + "\"";
      }
      out += ", \"value\": " + std::to_string(cell.value);
      out += ", \"delta\": " + std::to_string(cell.delta);
      out += ", \"rate_per_s\": " + JsonNumber(cell.rate_per_s) + "}";
    }
    out += "], \"gauges\": [";
    first = true;
    for (const TimelineGauge& cell : window.gauges) {
      if (!first) {
        out += ", ";
      }
      first = false;
      out += "{\"name\": \"" + JsonEscape(cell.name) + "\"";
      if (!cell.label.empty()) {
        out += ", \"label\": \"" + JsonEscape(cell.label) + "\"";
      }
      out += ", \"value\": " + JsonNumber(cell.value) + "}";
    }
    out += "], \"series\": [";
    first = true;
    for (const TimelineSeries& cell : window.series) {
      if (!first) {
        out += ", ";
      }
      first = false;
      out += "{\"name\": \"" + JsonEscape(cell.name) + "\"";
      if (!cell.label.empty()) {
        out += ", \"label\": \"" + JsonEscape(cell.label) + "\"";
      }
      out += ", \"count\": " + std::to_string(cell.count);
      out += ", \"delta\": " + std::to_string(cell.delta);
      out += ", \"interval_mean\": " + JsonNumber(cell.interval_mean);
      out += ", \"interval_p50\": " + JsonNumber(cell.interval_p50);
      out += ", \"interval_p95\": " + JsonNumber(cell.interval_p95);
      out += ", \"interval_p99\": " + JsonNumber(cell.interval_p99);
      out += ", \"run_p50\": " + JsonNumber(cell.run_p50);
      out += ", \"run_p99\": " + JsonNumber(cell.run_p99) + "}";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

bool TimelineRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ToJson();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 && written == json.size();
}

}  // namespace ofc::obs
