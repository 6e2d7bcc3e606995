// TimelineRecorder: windowed time-series scrapes of the MetricsRegistry.
//
// The end-of-run snapshot collapses a whole run into totals; the timeline
// recorder instead scrapes the registry on a periodic sim-clock timer (see
// sim::PeriodicTask) and keeps a bounded ring of *windows*. Each window stores,
// per cell:
//   * counters — cumulative value, the delta over the window, and the rate/s
//     (delta is reset-safe: a value that shrank is treated as a restart and
//     the post-reset value becomes the delta);
//   * gauges   — the instantaneous value at scrape time;
//   * series   — cumulative count, the window's observation delta, the exact
//     interval mean (from the RunningStat sum delta), interval p50/p95/p99
//     over the stored-sample slice that arrived during the window, and the
//     whole-run p50/p99 for comparison. Once a series hits its stored-sample
//     cap, interval percentiles go quiet (no new stored samples) while the
//     interval mean stays exact.
//
// Per series, a scrape sorts the window's new stored samples once for all
// three interval percentiles, and the run percentiles merge those same samples
// into the series' sorted view (Samples keeps it incrementally). A scrape thus
// costs O(new log new + stored) per series, not a re-sort of every stored
// sample.
//
// Windows evict oldest-first at capacity, so a long run keeps the most recent
// history at full resolution. Export is a machine-readable JSON document whose
// byte content is a pure function of the scrape sequence — the determinism
// selfcheck replays a run and diffs timelines byte-for-byte.
#ifndef OFC_OBS_TIMELINE_H_
#define OFC_OBS_TIMELINE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metrics.h"

namespace ofc::obs {

struct TimelineOptions {
  std::size_t max_windows = 512;  // Ring capacity; oldest windows evicted.
};

struct TimelineCounter {
  std::string name;
  std::string label;
  std::uint64_t value = 0;  // Cumulative at window end.
  std::uint64_t delta = 0;  // Increase over this window (reset-safe).
  double rate_per_s = 0.0;
};

struct TimelineGauge {
  std::string name;
  std::string label;
  double value = 0.0;
};

struct TimelineSeries {
  std::string name;
  std::string label;
  std::uint64_t count = 0;  // Cumulative observation count at window end.
  std::uint64_t delta = 0;  // Observations during this window.
  double interval_mean = 0.0;  // Exact (sum delta / count delta).
  // Percentiles over stored samples that arrived during this window; 0 when
  // the window saw no stored samples (quiet window or capped storage).
  double interval_p50 = 0.0;
  double interval_p95 = 0.0;
  double interval_p99 = 0.0;
  // Whole-run percentiles at window end, for drift comparison.
  double run_p50 = 0.0;
  double run_p99 = 0.0;
};

struct TimelineWindow {
  std::uint64_t index = 0;  // Monotonic scrape index (survives eviction).
  SimTime start = 0;        // Previous scrape time (0 for the first window).
  SimTime end = 0;          // Scrape time.
  std::vector<TimelineCounter> counters;
  std::vector<TimelineGauge> gauges;
  std::vector<TimelineSeries> series;
};

class TimelineRecorder {
 public:
  // `registry` must outlive the recorder.
  explicit TimelineRecorder(const MetricsRegistry* registry, TimelineOptions options = {});
  TimelineRecorder(const TimelineRecorder&) = delete;
  TimelineRecorder& operator=(const TimelineRecorder&) = delete;

  // Captures one window covering (last scrape, now]. Cell order inside the
  // window follows registry (family, label) order, so output is deterministic.
  void Scrape(SimTime now);

  const std::deque<TimelineWindow>& windows() const { return windows_; }
  std::uint64_t total_windows() const { return next_index_; }
  std::uint64_t evicted() const { return next_index_ - windows_.size(); }

  // Convenience for tests and health checks: the counter delta recorded in a
  // retained window (0 if the window/cell is absent).
  std::uint64_t CounterDelta(std::uint64_t window_index, const std::string& name,
                             const std::string& label = "") const;

  // {"total_windows": N, "evicted": M, "windows": [...]}
  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;

 private:
  struct PrevCounter {
    std::uint64_t value = 0;
  };
  struct PrevSeries {
    std::size_t count = 0;          // RunningStat count at last scrape.
    double sum = 0.0;               // RunningStat sum at last scrape.
    std::size_t stored_count = 0;   // Stored-sample count at last scrape.
  };

  const MetricsRegistry* registry_;
  TimelineOptions options_;
  std::deque<TimelineWindow> windows_;
  std::uint64_t next_index_ = 0;
  SimTime last_scrape_ = 0;
  bool scraped_once_ = false;
  // Keyed "name\0label"; std::map for deterministic iteration if ever needed.
  std::map<std::string, PrevCounter> prev_counters_;
  std::map<std::string, PrevSeries> prev_series_;
};

}  // namespace ofc::obs

#endif  // OFC_OBS_TIMELINE_H_
