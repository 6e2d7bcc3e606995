// MetricsRegistry: the unified metrics layer every component reports through.
//
// Components obtain named cells (counters, gauges, distribution series) from a
// shared registry at construction and bump them on the hot path with a plain
// pointer dereference — no locking (the simulator is single-threaded) and no
// string lookups after the first access. The registry is the only record of
// those counts: tests, benches and reports read a cell by family name through
// the read-side queries below, which create nothing, so reading never changes
// an export and Table 2 output cannot drift from the machine-readable exports.
//
// Naming scheme: `ofc.<component>.<name>` (e.g. `ofc.proxy.cache_hits`), with
// an optional label for per-function / per-worker breakdowns (rendered as
// `name{label}` in the CSV export).
//
// Exporters: SnapshotJson() (machine-readable, one object per metric family)
// and SnapshotCsv() (one row per cell). Distribution series reuse
// RunningStat/Samples from src/common/stats.h and report count/mean/min/max
// plus p50/p95/p99.
#ifndef OFC_OBS_METRICS_H_
#define OFC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/common/stats.h"
#include "src/common/units.h"

namespace ofc::obs {

// Monotonically increasing event count.
class Counter {
 public:
  Counter& operator++() {
    ++value_;
    return *this;
  }
  void Add(std::uint64_t n) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

// Point-in-time value (cache capacity, cumulative simulated time, ...).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

// Distribution of observations (latencies, sizes): Welford summary plus stored
// samples for exact percentiles. Sample storage is capped so long traced runs
// stay bounded; the RunningStat summary covers every observation regardless.
class Series {
 public:
  void Observe(double v) {
    running_.Add(v);
    if (samples_.count() < kMaxStoredSamples) {
      samples_.Add(v);
    }
  }
  std::size_t count() const { return running_.count(); }
  double sum() const { return running_.sum(); }
  const RunningStat& running() const { return running_; }
  const Samples& samples() const { return samples_; }
  void Reset() {
    running_ = RunningStat();
    samples_ = Samples();
  }

 private:
  static constexpr std::size_t kMaxStoredSamples = 1 << 16;
  RunningStat running_;
  Samples samples_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create; the returned pointer is stable for the registry's lifetime.
  // A family's kind is fixed by its first accessor (counter/gauge/series); the
  // label distinguishes cells within a family ("" = the unlabeled cell).
  Counter* GetCounter(const std::string& name, const std::string& label = "");
  Gauge* GetGauge(const std::string& name, const std::string& label = "");
  Series* GetSeries(const std::string& name, const std::string& label = "");

  // ---- Read-side queries (benches, tests, reports) -----------------------------
  //
  // None of these creates a family or a cell.

  // Value of one cell; 0 when the cell does not exist.
  std::uint64_t CounterValue(const std::string& name, const std::string& label = "") const;
  double GaugeValue(const std::string& name, const std::string& label = "") const;
  const Series* FindSeries(const std::string& name, const std::string& label = "") const;
  // Sum across all labels of a counter family.
  std::uint64_t CounterTotal(const std::string& name) const;

  // ---- Visitation (timeline scrapes) ---------------------------------------------
  //
  // Invokes the callback once per cell, in deterministic (family name, label)
  // order — the registry's own map order — so scrape output is reproducible.
  void VisitCounters(
      const std::function<void(const std::string& name, const std::string& label,
                               const Counter& cell)>& fn) const;
  void VisitGauges(const std::function<void(const std::string& name, const std::string& label,
                                            const Gauge& cell)>& fn) const;
  void VisitSeries(const std::function<void(const std::string& name, const std::string& label,
                                            const Series& cell)>& fn) const;

  // ---- Exporters ---------------------------------------------------------------

  // {"sim_time_us": N, "metrics": [{"name": ..., "type": ..., "cells": [...]}]}
  std::string SnapshotJson(SimTime now = 0) const;
  // Header row, then one row per cell:
  //   name,type,label,value,count,mean,min,max,p50,p95,p99
  std::string SnapshotCsv(SimTime now = 0) const;

  // Zeroes every cell; families and cells stay registered.
  void Reset();

 private:
  enum class Kind { kCounter, kGauge, kSeries };
  struct Family {
    Kind kind = Kind::kCounter;
    // std::map: deterministic export order and stable cell addresses.
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, Series> series;
  };

  Family& GetFamily(const std::string& name, Kind kind);

  std::map<std::string, Family> families_;
};

}  // namespace ofc::obs

#endif  // OFC_OBS_METRICS_H_
