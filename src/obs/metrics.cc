#include "src/obs/metrics.h"

#include <cassert>

#include "src/obs/export_util.h"

namespace ofc::obs {

namespace {

const char* KindName(int kind) {
  switch (kind) {
    case 0:
      return "counter";
    case 1:
      return "gauge";
    default:
      return "series";
  }
}

}  // namespace

MetricsRegistry::Family& MetricsRegistry::GetFamily(const std::string& name, Kind kind) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
  }
  // A family's kind is fixed by its first accessor; mixing kinds under one
  // name is a programming error.
  assert(it->second.kind == kind);
  return it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name, const std::string& label) {
  return &GetFamily(name, Kind::kCounter).counters[label];
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const std::string& label) {
  return &GetFamily(name, Kind::kGauge).gauges[label];
}

Series* MetricsRegistry::GetSeries(const std::string& name, const std::string& label) {
  return &GetFamily(name, Kind::kSeries).series[label];
}

std::uint64_t MetricsRegistry::CounterValue(const std::string& name,
                                            const std::string& label) const {
  auto it = families_.find(name);
  if (it == families_.end()) {
    return 0;
  }
  auto cell = it->second.counters.find(label);
  return cell == it->second.counters.end() ? 0 : cell->second.value();
}

double MetricsRegistry::GaugeValue(const std::string& name, const std::string& label) const {
  auto it = families_.find(name);
  if (it == families_.end()) {
    return 0.0;
  }
  auto cell = it->second.gauges.find(label);
  return cell == it->second.gauges.end() ? 0.0 : cell->second.value();
}

const Series* MetricsRegistry::FindSeries(const std::string& name,
                                          const std::string& label) const {
  auto it = families_.find(name);
  if (it == families_.end()) {
    return nullptr;
  }
  auto cell = it->second.series.find(label);
  return cell == it->second.series.end() ? nullptr : &cell->second;
}

std::uint64_t MetricsRegistry::CounterTotal(const std::string& name) const {
  auto it = families_.find(name);
  if (it == families_.end()) {
    return 0;
  }
  std::uint64_t total = 0;
  for (const auto& [label, counter] : it->second.counters) {
    total += counter.value();
  }
  return total;
}

std::string MetricsRegistry::SnapshotJson(SimTime now) const {
  std::string out = "{\"sim_time_us\": " + std::to_string(now) + ", \"metrics\": [";
  bool first_family = true;
  for (const auto& [name, family] : families_) {
    if (!first_family) {
      out += ",";
    }
    first_family = false;
    out += "\n  {\"name\": \"" + JsonEscape(name) + "\", \"type\": \"" +
           KindName(static_cast<int>(family.kind)) + "\", \"cells\": [";
    bool first_cell = true;
    auto cell_prefix = [&](const std::string& label) {
      if (!first_cell) {
        out += ", ";
      }
      first_cell = false;
      out += "{\"label\": \"" + JsonEscape(label) + "\", ";
    };
    switch (family.kind) {
      case Kind::kCounter:
        for (const auto& [label, counter] : family.counters) {
          cell_prefix(label);
          out += "\"value\": " + std::to_string(counter.value()) + "}";
        }
        break;
      case Kind::kGauge:
        for (const auto& [label, gauge] : family.gauges) {
          cell_prefix(label);
          out += "\"value\": " + JsonNumber(gauge.value()) + "}";
        }
        break;
      case Kind::kSeries:
        for (const auto& [label, series] : family.series) {
          cell_prefix(label);
          const RunningStat& running = series.running();
          const Samples& samples = series.samples();
          out += "\"count\": " + std::to_string(running.count());
          out += ", \"sum\": " + JsonNumber(running.sum());
          out += ", \"mean\": " + JsonNumber(running.mean());
          out += ", \"min\": " + JsonNumber(running.min());
          out += ", \"max\": " + JsonNumber(running.max());
          out += ", \"p50\": " + JsonNumber(samples.Percentile(0.50));
          out += ", \"p95\": " + JsonNumber(samples.Percentile(0.95));
          out += ", \"p99\": " + JsonNumber(samples.Percentile(0.99));
          out += "}";
        }
        break;
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

std::string MetricsRegistry::SnapshotCsv(SimTime now) const {
  std::string out = "name,type,label,value,count,mean,min,max,p50,p95,p99\n";
  (void)now;  // The snapshot time rides in the file name / caller context.
  for (const auto& [name, family] : families_) {
    const char* kind = KindName(static_cast<int>(family.kind));
    switch (family.kind) {
      case Kind::kCounter:
        for (const auto& [label, counter] : family.counters) {
          out += CsvField(name);
          out += ',';
          out += kind;
          out += ',';
          out += CsvField(label);
          out += ',' + std::to_string(counter.value()) + ",,,,,,,\n";
        }
        break;
      case Kind::kGauge:
        for (const auto& [label, gauge] : family.gauges) {
          out += CsvField(name);
          out += ',';
          out += kind;
          out += ',';
          out += CsvField(label);
          out += ',' + JsonNumber(gauge.value()) + ",,,,,,,\n";
        }
        break;
      case Kind::kSeries:
        for (const auto& [label, series] : family.series) {
          const RunningStat& running = series.running();
          const Samples& samples = series.samples();
          out += CsvField(name);
          out += ',';
          out += kind;
          out += ',';
          out += CsvField(label);
          out += ",," + std::to_string(running.count());
          out += ',' + JsonNumber(running.mean());
          out += ',' + JsonNumber(running.min());
          out += ',' + JsonNumber(running.max());
          out += ',' + JsonNumber(samples.Percentile(0.50));
          out += ',' + JsonNumber(samples.Percentile(0.95));
          out += ',' + JsonNumber(samples.Percentile(0.99));
          out += '\n';
        }
        break;
    }
  }
  return out;
}

void MetricsRegistry::VisitCounters(
    const std::function<void(const std::string&, const std::string&, const Counter&)>& fn)
    const {
  for (const auto& [name, family] : families_) {
    if (family.kind != Kind::kCounter) {
      continue;
    }
    for (const auto& [label, cell] : family.counters) {
      fn(name, label, cell);
    }
  }
}

void MetricsRegistry::VisitGauges(
    const std::function<void(const std::string&, const std::string&, const Gauge&)>& fn) const {
  for (const auto& [name, family] : families_) {
    if (family.kind != Kind::kGauge) {
      continue;
    }
    for (const auto& [label, cell] : family.gauges) {
      fn(name, label, cell);
    }
  }
}

void MetricsRegistry::VisitSeries(
    const std::function<void(const std::string&, const std::string&, const Series&)>& fn) const {
  for (const auto& [name, family] : families_) {
    if (family.kind != Kind::kSeries) {
      continue;
    }
    for (const auto& [label, cell] : family.series) {
      fn(name, label, cell);
    }
  }
}

void MetricsRegistry::Reset() {
  for (auto& [name, family] : families_) {
    for (auto& [label, counter] : family.counters) {
      counter.Reset();
    }
    for (auto& [label, gauge] : family.gauges) {
      gauge.Reset();
    }
    for (auto& [label, series] : family.series) {
      series.Reset();
    }
  }
}

}  // namespace ofc::obs
