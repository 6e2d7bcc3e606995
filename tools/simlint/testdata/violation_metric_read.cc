// Fixture: metric-name-audit (read half) — a literal `ofc.*` name read through
// CounterValue/CounterTotal/GaugeValue/FindSeries must be registered in src/
// with the kind the read expects; otherwise the read silently returns 0.
// Lint as part of a tree that contains src/ (CI copies it into src/core/).
#include "src/obs/metrics.h"

namespace ofc::core {

double SeededMetricReads(const obs::MetricsRegistry& metrics) {
  const std::uint64_t hits = metrics.CounterValue("ofc.proxy.cache_hitz");  // unregistered
  const std::uint64_t ups = metrics.CounterValue("ofc.cache_agent.scale_up_time_us");  // a gauge
  return static_cast<double>(hits + ups);
}

}  // namespace ofc::core
