// Large-trace synthesis for the million-invocation scale harness.
//
// Generates a multi-tenant arrival plan shaped like the Azure Functions trace
// observations of Shahrad et al. (the paper's [37]): a heavy-tailed rate skew
// across tenants (a few hot functions dominate, a long tail is invoked rarely),
// a diurnal cohort whose Poisson rate swings over a day-like period, and a
// bursty cohort with long gaps separating short back-to-back trains.
//
// The output is a pure description — tenant names, catalog functions, arrival
// law parameters, expected invocation counts — with no dependency on the
// injector or the platform. bench/scale_stress and tests feed it through
// LoadInjector::AddScaleTrace, which maps each entry onto a TenantSpec; the
// injector then draws concrete arrival times lazily at run time, so a
// 10M-invocation plan costs a few KiB, not millions of pre-materialized
// events.
#ifndef OFC_WORKLOADS_SCALE_TRACE_H_
#define OFC_WORKLOADS_SCALE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace ofc::workloads {

// Arrival law of one synthesized tenant. Mirrors the injector's patterns but
// stays decoupled so this layer has no faasload dependency.
enum class ScaleArrivals {
  kPoisson,   // Exponential inter-arrivals at a fixed mean.
  kDiurnal,   // Poisson with a sinusoidally modulated rate (thinned).
  kBursty,    // Exponential gaps separating back-to-back bursts.
  kPeriodic,  // Fixed interval (cron-like timers).
};

struct ScaleTraceOptions {
  std::uint64_t seed = 1;
  std::size_t num_tenants = 64;
  double duration_s = 3600.0;
  // Expected total invocations across all tenants over `duration_s`; per-tenant
  // rates are normalized so the sum of expectations lands here.
  std::uint64_t target_invocations = 1'000'000;
  // Pareto-like skew exponent for per-tenant rates: lower alpha = heavier tail
  // (hotter hot tenants). Must be > 0.
  double rate_skew_alpha = 1.2;
  // Cohort shares (fractions of tenants; remainder is plain Poisson).
  double diurnal_fraction = 0.25;
  double bursty_fraction = 0.20;
  double periodic_fraction = 0.10;
  // Diurnal cohort: rate modulation period and swing (0..1).
  double diurnal_period_s = 86400.0;
  double diurnal_amplitude = 0.8;
  // Bursty cohort: invocations per burst drawn in [2, max_burst_size].
  int max_burst_size = 8;
  double burst_spacing_s = 0.25;
  // Dataset shape per tenant.
  int dataset_objects = 4;
  Bytes object_size = 0;  // 0 = natural content distribution.
};

struct ScaleTraceTenant {
  std::string name;
  std::string function;  // A workloads catalog function (FindFunction-able).
  ScaleArrivals arrivals = ScaleArrivals::kPoisson;
  double mean_interval_s = 60.0;  // Mean inter-arrival / inter-burst gap.
  int burst_size = 1;
  double burst_spacing_s = 0.25;
  double diurnal_period_s = 86400.0;
  double diurnal_amplitude = 0.0;
  int dataset_objects = 4;
  Bytes object_size = 0;
  // Expected invocations this tenant contributes over the trace duration.
  double expected_invocations = 0.0;
};

struct ScaleTrace {
  ScaleTraceOptions options;
  std::vector<ScaleTraceTenant> tenants;
  double expected_invocations = 0.0;  // Sum over tenants.
};

// Deterministic in `options.seed` (same options => same trace).
ScaleTrace GenerateScaleTrace(const ScaleTraceOptions& options);

}  // namespace ofc::workloads

#endif  // OFC_WORKLOADS_SCALE_TRACE_H_
