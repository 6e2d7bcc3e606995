#include "src/workloads/scale_trace.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/common/sim_assert.h"
#include "src/workloads/functions.h"

namespace ofc::workloads {

ScaleTrace GenerateScaleTrace(const ScaleTraceOptions& options) {
  SIM_ASSERT(options.num_tenants > 0) << "; scale trace needs at least one tenant";
  SIM_ASSERT(options.duration_s > 0.0) << "; scale trace needs a positive duration";
  SIM_ASSERT(options.rate_skew_alpha > 0.0) << "; rate skew alpha must be positive";

  ScaleTrace trace;
  trace.options = options;
  Rng rng(options.seed);
  const std::vector<FunctionSpec>& catalog = AllFunctions();

  // Heavy-tailed per-tenant weights: w = u^(-1/alpha) is Pareto(alpha)-
  // distributed for u ~ U(0,1), reproducing the "a few functions dominate,
  // 45% are invoked once an hour or less" skew from the Azure trace study.
  std::vector<double> weights(options.num_tenants);
  double weight_sum = 0.0;
  for (double& w : weights) {
    const double u = std::max(rng.NextDouble(), 1e-12);
    w = std::pow(u, -1.0 / options.rate_skew_alpha);
    weight_sum += w;
  }

  // Cohort boundaries over the (shuffled-by-weight-draw) tenant index space.
  const auto cohort_count = [&](double fraction) {
    return static_cast<std::size_t>(fraction * static_cast<double>(options.num_tenants));
  };
  const std::size_t num_diurnal = cohort_count(options.diurnal_fraction);
  const std::size_t num_bursty = cohort_count(options.bursty_fraction);
  const std::size_t num_periodic = cohort_count(options.periodic_fraction);

  trace.tenants.reserve(options.num_tenants);
  // First pass: assign shapes and per-arrival multiplicities so normalization
  // can account for bursts contributing burst_size invocations per arrival.
  double expected_per_unit_rate = 0.0;  // Σ w_i * multiplier_i
  for (std::size_t i = 0; i < options.num_tenants; ++i) {
    ScaleTraceTenant tenant;
    tenant.name = "scale-t" + std::to_string(i);
    tenant.function = catalog[i % catalog.size()].name;
    tenant.dataset_objects = options.dataset_objects;
    tenant.object_size = options.object_size;
    if (i < num_diurnal) {
      tenant.arrivals = ScaleArrivals::kDiurnal;
      tenant.diurnal_period_s = options.diurnal_period_s;
      tenant.diurnal_amplitude = std::clamp(options.diurnal_amplitude, 0.0, 1.0);
    } else if (i < num_diurnal + num_bursty) {
      tenant.arrivals = ScaleArrivals::kBursty;
      tenant.burst_size = static_cast<int>(
          rng.UniformInt(2, std::max(2, options.max_burst_size)));
      tenant.burst_spacing_s = options.burst_spacing_s;
    } else if (i < num_diurnal + num_bursty + num_periodic) {
      tenant.arrivals = ScaleArrivals::kPeriodic;
    } else {
      tenant.arrivals = ScaleArrivals::kPoisson;
    }
    const double multiplier =
        tenant.arrivals == ScaleArrivals::kBursty ? tenant.burst_size : 1.0;
    expected_per_unit_rate += weights[i] * multiplier;
    trace.tenants.push_back(std::move(tenant));
  }

  // Normalize: tenant i's arrival-event rate is weights[i] * scale, chosen so
  // Σ rate_i * multiplier_i * duration == target_invocations. The diurnal
  // modulation is rate-preserving on average (the sinusoid integrates to 0
  // over whole periods), so no cohort correction applies.
  const double scale = static_cast<double>(options.target_invocations) /
                       (expected_per_unit_rate * options.duration_s);
  for (std::size_t i = 0; i < options.num_tenants; ++i) {
    ScaleTraceTenant& tenant = trace.tenants[i];
    const double rate = weights[i] * scale;  // Arrival events per second.
    tenant.mean_interval_s = 1.0 / rate;
    const double multiplier =
        tenant.arrivals == ScaleArrivals::kBursty ? tenant.burst_size : 1.0;
    tenant.expected_invocations = rate * multiplier * options.duration_s;
    trace.expected_invocations += tenant.expected_invocations;
  }
  return trace;
}

}  // namespace ofc::workloads
