// One repetition of a benchmark workload: build the stack from the public
// constructors, generate the tenants and their data from the seed, drive every
// arrival into the platform, run the simulation to drain, and report what the
// run did on the simulated clock and what it cost on the wall clock.
#ifndef OFC_PERFBENCH_SCENARIO_H_
#define OFC_PERFBENCH_SCENARIO_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/workloads/scale_trace.h"

namespace ofc::perfbench {

// A tenant added next to the Azure-style trace.
struct ExtraTenant {
  std::string name;
  std::string function;  // Catalog function, or pipeline name when `pipeline`.
  bool pipeline = false;
  workloads::ScaleArrivals arrivals = workloads::ScaleArrivals::kPoisson;
  double mean_interval_s = 1.0;
  Bytes pipeline_input = MiB(8);  // Pipeline: total input, split into chunks.
};

struct WorkloadSpec {
  std::string name;
  bool ofc = true;        // OFC, or the OWK-Swift baseline.
  bool observed = false;  // Timeline + SLO scrapes, flight recorder, sampled trace.
  // workloads::GenerateScaleTrace inputs; 0 tenants = no scale trace.
  std::size_t scale_tenants = 0;
  std::uint64_t scale_invocations = 0;
  double duration_s = 1800.0;
  std::vector<ExtraTenant> extra;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Simulated fingerprint of a run: two runs that simulated the same thing agree
// on all three fields.
struct Fingerprint {
  std::uint64_t events_scheduled = 0;
  SimTime final_time = 0;
  std::uint64_t metrics_hash = 0;  // Registry snapshot, obs-only families excluded.
  bool operator==(const Fingerprint&) const = default;
};

struct RepResult {
  double run_s = 0.0;  // Arrivals through drain.
  std::uint64_t fired = 0;       // Top-level requests (invocations or pipelines).
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;      // Completed failed or shed.
  std::uint64_t executions = 0;  // Function executions; pipeline tasks count each.
  std::uint64_t corrupt_acked = 0;
  std::uint64_t events_dispatched = 0;
  Fingerprint fingerprint;
  std::vector<double> latency_ms;  // Arrival to completion, every top-level request.
  double el_ms = 0.0;              // Simulated Extract + Load over all requests.
  // Per-layer metrics by name: registry counters always, wall-clock seam
  // timing only when the repetition was traced.
  std::map<std::string, double> layer;
};

RepResult RunRep(const WorkloadSpec& spec, std::uint64_t seed, bool traced);

// Wall seconds of the set-up alone: trace generation, stack assembly, data
// seeding and ML pretraining. The stack is torn down unused.
double SetupSeconds(const WorkloadSpec& spec, std::uint64_t seed);

// Exact quantile (linear interpolation between closest ranks) of `values`.
double Quantile(std::vector<double> values, double q);

}  // namespace ofc::perfbench

#endif  // OFC_PERFBENCH_SCENARIO_H_
