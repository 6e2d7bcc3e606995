// FAASLOAD (§7.2.2): the multi-tenant load injector used for the macro
// experiments. Emulates tenants with one function (or pipeline) each, prepares
// their input datasets in the RSDS, fires invocations on a periodic or
// exponential (Poisson) schedule, and collects per-tenant records.
//
// Tenant memory-booking profiles (§7.2.2):
//   * naive    — always books OWK's maximum (2 GB);
//   * advanced — books the maximum usage observed in previous runs;
//   * normal   — books 1.7x the advanced amount (common practice, [39]).
#ifndef OFC_FAASLOAD_INJECTOR_H_
#define OFC_FAASLOAD_INJECTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/faasload/environment.h"
#include "src/workloads/media.h"
#include "src/workloads/pipelines.h"
#include "src/workloads/scale_trace.h"

namespace ofc::faasload {

enum class TenantProfile { kNormal, kNaive, kAdvanced };

std::string TenantProfileName(TenantProfile profile);

// Invocation arrival process. Shahrad et al. (the paper's [37]) observe that
// real FaaS traffic mixes steady Poisson-like functions with rare and bursty
// ones, and that "45 % of applications are invoked once per hour or less" —
// the source of the keep-alive waste OFC harvests.
enum class ArrivalPattern {
  kExponential,  // Poisson arrivals with the given mean interval.
  kPeriodic,     // Fixed interval.
  kBursty,       // Long exponential gaps separating short back-to-back bursts.
  kDiurnal,      // Poisson with a sinusoidally modulated rate (thinned).
};

struct TenantSpec {
  std::string name;
  std::string function;   // Single-stage function name or pipeline name.
  bool is_pipeline = false;
  // Mean inter-arrival (exponential/periodic) or mean gap between bursts.
  double mean_interval_s = 60.0;
  ArrivalPattern arrivals = ArrivalPattern::kExponential;
  // Bursty only: invocations per burst and intra-burst spacing.
  int burst_size = 5;
  double burst_spacing_s = 1.0;
  // Diurnal only: rate(t) = base * (1 + amplitude * sin(2*pi*t / period)),
  // where base = 1 / mean_interval_s. Amplitude is clamped to [0, 1].
  double diurnal_period_s = 86400.0;
  double diurnal_amplitude = 0.8;
  // Input dataset: number of distinct objects prepared in the RSDS. FAASLOAD
  // "prepares the input data for the invocations of each function".
  int dataset_objects = 3;
  // Target byte size per dataset object; 0 draws from the natural content
  // distribution.
  Bytes object_size = 0;
  // Pipelines: total input volume, split into chunk objects.
  Bytes pipeline_input_size = MiB(30);
};

struct TenantResult {
  std::string name;
  std::string function;
  std::vector<faas::InvocationRecord> invocations;
  std::vector<faas::PipelineRecord> pipelines;
  SimDuration TotalExecutionTime() const;
  std::size_t FailureCount() const;
};

// Estimates the booked memory for a function under a tenant profile. The
// "advanced" estimate samples the demand model over the input distribution,
// standing in for "previous runs" telemetry.
Bytes BookedMemoryFor(const workloads::FunctionSpec& spec, TenantProfile profile,
                      Bytes platform_max, std::uint64_t seed);

class LoadInjector {
 public:
  LoadInjector(Environment* env, TenantProfile profile, std::uint64_t seed);

  // Registers the tenant's function(s) with the platform under the profile's
  // booking and prepares its dataset in the RSDS.
  Status AddTenant(TenantSpec spec);

  // Maps every tenant of a synthesized scale trace onto AddTenant. The trace
  // carries arrival-law parameters only; concrete arrival times are drawn
  // lazily while the run progresses.
  Status AddScaleTrace(const workloads::ScaleTrace& trace);

  // The chaos and overload scenarios' load: one function booked at 2 GiB, its
  // model pretrained on 1000 invocations drawn from the environment seed + 17,
  // over `num_objects` image inputs of `input_bytes` each, seeded as in/0, in/1,
  // ... from this injector's stream. Its invocations are planted one at a time
  // with SubmitProbe() and driven by Settle(), not by Run().
  Status AddProbe(const std::string& function, int num_objects, Bytes input_bytes);
  // Plants one probe invocation at `at`, on an input drawn now, with args {0.5}.
  void SubmitProbe(SimTime at);
  bool has_probe() const { return !probe_function_.empty(); }

  // Pretrains OFC models offline (no-op in baseline modes) so macro runs start
  // with mature predictors, as the artifact's offline ML stage does.
  void PretrainModels(int invocations_per_function);

  // Schedules all invocations within [0, duration] and runs the event loop
  // until every scheduled invocation completed.
  void Run(SimDuration duration);

  // Steps the event loop until no planted invocation is in flight or the clock
  // reaches `deadline`, whichever comes first.
  void Settle(SimTime deadline);

  // Periodically samples f(now) during Run (Figure 10's cache-size series).
  void AddSampler(SimDuration period, std::function<void()> sampler);

  // The injector's own stream: the chaos scenario draws its probes' Poisson
  // gaps from it, interleaved with SubmitProbe()'s input draws.
  Rng& rng() { return rng_; }

  const std::vector<TenantResult>& results() const { return results_; }

  // Exactly-once accounting across the whole run: every fired invocation (or
  // pipeline) must produce exactly one completion record.
  std::uint64_t invocations_fired() const { return fired_; }
  std::uint64_t invocations_completed() const { return completed_; }

  // Record retention. Defaults to keeping every record (the macro figures
  // aggregate them afterwards); scale runs cap or disable retention so a
  // 10M-invocation run does not hold 10M InvocationRecords.
  void set_max_records_per_tenant(std::size_t n) { max_records_per_tenant_ = n; }

 private:
  struct Tenant {
    TenantSpec spec;
    std::vector<faas::InputObject> dataset;            // Single-stage pool.
    std::vector<faas::InputObject> pipeline_chunks;    // Pipeline input chunks.
    Rng rng;
    std::size_t result_index = 0;
    // Lazy arrival state: exactly one pending arrival event per tenant. The
    // cursor is the last arrival-law epoch (burst start for bursty tenants);
    // burst_remaining/burst_next walk the tail of an in-progress burst.
    SimTime arrival_cursor = 0;
    SimTime burst_next = 0;
    int burst_remaining = 0;
  };

  // Draws the tenant's next arrival instant and plants one event there (or
  // stops re-arming once the draw crosses the horizon).
  void ScheduleNextArrival(Tenant& tenant);
  // Arrival event body: fire, then re-arm.
  void OnArrival(Tenant& tenant);
  void FireInvocation(Tenant& tenant);
  void RecordInvocation(TenantResult& result, const faas::InvocationRecord& record);
  void RecordPipeline(TenantResult& result, const faas::PipelineRecord& record);

  Environment* env_;
  TenantProfile profile_;
  Rng rng_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<TenantResult> results_;
  // The probe load (AddProbe): its function, inputs and result slot.
  std::string probe_function_;
  std::vector<faas::InputObject> probe_inputs_;
  std::size_t probe_result_ = 0;
  std::size_t in_flight_ = 0;
  struct SamplerSpec {
    SimDuration period;
    std::function<void()> fn;
  };
  std::vector<SamplerSpec> samplers_;
  SimTime horizon_end_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t completed_ = 0;
  std::size_t max_records_per_tenant_ = SIZE_MAX;
};

}  // namespace ofc::faasload

#endif  // OFC_FAASLOAD_INJECTOR_H_
