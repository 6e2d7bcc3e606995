#include "src/faasload/injector.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/faas/direct_data_service.h"

namespace ofc::faasload {

std::string TenantProfileName(TenantProfile profile) {
  switch (profile) {
    case TenantProfile::kNormal:
      return "normal";
    case TenantProfile::kNaive:
      return "naive";
    case TenantProfile::kAdvanced:
      return "advanced";
  }
  return "unknown";
}

SimDuration TenantResult::TotalExecutionTime() const {
  SimDuration total = 0;
  for (const auto& record : invocations) {
    total += record.total;
  }
  for (const auto& record : pipelines) {
    total += record.total;
  }
  return total;
}

std::size_t TenantResult::FailureCount() const {
  std::size_t failures = 0;
  for (const auto& record : invocations) {
    failures += record.failed;
  }
  for (const auto& record : pipelines) {
    failures += record.failed;
  }
  return failures;
}

Bytes BookedMemoryFor(const workloads::FunctionSpec& spec, TenantProfile profile,
                      Bytes platform_max, std::uint64_t seed) {
  if (profile == TenantProfile::kNaive) {
    return platform_max;  // Always the maximum OWK allows.
  }
  // "Advanced": the maximum memory used across previous runs, estimated by
  // sampling the demand model over the input distribution.
  Rng rng(seed);
  workloads::MediaGenerator generator(rng.Fork());
  Bytes max_seen = 0;
  for (int i = 0; i < 400; ++i) {
    const workloads::MediaDescriptor media = generator.Generate(spec.kind);
    const std::vector<double> args = workloads::SampleArgs(spec, rng);
    max_seen = std::max(max_seen,
                        workloads::ComputeDemand(spec, media, args, &rng).memory);
  }
  // A practical "max used" reading carries measurement granularity: tenants
  // round the observed peak up a little, which also absorbs run-to-run noise
  // beyond the sampled maximum.
  max_seen = static_cast<Bytes>(static_cast<double>(max_seen) * 1.05);
  if (profile == TenantProfile::kAdvanced) {
    return std::min(max_seen, platform_max);
  }
  // "Normal": 1.7x the advanced booking.
  return std::min(static_cast<Bytes>(static_cast<double>(max_seen) * 1.7), platform_max);
}

LoadInjector::LoadInjector(Environment* env, TenantProfile profile, std::uint64_t seed)
    : env_(env), profile_(profile), rng_(seed) {}

Status LoadInjector::AddTenant(TenantSpec spec) {
  auto tenant = std::make_unique<Tenant>();
  tenant->spec = spec;
  tenant->rng = rng_.Fork();
  workloads::MediaGenerator generator(tenant->rng.Fork());

  if (spec.is_pipeline) {
    const workloads::PipelineSpec* pipeline = workloads::FindPipeline(spec.function);
    if (pipeline == nullptr) {
      return NotFoundError("no such pipeline: " + spec.function);
    }
    // Prepare the chunked input in the RSDS.
    const int chunks = pipeline->NumChunks(spec.pipeline_input_size);
    const Bytes chunk_size = spec.pipeline_input_size / chunks;
    for (int c = 0; c < chunks; ++c) {
      workloads::MediaDescriptor media =
          generator.GenerateWithByteSize(pipeline->input_kind, chunk_size);
      const std::string key = "data/" + spec.name + "/chunk" + std::to_string(c);
      env_->rsds().Seed(key, media.byte_size, faas::MediaToTags(media));
      tenant->pipeline_chunks.push_back(faas::InputObject{key, media});
    }
    // Register every stage function. A tenant who books per "previous runs"
    // knows the per-*stage* peak at their pipeline's scale (fan-in stages see
    // many objects at once), so the booking estimate walks the stages over the
    // actual chunked input.
    std::vector<workloads::MediaDescriptor> stage_inputs;
    for (const faas::InputObject& chunk : tenant->pipeline_chunks) {
      stage_inputs.push_back(chunk.media);
    }
    for (const workloads::PipelineStage& stage : pipeline->stages) {
      const workloads::FunctionSpec* fn = workloads::FindFunction(stage.function);
      if (fn == nullptr) {
        return NotFoundError("no such stage function: " + stage.function);
      }
      // Peak demand across every task of this stage (decoded footprints vary
      // per chunk, so the heaviest task is not knowable from byte sizes).
      const std::size_t num_tasks =
          stage.fixed_tasks > 0
              ? std::min<std::size_t>(static_cast<std::size_t>(stage.fixed_tasks),
                                      stage_inputs.size())
              : stage_inputs.size();
      Bytes peak = 0;
      Bytes out_size = 0;
      std::vector<workloads::MediaDescriptor> outputs;
      for (std::size_t t = 0; t < num_tasks; ++t) {
        std::vector<faas::InputObject> task_inputs;
        for (std::size_t i = t; i < stage_inputs.size(); i += num_tasks) {
          task_inputs.push_back(faas::InputObject{"", stage_inputs[i]});
        }
        const workloads::MediaDescriptor aggregate =
            faas::Platform::AggregateMedia(task_inputs);
        Bytes task_out = 0;
        for (int trial = 0; trial < 8; ++trial) {
          const auto args = workloads::SampleArgs(*fn, rng_);
          const auto demand = workloads::ComputeDemand(*fn, aggregate, args, &rng_);
          peak = std::max(peak, demand.memory);
          task_out = std::max(task_out, demand.output_size);
        }
        out_size = std::max(out_size, task_out);
        outputs.push_back(workloads::OutputMedia(*fn, aggregate, task_out));
      }
      const Bytes platform_max = env_->platform().options().max_sandbox_memory;
      Bytes booked = platform_max;  // naive
      if (profile_ == TenantProfile::kAdvanced) {
        booked = std::min(static_cast<Bytes>(static_cast<double>(peak) * 1.1), platform_max);
      } else if (profile_ == TenantProfile::kNormal) {
        booked = std::min(static_cast<Bytes>(static_cast<double>(peak) * 1.87), platform_max);
      }
      if (env_->platform().GetFunction(fn->name) == nullptr) {
        faas::FunctionConfig config;
        config.spec = *fn;
        config.tenant = spec.name;
        config.booked_memory = booked;
        OFC_RETURN_IF_ERROR(env_->platform().RegisterFunction(config));
      }
      // Feed the next stage with this stage's task outputs.
      stage_inputs = std::move(outputs);
      (void)out_size;
    }
  } else {
    const workloads::FunctionSpec* fn = workloads::FindFunction(spec.function);
    if (fn == nullptr) {
      return NotFoundError("no such function: " + spec.function);
    }
    if (env_->platform().GetFunction(fn->name) == nullptr) {
      faas::FunctionConfig config;
      config.spec = *fn;
      config.tenant = spec.name;
      config.booked_memory = BookedMemoryFor(
          *fn, profile_, env_->platform().options().max_sandbox_memory, rng_.NextU64());
      OFC_RETURN_IF_ERROR(env_->platform().RegisterFunction(config));
    }
    for (int i = 0; i < spec.dataset_objects; ++i) {
      workloads::MediaDescriptor media =
          spec.object_size > 0 ? generator.GenerateWithByteSize(fn->kind, spec.object_size)
                               : generator.Generate(fn->kind);
      const std::string key = "data/" + spec.name + "/obj" + std::to_string(i);
      env_->rsds().Seed(key, media.byte_size, faas::MediaToTags(media));
      tenant->dataset.push_back(faas::InputObject{key, media});
    }
  }

  results_.push_back(TenantResult{spec.name, spec.function, {}, {}});
  tenant->result_index = results_.size() - 1;
  tenants_.push_back(std::move(tenant));
  return OkStatus();
}

Status LoadInjector::AddScaleTrace(const workloads::ScaleTrace& trace) {
  for (const workloads::ScaleTraceTenant& t : trace.tenants) {
    TenantSpec spec;
    spec.name = t.name;
    spec.function = t.function;
    spec.mean_interval_s = t.mean_interval_s;
    spec.burst_size = t.burst_size;
    spec.burst_spacing_s = t.burst_spacing_s;
    spec.diurnal_period_s = t.diurnal_period_s;
    spec.diurnal_amplitude = t.diurnal_amplitude;
    spec.dataset_objects = t.dataset_objects;
    spec.object_size = t.object_size;
    switch (t.arrivals) {
      case workloads::ScaleArrivals::kPoisson:
        spec.arrivals = ArrivalPattern::kExponential;
        break;
      case workloads::ScaleArrivals::kDiurnal:
        spec.arrivals = ArrivalPattern::kDiurnal;
        break;
      case workloads::ScaleArrivals::kBursty:
        spec.arrivals = ArrivalPattern::kBursty;
        break;
      case workloads::ScaleArrivals::kPeriodic:
        spec.arrivals = ArrivalPattern::kPeriodic;
        break;
    }
    OFC_RETURN_IF_ERROR(AddTenant(std::move(spec)));
  }
  return OkStatus();
}

Status LoadInjector::AddProbe(const std::string& function, int num_objects,
                              Bytes input_bytes) {
  const workloads::FunctionSpec* fn = workloads::FindFunction(function);
  if (fn == nullptr) {
    return NotFoundError("no such function: " + function);
  }
  faas::FunctionConfig config;
  config.spec = *fn;
  config.booked_memory = GiB(2);
  OFC_RETURN_IF_ERROR(env_->platform().RegisterFunction(config));
  if (core::OfcSystem* ofc = env_->ofc(); ofc != nullptr) {
    Rng pretrain_rng(env_->options().seed + 17);
    ofc->trainer().Pretrain(config.spec, 1000, pretrain_rng);
  }
  workloads::MediaGenerator generator(rng_.Fork());
  for (int i = 0; i < num_objects; ++i) {
    const workloads::MediaDescriptor media =
        generator.GenerateWithByteSize(workloads::InputKind::kImage, input_bytes);
    const std::string key = "in/" + std::to_string(i);
    env_->rsds().Seed(key, media.byte_size, faas::MediaToTags(media));
    probe_inputs_.push_back(faas::InputObject{key, media});
  }
  probe_function_ = function;
  results_.push_back(TenantResult{"probe", function, {}, {}});
  probe_result_ = results_.size() - 1;
  return OkStatus();
}

void LoadInjector::SubmitProbe(SimTime at) {
  const faas::InputObject& input = probe_inputs_[rng_.Index(probe_inputs_.size())];
  ++in_flight_;
  env_->loop().ScheduleAt(at, [this, input] {
    ++fired_;
    env_->platform().Invoke(probe_function_, {input}, {0.5},
                            [this](const faas::InvocationRecord& record) {
                              RecordInvocation(results_[probe_result_], record);
                              ++completed_;
                              --in_flight_;
                            });
  });
}

void LoadInjector::Settle(SimTime deadline) {
  while (in_flight_ > 0 && env_->loop().now() < deadline && env_->loop().Step()) {
  }
}

void LoadInjector::PretrainModels(int invocations_per_function) {
  core::OfcSystem* ofc = env_->ofc();
  if (ofc == nullptr) {
    return;
  }
  for (const auto& tenant : tenants_) {
    if (tenant->spec.is_pipeline) {
      const workloads::PipelineSpec* pipeline = workloads::FindPipeline(tenant->spec.function);
      for (const workloads::PipelineStage& stage : pipeline->stages) {
        const workloads::FunctionSpec* fn = workloads::FindFunction(stage.function);
        Rng rng = rng_.Fork();
        ofc->trainer().Pretrain(*fn, invocations_per_function, rng);
      }
    } else {
      const workloads::FunctionSpec* fn = workloads::FindFunction(tenant->spec.function);
      Rng rng = rng_.Fork();
      ofc->trainer().Pretrain(*fn, invocations_per_function, rng);
    }
  }
}

void LoadInjector::AddSampler(SimDuration period, std::function<void()> sampler) {
  samplers_.push_back(SamplerSpec{period, std::move(sampler)});
}

// Plants exactly one future arrival event for `tenant` — the event body
// (OnArrival) fires the invocation and re-arms. Compared to the old
// schedule-everything-up-front design this keeps the event heap at
// O(num_tenants + in-flight work) instead of O(total invocations), which is
// what makes 10M-invocation traces feasible; the cost is that a tenant's RNG
// now interleaves arrival draws with input/argument draws (a different but
// equally deterministic stream).
void LoadInjector::ScheduleNextArrival(Tenant& tenant) {
  const TenantSpec& spec = tenant.spec;
  while (true) {
    SimTime when;
    if (tenant.burst_remaining > 0) {
      // Tail of an in-progress burst: fixed spacing after the previous member.
      --tenant.burst_remaining;
      tenant.burst_next += static_cast<SimDuration>(spec.burst_spacing_s * 1e6);
      when = tenant.burst_next;
      if (when > horizon_end_) {
        tenant.burst_remaining = 0;  // Truncate the burst at the horizon...
        continue;                    // ...but keep drawing later burst gaps.
      }
    } else {
      SimTime& t = tenant.arrival_cursor;
      switch (spec.arrivals) {
        case ArrivalPattern::kExponential:
          t += static_cast<SimDuration>(tenant.rng.Exponential(spec.mean_interval_s) * 1e6);
          break;
        case ArrivalPattern::kPeriodic:
          t += static_cast<SimDuration>(spec.mean_interval_s * 1e6);
          break;
        case ArrivalPattern::kDiurnal: {
          // Thinned Poisson: draw candidates at the peak rate and accept with
          // probability rate(t)/peak — an exact simulation of the
          // inhomogeneous process, still one event per accepted arrival.
          const double amplitude = std::clamp(spec.diurnal_amplitude, 0.0, 1.0);
          const double base_rate = 1.0 / spec.mean_interval_s;
          const double peak_rate = base_rate * (1.0 + amplitude);
          while (true) {
            t += static_cast<SimDuration>(tenant.rng.Exponential(1.0 / peak_rate) * 1e6);
            const double phase =
                2.0 * 3.14159265358979323846 * (static_cast<double>(t) / 1e6) /
                spec.diurnal_period_s;
            const double rate = base_rate * (1.0 + amplitude * std::sin(phase));
            if (tenant.rng.NextDouble() * peak_rate <= rate || t > horizon_end_) {
              break;
            }
          }
          break;
        }
        case ArrivalPattern::kBursty:
          // A gap, then a train of closely spaced invocations; the first
          // member fires at the burst start.
          t += static_cast<SimDuration>(tenant.rng.Exponential(spec.mean_interval_s) * 1e6);
          tenant.burst_next = t;
          tenant.burst_remaining = std::max(0, spec.burst_size - 1);
          break;
      }
      when = spec.arrivals == ArrivalPattern::kBursty ? tenant.burst_next : t;
      if (when > horizon_end_) {
        return;  // Horizon reached: this tenant stops re-arming.
      }
    }
    // A tenant whose bursts overlap (gap shorter than the burst span) can draw
    // a next-burst start before the current burst's tail — in the past by the
    // time the tail member re-arms. Such arrivals fire immediately: the law's
    // epochs (cursor/burst_next) keep their logical values, only dispatch is
    // clamped to the present.
    if (when < env_->loop().now()) {
      when = env_->loop().now();
    }
    ++in_flight_;
    // Capture the tenant by pointer, not reference: the callback outlives this
    // frame, and `tenants_` owns the heap-allocated Tenant for the whole run.
    env_->loop().ScheduleAt(when, [this, t = &tenant] { OnArrival(*t); });
    return;
  }
}

void LoadInjector::OnArrival(Tenant& tenant) {
  FireInvocation(tenant);       // Carries this arrival's in_flight_ count.
  ScheduleNextArrival(tenant);  // Re-arm (adds its own count if within horizon).
}

void LoadInjector::RecordInvocation(TenantResult& result,
                                    const faas::InvocationRecord& record) {
  if (result.invocations.size() < max_records_per_tenant_) {
    result.invocations.push_back(record);
  }
}

void LoadInjector::RecordPipeline(TenantResult& result, const faas::PipelineRecord& record) {
  if (result.pipelines.size() < max_records_per_tenant_) {
    result.pipelines.push_back(record);
  }
}

void LoadInjector::FireInvocation(Tenant& tenant) {
  TenantResult& result = results_[tenant.result_index];
  ++fired_;
  if (tenant.spec.is_pipeline) {
    const workloads::PipelineSpec* pipeline = workloads::FindPipeline(tenant.spec.function);
    env_->platform().InvokePipeline(*pipeline, tenant.pipeline_chunks,
                                    [this, &result](const faas::PipelineRecord& record) {
                                      RecordPipeline(result, record);
                                      ++completed_;
                                      --in_flight_;
                                    });
    return;
  }
  const faas::InputObject& input =
      tenant.dataset[tenant.rng.Index(tenant.dataset.size())];
  const workloads::FunctionSpec* fn = workloads::FindFunction(tenant.spec.function);
  std::vector<double> args = workloads::SampleArgs(*fn, tenant.rng);
  env_->platform().Invoke(tenant.spec.function, {input}, std::move(args),
                          [this, &result](const faas::InvocationRecord& record) {
                            RecordInvocation(result, record);
                            ++completed_;
                            --in_flight_;
                          });
}

void LoadInjector::Run(SimDuration duration) {
  horizon_end_ = env_->loop().now() + duration;
  for (auto& tenant : tenants_) {
    tenant->arrival_cursor = env_->loop().now();
    ScheduleNextArrival(*tenant);
  }
  for (const SamplerSpec& sampler : samplers_) {
    for (SimTime t = sampler.period; t <= duration; t += sampler.period) {
      env_->loop().ScheduleAt(env_->loop().now() + t, [fn = sampler.fn] { fn(); });
    }
  }
  // Run to quiescence: all scheduled invocations (and their persistors /
  // write-backs) complete. Periodic timers (sweeps, slack estimation) re-arm
  // forever, so RunUntil with a bounded tail instead of Run(); invocations
  // stuck beyond the hard cap (e.g. a booking that can never be placed) are
  // abandoned rather than spinning forever.
  SimTime deadline = horizon_end_ + Minutes(10);
  const SimTime hard_cap = horizon_end_ + Minutes(120);
  while (in_flight_ > 0 && deadline <= hard_cap) {
    env_->loop().RunUntil(deadline);
    deadline += Minutes(10);
  }
  if (in_flight_ > 0) {
    OFC_LOG(Warning) << in_flight_ << " invocation(s) did not complete within the "
                     << "2 h drain window";
  }
}

}  // namespace ofc::faasload
