#include "perfbench/src/scenario.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <utility>

#include "perfbench/src/seams.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/core/ofc_system.h"
#include "src/faas/direct_data_service.h"
#include "src/faas/platform.h"
#include "src/faasload/injector.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/store/object_store.h"
#include "src/workloads/functions.h"
#include "src/workloads/media.h"
#include "src/workloads/pipelines.h"
#include "src/workloads/scale_trace.h"

namespace ofc::perfbench {
namespace {

// The tenant population (rates, cohorts, functions, datasets, bookings and
// pretraining) is part of a workload's definition and stays fixed; the run
// seed draws the request stream (arrival times, which object each request
// reads, its arguments) and every simulated latency. A seed that re-drew the
// Pareto rate skew or the dataset sizes would change which function and which
// object dominate the traffic, and with them the simulated latency tail, by
// far more than any change to the code under test could.
constexpr std::uint64_t kPopulationSeed = 42;

// Every workload runs on the same cluster.
constexpr int kWorkers = 8;
constexpr Bytes kWorkerMemory = GiB(32);
// Distinct input objects, at natural sizes, of each extra single-stage tenant.
constexpr int kExtraDatasetObjects = 128;

constexpr int kPretrainPerFunction = 40;  // As bench/scale_stress.
constexpr SimDuration kScrapePeriod = Seconds(10);
constexpr SimDuration kSamplePeriod = Seconds(10);
// Requests still open this long after the horizon fail the exactly-once gate.
constexpr SimDuration kDrainCap = Minutes(120);

// One SLO of each kind, evaluated at every scrape of the observed workload.
constexpr const char* kSloSpecs =
    "latency=lat:ofc.platform.total_ms:p99:2000;"
    "failures=rate:ofc.platform.failed_invocations/ofc.platform.invocations:0.01";
constexpr std::uint64_t kTraceSamplePeriod = 64;

std::vector<WorkloadSpec> BuildWorkloads() {
  WorkloadSpec azure;
  azure.name = "azure-ofc";
  azure.scale_tenants = 64;
  azure.scale_invocations = 150'000;
  azure.duration_s = 1800.0;

  WorkloadSpec owk = azure;
  owk.name = "azure-owk";
  owk.ofc = false;

  WorkloadSpec observed = azure;
  observed.name = "azure-ofc-observed";
  observed.observed = true;

  // Scheduled fan-out pipelines beside write-heavy single-stage tenants: every
  // request writes, and the harvested cache stays full, so nearly every write
  // evicts. A smaller cluster or larger datasets tip the platform into a
  // cold-start and queueing collapse whose figures swing by half between
  // seeds, so the pressure stays on the cache's write path.
  WorkloadSpec starved;
  starved.name = "starved-pipelines";
  starved.duration_s = 1200.0;
  starved.extra.push_back({.name = "mr", .function = "map_reduce", .pipeline = true,
                           .arrivals = workloads::ScaleArrivals::kPeriodic,
                           .mean_interval_s = 2.0, .pipeline_input = MiB(8)});
  starved.extra.push_back({.name = "this", .function = "THIS", .pipeline = true,
                           .arrivals = workloads::ScaleArrivals::kPeriodic,
                           .mean_interval_s = 4.0, .pipeline_input = MiB(16)});
  for (const char* fn : {"wand_blur", "wand_sepia", "wand_rotate", "img_watermark",
                         "audio_normalize", "video_grayscale"}) {
    starved.extra.push_back({.name = std::string("w-") + fn, .function = fn,
                             .mean_interval_s = 0.1});
  }
  return {azure, owk, starved, observed};
}

std::uint64_t Fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ULL;
  }
  return hash;
}

std::uint64_t HashString(std::uint64_t hash, const std::string& s) {
  return Fnv1a(hash, s.data(), s.size() + 1);  // Includes the terminator.
}

template <typename T>
std::uint64_t HashValue(std::uint64_t hash, T value) {
  return Fnv1a(hash, &value, sizeof(value));
}

// Every registry cell except the SLO monitor's own, which exist only when the
// observed workload evaluates SLOs and so must not split its fingerprint from
// the plain run's.
std::uint64_t MetricsHash(const obs::MetricsRegistry& metrics) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto simulated = [](const std::string& name) { return name.rfind("ofc.slo.", 0) != 0; };
  metrics.VisitCounters([&](const std::string& name, const std::string& label,
                            const obs::Counter& cell) {
    if (simulated(name)) {
      hash = HashValue(HashString(HashString(hash, name), label), cell.value());
    }
  });
  metrics.VisitGauges([&](const std::string& name, const std::string& label,
                          const obs::Gauge& cell) {
    if (simulated(name)) {
      hash = HashValue(HashString(HashString(hash, name), label), cell.value());
    }
  });
  metrics.VisitSeries([&](const std::string& name, const std::string& label,
                          const obs::Series& cell) {
    if (simulated(name)) {
      hash = HashValue(HashString(HashString(hash, name), label), cell.count());
      hash = HashValue(hash, cell.sum());
    }
  });
  return hash;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Tenant {
  workloads::ScaleTraceTenant plan;
  const workloads::FunctionSpec* fn = nullptr;          // Single-stage tenants.
  const workloads::PipelineSpec* pipeline = nullptr;    // Pipeline tenants.
  std::vector<faas::InputObject> inputs;                // Dataset or chunks.
  Rng rng{0};
  SimTime cursor = 0;  // Last arrival-law epoch (burst start for bursty).
  SimTime burst_next = 0;
  int burst_remaining = 0;
};

class Rep {
 public:
  Rep(const WorkloadSpec& spec, std::uint64_t seed, bool traced)
      : spec_(spec), rng_(seed), tracer_(traced ? std::make_unique<Tracer>() : nullptr) {}

  double TimeSetup() {
    const std::int64_t start = WallNs();
    Setup();
    return static_cast<double>(WallNs() - start) / 1e9;
  }

  RepResult Run() {
    RepResult out;
    Setup();

    const std::int64_t run_start = WallNs();
    Drive();
    const std::int64_t run_ns = WallNs() - run_start;
    out.run_s = static_cast<double>(run_ns) / 1e9;

    out.fired = fired_;
    out.completed = completed_;
    out.failed = failed_;
    out.executions = executions_;
    out.corrupt_acked = metrics_.CounterValue("ofc.integrity.corrupt_acked");
    out.events_dispatched = loop_.total_dispatched();
    out.fingerprint = {loop_.total_scheduled(), loop_.now(), MetricsHash(metrics_)};
    out.latency_ms = std::move(latency_ms_);
    out.el_ms = el_ms_;
    CollectCounters(&out.layer);
    if (spec_.observed) {
      CollectObs(&out.layer);
    }
    if (tracer_ != nullptr) {
      CollectTraced(run_ns, &out.layer);
    }
    return out;
  }

 private:
  // ---- Set-up ----------------------------------------------------------------

  void Setup() {
    std::vector<Tenant> plans;
    if (spec_.scale_tenants > 0) {
      workloads::ScaleTraceOptions options;
      options.seed = kPopulationSeed;
      options.num_tenants = spec_.scale_tenants;
      options.duration_s = spec_.duration_s;
      options.target_invocations = spec_.scale_invocations;
      for (const workloads::ScaleTraceTenant& t : workloads::GenerateScaleTrace(options).tenants) {
        Tenant tenant;
        tenant.plan = t;
        plans.push_back(std::move(tenant));
      }
    }
    for (const ExtraTenant& extra : spec_.extra) {
      Tenant tenant;
      tenant.plan.name = extra.name;
      tenant.plan.function = extra.function;
      tenant.plan.arrivals = extra.arrivals;
      tenant.plan.mean_interval_s = extra.mean_interval_s;
      tenant.plan.dataset_objects = kExtraDatasetObjects;
      if (extra.pipeline) {
        tenant.pipeline = workloads::FindPipeline(extra.function);
        tenant.plan.object_size = extra.pipeline_input;
      }
      plans.push_back(std::move(tenant));
    }

    // Drawn before the stack takes its streams, so that OFC and OWK runs of
    // one seed receive the same requests.
    Rng requests = rng_.Fork();
    Assemble();
    Rng population(kPopulationSeed);
    for (Tenant& tenant : plans) {
      tenants_.push_back(std::make_unique<Tenant>(std::move(tenant)));
      tenants_.back()->rng = requests.Fork();
      AddTenant(*tenants_.back(), population);
    }
    if (ofc_ != nullptr) {
      const std::int64_t start = WallNs();
      for (const auto& tenant : tenants_) {
        if (tenant->pipeline == nullptr) {
          Rng rng = population.Fork();
          ofc_->trainer().Pretrain(*tenant->fn, kPretrainPerFunction, rng);
          continue;
        }
        for (const workloads::PipelineStage& stage : tenant->pipeline->stages) {
          Rng rng = population.Fork();
          ofc_->trainer().Pretrain(*workloads::FindFunction(stage.function),
                                   kPretrainPerFunction, rng);
        }
      }
      pretrain_s_ = static_cast<double>(WallNs() - start) / 1e9;
    }
  }

  // The same assembly and seeding order as faasload::Environment.
  void Assemble() {
    if (spec_.observed) {
      trace_.set_enabled(true);
      trace_.set_sample_period(kTraceSamplePeriod);
      flight_.set_enabled(true);
    }
    rsds_ = std::make_unique<store::ObjectStore>(&loop_, store::StoreProfile::Swift(),
                                                 rng_.Fork(), "swift", &metrics_);
    faas::PlatformOptions platform_options;
    platform_options.num_workers = kWorkers;
    platform_options.worker_memory = kWorkerMemory;
    platform_options.metrics = &metrics_;
    platform_options.trace = &trace_;
    platform_options.flight = &flight_;

    faas::DataService* data = nullptr;
    faas::PlatformHooks* hooks = nullptr;
    if (spec_.ofc) {
      rc::ClusterOptions cluster_options;
      cluster_options.default_capacity = 0;  // The CacheAgent sets real targets.
      cluster_options.metrics = &metrics_;
      cluster_options.flight = &flight_;
      cluster_ = std::make_unique<rc::Cluster>(&loop_, kWorkers, cluster_options, rng_.Fork());
      core::OfcOptions ofc_options;
      ofc_options.cache_agent.worker_memory = kWorkerMemory;
      ofc_options.metrics = &metrics_;
      ofc_options.trace = &trace_;
      ofc_options.flight = &flight_;
      ofc_ = std::make_unique<core::OfcSystem>(&loop_, cluster_.get(), rsds_.get(), ofc_options);
      data = ofc_->data_service();
      hooks = ofc_->hooks();
    } else {
      direct_ = std::make_unique<faas::DirectDataService>(rsds_.get());
      data = direct_.get();
    }
    if (tracer_ != nullptr) {
      // Without OFC the platform would install default hooks itself; the
      // traced run wraps an explicit default instance instead.
      timed_data_ = std::make_unique<TimedDataService>(data, &loop_, tracer_.get());
      timed_hooks_ =
          std::make_unique<TimedHooks>(hooks != nullptr ? hooks : &default_hooks_, tracer_.get());
      data = timed_data_.get();
      hooks = timed_hooks_.get();
    }
    platform_ = std::make_unique<faas::Platform>(&loop_, platform_options, data, hooks,
                                                 rng_.Fork());
    if (ofc_ != nullptr) {
      ofc_->Start();
    }
    if (spec_.observed) {
      std::vector<obs::SloSpec> specs;
      std::string error;
      if (!obs::ParseSloSpecs(kSloSpecs, &specs, &error)) {
        OFC_LOG(Error) << "bad SLO spec: " << error;
      }
      slo_ = std::make_unique<obs::SloMonitor>(&metrics_, &trace_, std::move(specs));
      timeline_ = std::make_unique<obs::TimelineRecorder>(&metrics_);
    }
  }

  void Register(const workloads::FunctionSpec& fn, const std::string& tenant, Bytes booked) {
    if (platform_->GetFunction(fn.name) != nullptr) {
      return;
    }
    faas::FunctionConfig config;
    config.spec = fn;
    config.tenant = tenant;
    config.booked_memory = booked;
    if (Status status = platform_->RegisterFunction(config); !status.ok()) {
      OFC_LOG(Error) << "cannot register " << fn.name << ": " << status.ToString();
    }
  }

  // Registers the tenant's function(s) and seeds its data in the RSDS, as
  // faasload::LoadInjector::AddTenant does: a single-stage tenant books under
  // the "normal" profile, a pipeline stage at 1.87x its peak task demand over
  // the real chunks.
  void AddTenant(Tenant& tenant, Rng& population) {
    workloads::MediaGenerator generator(population.Fork());
    const Bytes max_booking = platform_->options().max_sandbox_memory;
    if (tenant.pipeline == nullptr) {
      tenant.fn = workloads::FindFunction(tenant.plan.function);
      Register(*tenant.fn, tenant.plan.name,
               faasload::BookedMemoryFor(*tenant.fn, faasload::TenantProfile::kNormal,
                                         max_booking, population.NextU64()));
      for (int i = 0; i < tenant.plan.dataset_objects; ++i) {
        Seed(tenant, "data/" + tenant.plan.name + "/obj" + std::to_string(i),
             generator.Generate(tenant.fn->kind));
      }
      return;
    }
    const workloads::PipelineSpec& pipeline = *tenant.pipeline;
    const Bytes input = tenant.plan.object_size;
    const int chunks = pipeline.NumChunks(input);
    std::vector<workloads::MediaDescriptor> stage_inputs;
    for (int c = 0; c < chunks; ++c) {
      const workloads::MediaDescriptor media =
          generator.GenerateWithByteSize(pipeline.input_kind, input / chunks);
      Seed(tenant, "data/" + tenant.plan.name + "/chunk" + std::to_string(c), media);
      stage_inputs.push_back(media);
    }
    for (const workloads::PipelineStage& stage : pipeline.stages) {
      const workloads::FunctionSpec& fn = *workloads::FindFunction(stage.function);
      const std::size_t tasks =
          stage.fixed_tasks > 0
              ? std::min<std::size_t>(static_cast<std::size_t>(stage.fixed_tasks),
                                      stage_inputs.size())
              : stage_inputs.size();
      Bytes peak = 0;
      std::vector<workloads::MediaDescriptor> outputs;
      for (std::size_t t = 0; t < tasks; ++t) {
        std::vector<faas::InputObject> task_inputs;
        for (std::size_t i = t; i < stage_inputs.size(); i += tasks) {
          task_inputs.push_back(faas::InputObject{"", stage_inputs[i]});
        }
        const workloads::MediaDescriptor aggregate = faas::Platform::AggregateMedia(task_inputs);
        Bytes task_out = 0;
        for (int trial = 0; trial < 8; ++trial) {
          const auto args = workloads::SampleArgs(fn, population);
          const auto demand = workloads::ComputeDemand(fn, aggregate, args, &population);
          peak = std::max(peak, demand.memory);
          task_out = std::max(task_out, demand.output_size);
        }
        outputs.push_back(workloads::OutputMedia(fn, aggregate, task_out));
      }
      Register(fn, tenant.plan.name,
               std::min(static_cast<Bytes>(static_cast<double>(peak) * 1.87), max_booking));
      stage_inputs = std::move(outputs);
    }
  }

  void Seed(Tenant& tenant, const std::string& key, const workloads::MediaDescriptor& media) {
    rsds_->Seed(key, media.byte_size, faas::MediaToTags(media));
    tenant.inputs.push_back(faas::InputObject{key, media});
  }

  // ---- Load generation (open loop on the simulated clock) ----------------------

  // Plants the tenant's next arrival, drawn from its arrival law, unless it
  // falls past the horizon. Mirrors faasload::LoadInjector's laws.
  void ScheduleNextArrival(Tenant& tenant) {
    const workloads::ScaleTraceTenant& plan = tenant.plan;
    const auto micros = [](double seconds) { return static_cast<SimDuration>(seconds * 1e6); };
    SimTime when = 0;
    while (true) {
      if (tenant.burst_remaining > 0) {
        --tenant.burst_remaining;
        tenant.burst_next += micros(plan.burst_spacing_s);
        when = tenant.burst_next;
        if (when > horizon_) {
          tenant.burst_remaining = 0;
          continue;
        }
        break;
      }
      SimTime& t = tenant.cursor;
      switch (plan.arrivals) {
        case workloads::ScaleArrivals::kPoisson:
          t += micros(tenant.rng.Exponential(plan.mean_interval_s));
          break;
        case workloads::ScaleArrivals::kPeriodic:
          t += micros(plan.mean_interval_s);
          break;
        case workloads::ScaleArrivals::kDiurnal: {
          // Thinned Poisson: candidates at the peak rate, accepted with
          // probability rate(t) / peak.
          const double amplitude = std::clamp(plan.diurnal_amplitude, 0.0, 1.0);
          const double base_rate = 1.0 / plan.mean_interval_s;
          const double peak_rate = base_rate * (1.0 + amplitude);
          while (true) {
            t += micros(tenant.rng.Exponential(1.0 / peak_rate));
            const double phase = 2.0 * std::numbers::pi * (static_cast<double>(t) / 1e6) /
                                 plan.diurnal_period_s;
            const double rate = base_rate * (1.0 + amplitude * std::sin(phase));
            if (tenant.rng.NextDouble() * peak_rate <= rate || t > horizon_) {
              break;
            }
          }
          break;
        }
        case workloads::ScaleArrivals::kBursty:
          t += micros(tenant.rng.Exponential(plan.mean_interval_s));
          tenant.burst_next = t;
          tenant.burst_remaining = std::max(0, plan.burst_size - 1);
          break;
      }
      when = plan.arrivals == workloads::ScaleArrivals::kBursty ? tenant.burst_next : t;
      if (when > horizon_) {
        return;
      }
      break;
    }
    // Overlapping bursts can draw an epoch already in the past: fire now.
    when = std::max(when, loop_.now());
    ++armed_;
    loop_.ScheduleAt(when, [this, t = &tenant] { OnArrival(*t); });
  }

  void OnArrival(Tenant& tenant) {
    --armed_;
    if (tracer_ != nullptr) {
      tracer_->Begin();
    }
    Fire(tenant);
    ScheduleNextArrival(tenant);
    if (tracer_ != nullptr) {
      tracer_->End(Span::kDriver);
    }
  }

  void Fire(Tenant& tenant) {
    ++fired_;
    if (tracer_ != nullptr) {
      tracer_->Begin();
    }
    if (tenant.pipeline != nullptr) {
      platform_->InvokePipeline(*tenant.pipeline, tenant.inputs,
                                [this](const faas::PipelineRecord& record) {
                                  Complete(record.failed, record.total,
                                           record.extract_time + record.load_time,
                                           record.num_tasks);
                                });
    } else {
      const faas::InputObject& input = tenant.inputs[tenant.rng.Index(tenant.inputs.size())];
      std::vector<double> args = workloads::SampleArgs(*tenant.fn, tenant.rng);
      platform_->Invoke(tenant.fn->name, {input}, std::move(args),
                        [this](const faas::InvocationRecord& record) {
                          Complete(record.failed || record.shed, record.total,
                                   record.extract_time + record.load_time, 1);
                        });
    }
    if (tracer_ != nullptr) {
      tracer_->End(Span::kPlatformInvoke);
    }
  }

  void Complete(bool failed, SimDuration total, SimDuration el, std::size_t executions) {
    if (tracer_ != nullptr) {
      tracer_->Begin();
    }
    ++completed_;
    failed_ += failed ? 1 : 0;
    executions_ += executions;
    latency_ms_.push_back(static_cast<double>(total) / 1e3);
    el_ms_ += static_cast<double>(el) / 1e3;
    if (tracer_ != nullptr) {
      tracer_->End(Span::kDriver);
    }
  }

  // Steps the loop until every request fired within the horizon completed.
  // Stepping (rather than RunUntil) lets the traced run time each event and
  // keeps the traced and untraced runs' simulated fingerprints identical.
  void Drive() {
    horizon_ = static_cast<SimTime>(spec_.duration_s * 1e6);
    for (auto& tenant : tenants_) {
      ScheduleNextArrival(*tenant);
    }
    const SimTime cap = horizon_ + kDrainCap;
    SimTime next_scrape = kScrapePeriod;
    SimTime next_sample = 0;
    while ((completed_ < fired_ || armed_ > 0) && loop_.now() <= cap) {
      if (tracer_ == nullptr) {
        if (!loop_.Step()) {
          break;
        }
      } else {
        const std::int64_t start = WallNs();
        tracer_->set_in_step(true);
        const bool stepped = loop_.Step();
        tracer_->set_in_step(false);
        step_ns_ += WallNs() - start;
        if (!stepped) {
          break;
        }
        pending_peak_ = std::max(pending_peak_, loop_.pending_events());
        while (cluster_ != nullptr && loop_.now() >= next_sample) {
          capacity_sum_ += static_cast<double>(cluster_->TotalCapacity());
          used_peak_ = std::max(used_peak_, cluster_->TotalUsed());
          ++samples_;
          next_sample += kSamplePeriod;
        }
      }
      // Scrapes run between events, so they schedule nothing on the loop.
      while (timeline_ != nullptr && loop_.now() >= next_scrape) {
        const std::int64_t start = WallNs();
        if (tracer_ != nullptr) {
          tracer_->Begin();
        }
        slo_->Evaluate(next_scrape);
        timeline_->Scrape(next_scrape);
        if (tracer_ != nullptr) {
          tracer_->End(Span::kObs);
        }
        scrape_ns_ += WallNs() - start;
        ++scrapes_;
        next_scrape += kScrapePeriod;
      }
    }
  }

  // ---- Reporting -----------------------------------------------------------------

  // Per-layer counters read from the registry. Metrics of layers a workload
  // does not run (OFC layers in OWK mode) read 0.
  void CollectCounters(std::map<std::string, double>* layer) const {
    auto& m = *layer;
    const auto counter = [this](const char* name) {
      return static_cast<double>(metrics_.CounterTotal(name));
    };
    const double executions = static_cast<double>(executions_);
    const double scheduled = static_cast<double>(loop_.total_scheduled());
    const double dispatched = static_cast<double>(loop_.total_dispatched());
    m["sim.events_per_invocation"] = Ratio(dispatched, executions);
    m["sim.cancel_frac"] = Ratio(
        scheduled - dispatched - static_cast<double>(loop_.pending_events()), scheduled);

    const double invocations = counter("ofc.platform.invocations");
    m["platform.cold_start_frac"] = Ratio(counter("ofc.platform.cold_starts"), invocations);
    m["platform.oom_retry_frac"] = Ratio(counter("ofc.platform.oom_kills"), invocations);
    m["platform.failed_frac"] = Ratio(static_cast<double>(failed_), static_cast<double>(fired_));
    const obs::Series* queue_wait = metrics_.FindSeries("ofc.platform.queue_wait_ms");
    m["platform.queue_wait_ms_p99"] =
        queue_wait != nullptr ? Quantile(queue_wait->samples().values(), 0.99) : 0.0;

    const double hits = counter("ofc.proxy.cache_hits");
    m["proxy.hit_ratio"] = Ratio(hits, hits + counter("ofc.proxy.cache_misses"));

    const double model = counter("ofc.predictor.model_predictions");
    m["ml.model_prediction_frac"] = Ratio(model, model + counter("ofc.predictor.booked_fallbacks"));
    const double bad = counter("ofc.predictor.bad_predictions");
    m["ml.bad_prediction_frac"] = Ratio(bad, bad + counter("ofc.predictor.good_predictions"));
    m["ml.pretrain_s"] = pretrain_s_;

    const double rc_writes = counter("ofc.ramcloud.writes");
    const double rc_rejects = counter("ofc.ramcloud.write_rejects");
    m["ramcloud.local_hit_frac"] =
        Ratio(counter("ofc.ramcloud.read_hits_local"), counter("ofc.ramcloud.reads"));
    m["ramcloud.evictions_per_write"] = Ratio(counter("ofc.ramcloud.evictions"), rc_writes);
    m["ramcloud.write_reject_frac"] = Ratio(rc_rejects, rc_writes + rc_rejects);
    m["ramcloud.migrations"] = counter("ofc.ramcloud.migrations");

    m["store.reads_per_invocation"] = Ratio(counter("ofc.store.reads"), executions);
    m["store.writes_per_invocation"] = Ratio(counter("ofc.store.writes"), executions);
    m["store.bytes_read_per_invocation"] = Ratio(counter("ofc.store.bytes_read"), executions);
    m["store.bytes_written_per_invocation"] =
        Ratio(counter("ofc.store.bytes_written"), executions);
  }

  // What an observed run leaves behind: the exports, timed as one end-of-run
  // step, and the sinks' record counts.
  void CollectObs(std::map<std::string, double>* layer) const {
    const std::int64_t start = WallNs();
    metrics_.SnapshotJson(loop_.now());
    timeline_->ToJson();
    slo_->HealthJson(loop_.now());
    trace_.ToJson();
    flight_.ToJson("end of run");
    auto& m = *layer;
    m["obs.export_s"] = static_cast<double>(WallNs() - start) / 1e9;
    m["obs.trace_events"] = static_cast<double>(trace_.num_events());
    m["obs.flight_records"] = static_cast<double>(flight_.total_recorded());
    m["obs.scrape_us_mean"] = Ratio(static_cast<double>(scrape_ns_) / 1e3,
                                    static_cast<double>(scrapes_));
  }

  void CollectTraced(std::int64_t run_ns, std::map<std::string, double>* layer) const {
    auto& m = *layer;
    const Tracer& t = *tracer_;
    const double wall = static_cast<double>(run_ns);
    const auto self = [&t](Span s) { return static_cast<double>(t.self_ns(s)); };
    const auto calls = [&t](Span s) { return static_cast<double>(t.calls(s)); };
    const auto per_call = [&](std::initializer_list<Span> spans) {
      double ns = 0.0;
      double n = 0.0;
      for (Span s : spans) {
        ns += self(s);
        n += calls(s);
      }
      return Ratio(ns, n);
    };
    const auto share = [&](std::initializer_list<Span> spans) {
      double ns = 0.0;
      for (Span s : spans) {
        ns += self(s);
      }
      return ns / wall;
    };

    m["sim.pending_peak"] = static_cast<double>(pending_peak_);

    m["platform.invoke_self_ns"] = per_call({Span::kPlatformInvoke});
    m["platform.resume_self_ns"] = per_call({Span::kPlatformResume});
    // Without OFC the sizing and memory hooks are the platform's own defaults.
    m["platform.wall_share"] =
        share({Span::kPlatformInvoke, Span::kPlatformResume}) +
        (ofc_ != nullptr ? 0.0 : share({Span::kMlPredict, Span::kMlTrain, Span::kCacheAgent}));

    const TimedDataService& data = *timed_data_;
    m["proxy.read_calls"] = calls(Span::kProxyRead);
    m["proxy.write_calls"] = calls(Span::kProxyWrite);
    m["proxy.read_self_ns"] = per_call({Span::kProxyRead});
    m["proxy.write_self_ns"] = per_call({Span::kProxyWrite});
    m["proxy.wall_share"] = share({Span::kProxyRead, Span::kProxyWrite, Span::kProxyOther});
    m["proxy.read_sim_ms_p50"] = Quantile(data.read_sim_ms(), 0.5);
    m["proxy.read_sim_ms_p99"] = Quantile(data.read_sim_ms(), 0.99);
    m["proxy.write_sim_ms_p50"] = Quantile(data.write_sim_ms(), 0.5);
    m["proxy.write_sim_ms_p99"] = Quantile(data.write_sim_ms(), 0.99);
    m["proxy.read_byte_share"] =
        Ratio(static_cast<double>(data.read_bytes()),
              static_cast<double>(data.read_bytes() + data.written_bytes()));
    m["proxy.persistor_runs_per_write"] =
        Ratio(static_cast<double>(metrics_.CounterTotal("ofc.proxy.persistor_runs")),
              calls(Span::kProxyWrite));

    if (ofc_ != nullptr) {
      m["ml.predict_us_p50"] = Quantile(timed_hooks_->predict_us(), 0.5);
      m["ml.predict_us_p99"] = Quantile(timed_hooks_->predict_us(), 0.99);
      m["ml.train_us_mean"] = per_call({Span::kMlTrain}) / 1e3;
      m["ml.wall_share"] = share({Span::kMlPredict, Span::kMlTrain});
      m["cache_agent.self_ns"] = per_call({Span::kCacheAgent});
      m["cache_agent.wall_share"] = share({Span::kCacheAgent});
      const double capacity = Ratio(capacity_sum_, static_cast<double>(samples_));
      m["cache_agent.capacity_mb_mean"] = capacity / static_cast<double>(MiB(1));
      m["cache_agent.working_set_ratio"] =
          Ratio(static_cast<double>(data.distinct_read_bytes()), capacity);
      m["ramcloud.used_mb_peak"] =
          static_cast<double>(used_peak_) / static_cast<double>(MiB(1));
    }
    // Routing runs in both modes: the default hooks route vanilla OWK.
    m["routing.self_ns"] = per_call({Span::kRouting});
    m["routing.wall_share"] = share({Span::kRouting});
    m["obs.wall_share"] = share({Span::kObs});

    // Step time no seam span covered; everything else outside the layers is
    // the benchmark's own (its handlers plus the stepping loop between events).
    const double unattributed = static_cast<double>(step_ns_ - t.step_covered_ns());
    double layers = unattributed;
    for (int s = 0; s < static_cast<int>(Span::kCount); ++s) {
      if (static_cast<Span>(s) != Span::kDriver) {
        layers += self(static_cast<Span>(s));
      }
    }
    m["unattributed.wall_share"] = unattributed / wall;
    m["driver.wall_share"] = (wall - layers) / wall;
  }

  const WorkloadSpec& spec_;
  Rng rng_;
  std::unique_ptr<Tracer> tracer_;

  // The stack, in faasload::Environment's construction order. The loop is
  // declared first so it outlives every component holding a pointer to it.
  sim::EventLoop loop_;
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder trace_;
  obs::FlightRecorder flight_;
  std::unique_ptr<store::ObjectStore> rsds_;
  std::unique_ptr<rc::Cluster> cluster_;
  std::unique_ptr<core::OfcSystem> ofc_;
  std::unique_ptr<faas::DirectDataService> direct_;
  faas::PlatformHooks default_hooks_;
  std::unique_ptr<TimedDataService> timed_data_;
  std::unique_ptr<TimedHooks> timed_hooks_;
  std::unique_ptr<faas::Platform> platform_;
  std::unique_ptr<obs::SloMonitor> slo_;
  std::unique_ptr<obs::TimelineRecorder> timeline_;

  std::vector<std::unique_ptr<Tenant>> tenants_;
  SimTime horizon_ = 0;
  double pretrain_s_ = 0.0;
  std::uint64_t armed_ = 0;  // Tenants with an arrival planted on the loop.
  std::uint64_t fired_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t executions_ = 0;
  std::vector<double> latency_ms_;
  double el_ms_ = 0.0;

  // Traced-run bookkeeping.
  std::int64_t step_ns_ = 0;
  std::size_t pending_peak_ = 0;
  double capacity_sum_ = 0.0;
  Bytes used_peak_ = 0;
  std::uint64_t samples_ = 0;
  std::int64_t scrape_ns_ = 0;
  std::uint64_t scrapes_ = 0;
};

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = BuildWorkloads();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

RepResult RunRep(const WorkloadSpec& spec, std::uint64_t seed, bool traced) {
  return Rep(spec, seed, traced).Run();
}

double SetupSeconds(const WorkloadSpec& spec, std::uint64_t seed) {
  return Rep(spec, seed, false).TimeSetup();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(lo), values.end());
  const double low = values[lo];
  if (lo + 1 >= values.size()) {
    return low;
  }
  const double high = *std::min_element(values.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                                        values.end());
  return low + (rank - static_cast<double>(lo)) * (high - low);
}

}  // namespace ofc::perfbench
