#include "src/faas/platform.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

#include "src/common/logging.h"
#include "src/common/sim_assert.h"

namespace ofc::faas {

using obs::FlightEventKind;

// ---- Default hooks: vanilla OpenWhisk behaviour ---------------------------------

PlatformHooks::Sizing PlatformHooks::SizeInvocation(const FunctionConfig& fn,
                                                    const std::vector<InputObject>&,
                                                    const std::vector<double>&) {
  return Sizing{fn.booked_memory, false};
}

std::size_t PlatformHooks::PickSandbox(const std::vector<SandboxInfo>& candidates, Bytes,
                                       const std::vector<InputObject>&) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].last_used > candidates[best].last_used) {
      best = i;
    }
  }
  return best;
}

int PlatformHooks::PickWorkerForNewSandbox(const FunctionConfig&,
                                           const std::vector<InputObject>&,
                                           const std::vector<int>& candidates) {
  return candidates.empty() ? -1 : candidates.front();
}

void PlatformHooks::OnSandboxMemoryChange(const SandboxMemoryEvent&) {}

bool PlatformHooks::TryRaiseMemory(int, Bytes, Bytes, SimDuration) { return false; }

void PlatformHooks::OnInvocationComplete(const FunctionConfig&,
                                         const std::vector<InputObject>&,
                                         const std::vector<double>&,
                                         const InvocationRecord&) {}

// ---- Platform ---------------------------------------------------------------------

Platform::Platform(sim::EventLoop* loop, PlatformOptions options, DataService* data,
                   PlatformHooks* hooks, Rng rng)
    : loop_(loop), options_(options), data_(data), hooks_(hooks), rng_(rng) {
  assert(loop_ != nullptr && data_ != nullptr);
  if (hooks_ == nullptr) {
    default_hooks_ = std::make_unique<PlatformHooks>();
    hooks_ = default_hooks_.get();
  }
  worker_reserved_.assign(static_cast<std::size_t>(options_.num_workers), 0);
  worker_alive_.assign(static_cast<std::size_t>(options_.num_workers), true);

  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  emit_ = obs::Emitter(options_.trace, options_.flight,
                       {obs::kPidInvocations, obs::kPidPipelines});
  m_.invocations = metrics_->GetCounter("ofc.platform.invocations");
  m_.cold_starts = metrics_->GetCounter("ofc.platform.cold_starts");
  m_.warm_starts = metrics_->GetCounter("ofc.platform.warm_starts");
  m_.oom_kills = metrics_->GetCounter("ofc.platform.oom_kills");
  m_.oom_rescues = metrics_->GetCounter("ofc.platform.oom_rescues");
  m_.failed_invocations = metrics_->GetCounter("ofc.platform.failed_invocations");
  m_.retries = metrics_->GetCounter("ofc.platform.retries");
  m_.sandbox_reclaims = metrics_->GetCounter("ofc.platform.sandbox_reclaims");
  m_.queued_requests = metrics_->GetCounter("ofc.platform.queued_requests");
  m_.worker_crashes = metrics_->GetCounter("ofc.platform.worker_crashes");
  m_.worker_restores = metrics_->GetCounter("ofc.platform.worker_restores");
  m_.crash_retries = metrics_->GetCounter("ofc.platform.crash_retries");
  m_.input_bytes = metrics_->GetCounter("ofc.platform.input_bytes");
  m_.output_bytes = metrics_->GetCounter("ofc.platform.output_bytes");
  m_.shed_queue_full = metrics_->GetCounter("ofc.overload.shed", "queue_full");
  m_.shed_deadline = metrics_->GetCounter("ofc.overload.shed", "deadline");
  m_.queue_wait_ms = metrics_->GetSeries("ofc.platform.queue_wait_ms");
  m_.startup_ms = metrics_->GetSeries("ofc.platform.startup_ms");
  m_.extract_ms = metrics_->GetSeries("ofc.platform.extract_ms");
  m_.transform_ms = metrics_->GetSeries("ofc.platform.transform_ms");
  m_.load_ms = metrics_->GetSeries("ofc.platform.load_ms");
  m_.total_ms = metrics_->GetSeries("ofc.platform.total_ms");
}

Platform::FnMetrics& Platform::FnMetricsFor(const std::string& function) {
  auto it = fn_metrics_.find(function);
  if (it == fn_metrics_.end()) {
    FnMetrics cells;
    cells.invocations = metrics_->GetCounter("ofc.platform.invocations_by_function", function);
    cells.cold_starts = metrics_->GetCounter("ofc.platform.cold_starts_by_function", function);
    cells.total_ms = metrics_->GetSeries("ofc.platform.total_ms_by_function", function);
    it = fn_metrics_.emplace(function, cells).first;
  }
  return it->second;
}

Platform::FnMetrics& Platform::FnMetricsAt(std::uint32_t fn_index, const std::string& function) {
  if (fn_index == 0) {
    return FnMetricsFor(function);
  }
  if (fn_index < fn_metrics_by_index_.size() && fn_metrics_by_index_[fn_index] != nullptr) {
    return *fn_metrics_by_index_[fn_index];
  }
  FnMetrics& cells = FnMetricsFor(function);
  if (fn_index >= fn_metrics_by_index_.size()) {
    fn_metrics_by_index_.resize(fn_index + 1, nullptr);
  }
  fn_metrics_by_index_[fn_index] = &cells;
  return cells;
}

// Phase latencies and per-function breakdowns, recorded for every terminal
// completion (success or failure) exactly once.
void Platform::RecordCompletion(const InvocationRecord& record) {
  m_.startup_ms->Observe(ToMillis(record.startup_time));
  m_.extract_ms->Observe(ToMillis(record.extract_time));
  m_.transform_ms->Observe(ToMillis(record.compute_time));
  m_.load_ms->Observe(ToMillis(record.load_time));
  m_.total_ms->Observe(ToMillis(record.total));
  m_.input_bytes->Add(static_cast<std::uint64_t>(record.input_bytes));
  m_.output_bytes->Add(static_cast<std::uint64_t>(record.output_bytes));
  FnMetrics& fn = FnMetricsAt(record.fn_index, record.function);
  ++*fn.invocations;
  if (record.cold_start) {
    ++*fn.cold_starts;
  }
  fn.total_ms->Observe(ToMillis(record.total));
}

Status Platform::RegisterFunction(FunctionConfig config) {
  if (config.spec.name.empty()) {
    return InvalidArgumentError("function needs a name");
  }
  config.booked_memory =
      std::clamp(config.booked_memory, options_.min_sandbox_memory, options_.max_sandbox_memory);
  config.fn_index = next_fn_index_;
  auto [it, inserted] = functions_.emplace(config.spec.name, std::move(config));
  if (!inserted) {
    return AlreadyExistsError("function already registered: " + it->first);
  }
  ++next_fn_index_;
  idle_by_function_.resize(next_fn_index_);
  return OkStatus();
}

const FunctionConfig* Platform::GetFunction(const std::string& name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : &it->second;
}

Bytes Platform::SandboxReserved(int worker) const {
  return worker_reserved_[static_cast<std::size_t>(worker)];
}

Bytes Platform::WorkerFree(int worker) const {
  return options_.worker_memory - worker_reserved_[static_cast<std::size_t>(worker)];
}

std::size_t Platform::NumSandboxes(int worker) const {
  std::size_t count = 0;
  for (const auto& [id, sandbox] : sandboxes_) {
    count += sandbox.worker == worker;
  }
  return count;
}

std::size_t Platform::NumIdleSandboxes(const std::string& function) const {
  const FunctionConfig* fn = GetFunction(function);
  return fn == nullptr ? 0 : idle_by_function_[fn->fn_index].size();
}

int Platform::HomeWorker(const FunctionConfig& fn) const {
  const std::size_t hash = std::hash<std::string>{}(fn.spec.name + "|" + fn.tenant);
  return static_cast<int>(hash % static_cast<std::size_t>(options_.num_workers));
}

void Platform::Invoke(const std::string& function, std::vector<InputObject> inputs,
                      std::vector<double> args, InvokeCallback done) {
  auto request = request_pool_.Make();
  request->id = next_invocation_id_++;
  request->function = function;
  request->inputs = std::move(inputs);
  request->args = std::move(args);
  request->done = std::move(done);
  request->arrival = loop_->now();
  std::string& output_key = request->record.output_key;
  const std::string id = std::to_string(request->id);
  output_key.reserve(5 + function.size() + id.size());
  output_key.append("out/").append(function).append("/").append(id);
  InvokeInternal(std::move(request));
}

void Platform::InvokeInternal(std::shared_ptr<Request> request) {
  ++*m_.invocations;
  emit_.Emit({.kind = FlightEventKind::kSubmit, .time = loop_->now(), .invocation = request->id,
              .parent = request->pipeline_id, .subject = request->function});
  Dispatch(std::move(request));
}

workloads::MediaDescriptor Platform::AggregateMedia(const std::vector<InputObject>& inputs) {
  if (inputs.empty()) {
    workloads::MediaDescriptor desc;
    desc.kind = workloads::InputKind::kText;
    desc.byte_size = KiB(1);
    return desc;
  }
  workloads::MediaDescriptor desc = inputs.front().media;
  Bytes total = 0;
  for (const InputObject& input : inputs) {
    total += input.media.byte_size;
  }
  // Multi-object inputs scale the content volume along the dominant axis.
  if (desc.byte_size > 0 && total != desc.byte_size) {
    const double scale = static_cast<double>(total) / static_cast<double>(desc.byte_size);
    switch (desc.kind) {
      case workloads::InputKind::kImage: {
        desc.width = static_cast<int>(desc.width * std::sqrt(scale));
        desc.height = static_cast<int>(desc.height * std::sqrt(scale));
        break;
      }
      case workloads::InputKind::kAudio:
      case workloads::InputKind::kVideo:
        desc.duration_s *= scale;
        break;
      case workloads::InputKind::kText:
        break;
    }
  }
  desc.byte_size = total;
  return desc;
}

void Platform::Dispatch(std::shared_ptr<Request> request) {
  if (request->fn == nullptr) {
    request->fn = GetFunction(request->function);
  }
  const FunctionConfig* fn = request->fn;
  if (fn == nullptr) {
    InvocationRecord record;
    record.id = request->id;
    record.function = request->function;
    record.failed = true;
    record.final_status = StatusCode::kInternal;
    ++*m_.failed_invocations;
    loop_->ScheduleAfter(0, [request, record] { request->done(record); });
    return;
  }

  if (!request->has_demand) {
    request->demand =
        workloads::ComputeDemand(fn->spec, AggregateMedia(request->inputs), request->args, &rng_);
    request->has_demand = true;
  }

  // Per-function / per-tenant concurrency caps: over-limit requests wait in
  // the queue (subject to depth/deadline shedding) and re-probe as running
  // invocations complete.
  if (OverConcurrencyLimit(*fn)) {
    EnqueueOrShed(std::move(request));
    return;
  }

  PlatformHooks::Sizing sizing;
  if (request->forced_limit > 0) {
    sizing.memory_limit = request->forced_limit;
    sizing.should_cache = false;  // The OOM-retry path runs conservatively.
  } else {
    sizing = hooks_->SizeInvocation(*fn, request->inputs, request->args);
  }
  sizing.memory_limit =
      std::clamp(sizing.memory_limit, options_.min_sandbox_memory, options_.max_sandbox_memory);

  // 1. Prefer an idle warm sandbox of this function (avoids cold start).
  const std::vector<Sandbox*>& idle = idle_by_function_[fn->fn_index];
  if (!idle.empty()) {
    std::vector<SandboxInfo>& candidates = pick_candidates_;
    candidates.clear();
    for (const Sandbox* sandbox : idle) {
      candidates.push_back(
          SandboxInfo{sandbox->id, sandbox->worker, sandbox->limit, sandbox->last_used});
    }
    const std::size_t pick =
        std::min(hooks_->PickSandbox(candidates, sizing.memory_limit, request->inputs),
                 candidates.size() - 1);
    Sandbox* sandbox = idle[pick];
    UnindexIdle(*sandbox);
    if (sandbox->keepalive_event != 0) {
      loop_->Cancel(sandbox->keepalive_event);
      sandbox->keepalive_event = 0;
    }
    sandbox->busy = true;
    // The cgroup limit grows within the booked reservation, so no scheduler
    // capacity check applies; the update runs asynchronously (§6.4), costing
    // only dispatch overhead on the critical path.
    SetSandboxLimit(sandbox, sizing.memory_limit);
    ++*m_.warm_starts;
    RunOnSandbox(std::move(request), sandbox, sizing, /*cold=*/false,
                 options_.dispatch_overhead);
    return;
  }

  // 2. Create a new sandbox; the scheduler reserves the booked amount.
  const int worker = PlaceNewSandbox(*fn, request->inputs, fn->booked_memory);
  if (worker < 0) {
    EnqueueOrShed(std::move(request));
    return;
  }
  Sandbox sandbox;
  sandbox.id = next_sandbox_id_++;
  sandbox.fn_index = fn->fn_index;
  sandbox.worker = worker;
  sandbox.busy = true;
  sandbox.booked = fn->booked_memory;
  sandbox.limit = 0;
  sandbox.last_used = loop_->now();
  auto [it, inserted] = sandboxes_.emplace(sandbox.id, sandbox);
  assert(inserted);
  worker_reserved_[static_cast<std::size_t>(worker)] += sandbox.booked;
  SetSandboxLimit(&it->second, sizing.memory_limit);
  ++*m_.cold_starts;
  RunOnSandbox(std::move(request), &it->second, sizing, /*cold=*/true,
               options_.dispatch_overhead + options_.cold_start);
}

int Platform::PlaceNewSandbox(const FunctionConfig& fn, const std::vector<InputObject>& inputs,
                              Bytes limit) {
  auto candidates = [&]() {
    std::vector<int> fits;
    const int home = HomeWorker(fn);
    for (int i = 0; i < options_.num_workers; ++i) {
      const int w = (home + i) % options_.num_workers;
      if (worker_alive_[static_cast<std::size_t>(w)] && WorkerFree(w) >= limit) {
        fits.push_back(w);
      }
    }
    return fits;
  };

  std::vector<int> fits = candidates();
  // Reclaim idle sandboxes (globally LRU) until some worker has capacity, as
  // the invoker does under memory pressure.
  while (fits.empty()) {
    std::uint64_t victim = 0;
    SimTime oldest = 0;
    for (const auto& [id, sandbox] : sandboxes_) {
      if (!sandbox.busy && (victim == 0 || sandbox.last_used < oldest)) {
        victim = id;
        oldest = sandbox.last_used;
      }
    }
    if (victim == 0) {
      return -1;
    }
    ++*m_.sandbox_reclaims;
    DestroySandbox(victim);
    fits = candidates();
  }
  const int choice = hooks_->PickWorkerForNewSandbox(fn, inputs, fits);
  if (choice >= 0 && std::find(fits.begin(), fits.end(), choice) != fits.end()) {
    return choice;
  }
  return fits.front();
}

void Platform::SetSandboxLimit(Sandbox* sandbox, Bytes new_limit) {
  if (sandbox->limit == new_limit) {
    return;
  }
  SandboxMemoryEvent event;
  event.worker = sandbox->worker;
  event.booked = sandbox->booked;
  event.old_limit = sandbox->limit;
  event.new_limit = new_limit;
  sandbox->limit = new_limit;
  hooks_->OnSandboxMemoryChange(event);
}

void Platform::RunOnSandbox(std::shared_ptr<Request> request, Sandbox* sandbox,
                            PlatformHooks::Sizing sizing, bool cold, SimDuration startup) {
  InvocationRecord& record = request->record;
  std::string output_key = std::move(record.output_key);
  record = InvocationRecord{};
  record.output_key = std::move(output_key);
  record.id = request->id;
  record.function = request->function;
  record.fn_index = request->fn->fn_index;
  record.worker = sandbox->worker;
  record.cold_start = cold;
  record.retries = request->retries;
  record.oom_killed = request->oom_killed;
  record.memory_limit = sandbox->limit;
  record.memory_used = request->demand.memory;
  record.should_cache = sizing.should_cache;
  record.startup_time = startup;
  request->sandbox_id = sandbox->id;

  request->running_worker = sandbox->worker;
  AddInFlight(request);
  TrackRunning(*request, +1);
  if (request->first_queued != 0 && !request->queue_wait_recorded) {
    request->queue_wait_recorded = true;
    m_.queue_wait_ms->Observe(ToMillis(loop_->now() - request->first_queued));
  }

  const SimTime now = loop_->now();
  if (now > request->arrival) {
    emit_.Emit({.kind = FlightEventKind::kQueueWait, .time = now, .invocation = request->id,
                .duration = now - request->arrival});
  }
  emit_.Emit({.kind = cold ? FlightEventKind::kColdStart : FlightEventKind::kWarmStart, .time = now,
              .invocation = request->id, .parent = request->pipeline_id, .worker = sandbox->worker,
              .subject = request->function, .duration = startup});

  const std::uint64_t epoch = request->crash_epoch;
  loop_->ScheduleAfter(startup, [this, request = std::move(request), epoch]() mutable {
    if (request->crash_epoch != epoch) {
      return;  // The worker crashed during startup; the retry owns the request.
    }
    request->next_input = 0;
    request->extract_start = loop_->now();
    Extract(std::move(request));
  });
}

InvocationContext Platform::ContextFor(const Request& request) const {
  InvocationContext ctx;
  ctx.invocation_id = request.id;
  ctx.function = request.function;
  ctx.fn_index = request.fn->fn_index;
  ctx.worker = request.record.worker;
  ctx.pipeline_id = request.pipeline_id;
  ctx.final_stage = request.final_stage;
  ctx.should_cache = request.record.should_cache;
  return ctx;
}

void Platform::Extract(std::shared_ptr<Request> request) {
  if (request->next_input < request->inputs.size()) {
    // Read inputs sequentially through the data service. The pending record
    // holds a copy of `request` while this frame keeps its own, so the key
    // argument stays alive even if the read completes synchronously and the
    // chain finishes the invocation.
    PendingIo& io = *pending_io_.Acquire();
    io.request = request;
    io.epoch = request->crash_epoch;
    io.input = request->next_input++;
    data_->Read(ContextFor(*request), request->inputs[io.input].key,
                [this, io = &io](Result<Bytes> size) { OnInputRead(*io, size); });
    return;
  }
  InvocationRecord& record = request->record;
  record.extract_time = loop_->now() - request->extract_start;
  emit_.Emit({.kind = FlightEventKind::kExtract, .time = loop_->now(), .invocation = request->id,
              .parent = request->pipeline_id, .worker = record.worker,
              .subject = request->function, .duration = record.extract_time,
              .n = record.input_bytes});
  Transform(std::move(request));
}

std::shared_ptr<Platform::Request> Platform::TakeRequest(PendingIo& io) {
  std::shared_ptr<Request> request = std::move(io.request);
  pending_io_.Release(&io);
  return request;
}

void Platform::OnInputRead(PendingIo& io, const Result<Bytes>& size) {
  const std::uint64_t epoch = io.epoch;
  const std::size_t input = io.input;
  std::shared_ptr<Request> request = TakeRequest(io);
  if (!size.ok()) {
    OFC_LOG(Warning) << "read failed for " << request->inputs[input].key << ": "
                     << size.status().ToString();
  }
  if (request->crash_epoch != epoch) {
    return;  // Worker crashed mid-read; a retry owns the request now.
  }
  if (size.ok()) {
    request->record.input_bytes += *size;
  }
  Extract(std::move(request));
}

void Platform::Transform(std::shared_ptr<Request> request) {
  InvocationRecord& record = request->record;
  const workloads::InvocationDemand& demand = request->demand;
  const std::uint64_t epoch = request->crash_epoch;

  // ---- Memory-limit check (OOM semantics, §5.3.1). ----
  SimDuration compute = demand.compute;
  if (demand.memory > record.memory_limit) {
    Sandbox* sandbox = FindSandbox(request->sandbox_id);
    if (sandbox != nullptr &&
        hooks_->TryRaiseMemory(sandbox->worker, sandbox->limit, demand.memory, demand.compute)) {
      SetSandboxLimit(sandbox, demand.memory);
      record.memory_limit = sandbox->limit;
      record.oom_rescued = true;
      ++*m_.oom_rescues;
      emit_.Emit({.kind = FlightEventKind::kOomRescue, .time = loop_->now(),
                  .invocation = request->id, .parent = request->pipeline_id,
                  .worker = record.worker, .subject = request->function});
      compute += options_.cgroup_resize;  // Monitor raises the cap mid-run.
    } else {
      // OOM kill partway through the transform phase.
      ++*m_.oom_kills;
      record.oom_killed = true;
      loop_->ScheduleAfter(compute / 2, [this, request = std::move(request), epoch]() mutable {
        if (request->crash_epoch != epoch) {
          return;
        }
        emit_.Emit({.kind = FlightEventKind::kOomKill, .time = loop_->now(),
                    .invocation = request->id, .parent = request->pipeline_id,
                    .worker = request->record.worker, .subject = request->function});
        FailAndMaybeRetry(std::move(request));
      });
      return;
    }
  }

  record.compute_time = compute;
  loop_->ScheduleAfter(compute, [this, request = std::move(request), epoch]() mutable {
    if (request->crash_epoch != epoch) {
      return;
    }
    emit_.Emit({.kind = FlightEventKind::kTransform, .time = loop_->now(),
                .invocation = request->id, .parent = request->pipeline_id,
                .worker = request->record.worker, .subject = request->function,
                .duration = request->record.compute_time});
    Load(std::move(request));
  });
}

void Platform::Load(std::shared_ptr<Request> request) {
  InvocationRecord& record = request->record;
  const workloads::InvocationDemand& demand = request->demand;
  record.output_media = workloads::OutputMedia(request->fn->spec, AggregateMedia(request->inputs),
                                               demand.output_size);
  record.output_bytes = demand.output_size;
  // As in Extract, this frame's reference keeps the key and media arguments
  // alive if the write completes synchronously.
  PendingIo& io = *pending_io_.Acquire();
  io.request = request;
  io.epoch = request->crash_epoch;
  io.load_start = loop_->now();
  data_->Write(ContextFor(*request), record.output_key, demand.output_size, record.output_media,
               [this, io = &io](Status status) { OnOutputWritten(*io, status); });
}

void Platform::OnOutputWritten(PendingIo& io, const Status& status) {
  const std::uint64_t epoch = io.epoch;
  const SimTime load_start = io.load_start;
  std::shared_ptr<Request> request = TakeRequest(io);
  if (request->crash_epoch != epoch) {
    return;
  }
  InvocationRecord& record = request->record;
  record.load_time = loop_->now() - load_start;
  emit_.Emit({.kind = FlightEventKind::kLoad, .time = loop_->now(), .invocation = request->id,
              .parent = request->pipeline_id, .worker = record.worker,
              .subject = record.output_key, .duration = record.load_time,
              .n = record.output_bytes});
  if (!status.ok()) {
    FailAndMaybeRetry(std::move(request));
    return;
  }
  FinishInvocation(std::move(request));
}

void Platform::CrashWorker(int worker) {
  if (!worker_alive_[static_cast<std::size_t>(worker)]) {
    return;
  }
  worker_alive_[static_cast<std::size_t>(worker)] = false;
  ++*m_.worker_crashes;
  emit_.Emit({.kind = FlightEventKind::kWorkerCrash, .time = loop_->now(), .worker = worker});

  // The worker's sandboxes are gone (busy ones included).
  for (auto it = sandboxes_.begin(); it != sandboxes_.end();) {
    if (it->second.worker != worker) {
      ++it;
      continue;
    }
    Sandbox& sandbox = it->second;
    if (!sandbox.busy) {
      UnindexIdle(sandbox);
    }
    if (sandbox.keepalive_event != 0) {
      loop_->Cancel(sandbox.keepalive_event);
    }
    SetSandboxLimit(&sandbox, 0);
    worker_reserved_[static_cast<std::size_t>(worker)] -= sandbox.booked;
    it = sandboxes_.erase(it);
  }

  // Abort in-flight invocations on the worker and re-dispatch them elsewhere
  // (§6.1: the platform retries failed invocations; functions are expected to
  // have idempotent side effects), in id order.
  std::vector<std::shared_ptr<Request>> victims;
  for (const std::shared_ptr<Request>& request : in_flight_) {
    if (request != nullptr && request->running_worker == worker) {
      victims.push_back(request);
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  for (auto& request : victims) {
    RemoveInFlight(*request);
    TrackRunning(*request, -1);
    request->crash_epoch = ++crash_epoch_;  // Invalidates stale continuations.
    request->running_worker = -1;
    ++request->retries;
    ++*m_.crash_retries;
    ++*m_.retries;
    emit_.Emit({.kind = FlightEventKind::kRetry, .time = loop_->now(), .invocation = request->id,
                .parent = request->pipeline_id, .worker = worker, .subject = request->function,
                .detail = "worker_crash"});
    loop_->ScheduleAfter(options_.retry_delay, [this, request]() mutable {
      Dispatch(std::move(request));
    });
  }
  DrainWaitQueue();
}

void Platform::RestoreWorker(int worker) {
  if (worker_alive_[static_cast<std::size_t>(worker)]) {
    return;
  }
  worker_alive_[static_cast<std::size_t>(worker)] = true;
  ++*m_.worker_restores;
  emit_.Emit({.kind = FlightEventKind::kWorkerRestore, .time = loop_->now(), .worker = worker});
  DrainWaitQueue();
}

void Platform::AddInFlight(const std::shared_ptr<Request>& request) {
  SIM_ASSERT(request->in_flight_slot == kNotInFlight)
      << "; request " << request->id << " already in flight";
  if (free_in_flight_.empty()) {
    request->in_flight_slot = in_flight_.size();
    in_flight_.push_back(request);
    return;
  }
  request->in_flight_slot = free_in_flight_.back();
  free_in_flight_.pop_back();
  in_flight_[request->in_flight_slot] = request;
}

void Platform::RemoveInFlight(Request& request) {
  if (request.in_flight_slot == kNotInFlight) {
    return;
  }
  in_flight_[request.in_flight_slot].reset();
  free_in_flight_.push_back(request.in_flight_slot);
  request.in_flight_slot = kNotInFlight;
}

void Platform::FailAndMaybeRetry(std::shared_ptr<Request> request) {
  RemoveInFlight(*request);
  TrackRunning(*request, -1);
  ReleaseSandbox(request->sandbox_id);
  InvocationRecord& record = request->record;
  if (record.oom_killed && request->forced_limit == 0) {
    // §5.3.1: immediate retry with the tenant-booked limit, once per
    // invocation — a crash retry before it does not use it up.
    ++*m_.retries;
    ++request->retries;
    request->oom_killed = true;
    request->forced_limit = request->fn->booked_memory;
    emit_.Emit({.kind = FlightEventKind::kRetry, .time = loop_->now(), .invocation = request->id,
                .parent = request->pipeline_id, .worker = record.worker,
                .subject = request->function, .detail = "oom"});
    loop_->ScheduleAfter(options_.retry_delay,
                         [this, request = std::move(request)]() mutable {
                           Dispatch(std::move(request));
                         });
    return;
  }
  record.failed = true;
  record.final_status = StatusCode::kInternal;
  record.total = loop_->now() - request->arrival;
  ++*m_.failed_invocations;
  RecordCompletion(record);
  emit_.Emit({.kind = FlightEventKind::kFail, .time = loop_->now(), .invocation = request->id,
              .parent = request->pipeline_id, .worker = record.worker, .subject = request->function,
              .detail = record.oom_killed ? "oom" : "error", .duration = record.total});
  hooks_->OnInvocationComplete(*request->fn, request->inputs, request->args, record);
  request->done(record);
  DrainWaitQueue();
}

void Platform::FinishInvocation(std::shared_ptr<Request> request) {
  InvocationRecord& record = request->record;
  record.total = loop_->now() - request->arrival;
  RemoveInFlight(*request);
  TrackRunning(*request, -1);
  ReleaseSandbox(request->sandbox_id);
  RecordCompletion(record);
  emit_.Emit({.kind = FlightEventKind::kComplete, .time = loop_->now(), .invocation = request->id,
              .parent = request->pipeline_id, .worker = record.worker, .subject = request->function,
              .detail = record.cold_start ? "true" : "false", .duration = record.total});
  hooks_->OnInvocationComplete(*request->fn, request->inputs, request->args, record);
  request->done(record);
  DrainWaitQueue();
}

void Platform::ReleaseSandbox(std::uint64_t sandbox_id) {
  Sandbox* sandbox = FindSandbox(sandbox_id);
  if (sandbox == nullptr) {
    return;
  }
  sandbox->busy = false;
  sandbox->last_used = loop_->now();
  IndexIdle(sandbox);
  ArmKeepAlive(sandbox);
  // A newly idle sandbox is reclaimable capacity: re-probe the wait queue here,
  // not only on completion. The OOM-retry path releases its sandbox and returns
  // without completing anything — before this drain, a queued request whose
  // function's sandboxes had all been reclaimed could wait out that whole
  // window (or forever, if the retry itself kept the worker saturated).
  DrainWaitQueue();
}

void Platform::ArmKeepAlive(Sandbox* sandbox) {
  if (sandbox->keepalive_event != 0) {
    loop_->Cancel(sandbox->keepalive_event);
  }
  const std::uint64_t id = sandbox->id;
  sandbox->keepalive_event =
      loop_->ScheduleAfter(options_.keep_alive, [this, id] { DestroySandbox(id); });
}

void Platform::DestroySandbox(std::uint64_t sandbox_id) {
  auto it = sandboxes_.find(sandbox_id);
  if (it == sandboxes_.end()) {
    return;
  }
  Sandbox& sandbox = it->second;
  assert(!sandbox.busy);
  UnindexIdle(sandbox);
  if (sandbox.keepalive_event != 0) {
    loop_->Cancel(sandbox.keepalive_event);
  }
  SetSandboxLimit(&sandbox, 0);
  worker_reserved_[static_cast<std::size_t>(sandbox.worker)] -= sandbox.booked;
  sandboxes_.erase(it);
  DrainWaitQueue();
}

Platform::Sandbox* Platform::FindSandbox(std::uint64_t id) {
  auto it = sandboxes_.find(id);
  return it == sandboxes_.end() ? nullptr : &it->second;
}

namespace {
// lower_bound comparator for the per-function idle lists, sorted by id.
constexpr auto kIdLess = [](const auto* sandbox, std::uint64_t id) { return sandbox->id < id; };
}  // namespace

void Platform::IndexIdle(Sandbox* sandbox) {
  std::vector<Sandbox*>& idle = idle_by_function_[sandbox->fn_index];
  const auto at = std::lower_bound(idle.begin(), idle.end(), sandbox->id, kIdLess);
  const bool fresh = at == idle.end() || (*at)->id != sandbox->id;
  SIM_ASSERT(fresh) << "sandbox " << sandbox->id << " indexed idle twice";
  idle.insert(at, sandbox);
}

void Platform::UnindexIdle(const Sandbox& sandbox) {
  std::vector<Sandbox*>& idle = idle_by_function_[sandbox.fn_index];
  const auto at = std::lower_bound(idle.begin(), idle.end(), sandbox.id, kIdLess);
  const bool found = at != idle.end() && *at == &sandbox;
  SIM_ASSERT(found) << "sandbox " << sandbox.id << " missing from its idle index";
  idle.erase(at);
}

void Platform::DrainWaitQueue() {
  // Scheduled asynchronously: DestroySandbox can fire inside PlaceNewSandbox's
  // reclaim loop, and a synchronous drain would steal the capacity it is in the
  // middle of freeing.
  if (wait_queue_.empty() || drain_scheduled_) {
    return;
  }
  drain_scheduled_ = true;
  loop_->ScheduleAfter(0, [this] {
    drain_scheduled_ = false;
    std::deque<std::shared_ptr<Request>> pending;
    pending.swap(wait_queue_);
    for (auto& request : pending) {
      Dispatch(std::move(request));
    }
  });
}

// ---- Overload protection ------------------------------------------------------------

void Platform::EnqueueOrShed(std::shared_ptr<Request> request) {
  const SimTime now = loop_->now();
  if (request->first_queued == 0) {
    // First admission decision: the depth gate applies to new entrants only —
    // a drain re-probe must not shed a request that was already admitted.
    if (options_.max_queue_depth > 0 && wait_queue_.size() >= options_.max_queue_depth) {
      Shed(std::move(request), m_.shed_queue_full, "queue_full");
      return;
    }
    request->first_queued = now;
    if (options_.queue_deadline > 0) {
      request->queue_deadline_at = now + options_.queue_deadline;
    }
  }
  if (request->queue_deadline_at != 0) {
    if (now >= request->queue_deadline_at) {
      // Re-entering the queue at/after the deadline: the timer event may have
      // fired while this request was mid-drain, so shed here instead. Exactly
      // one of the timer and this check sheds in every interleaving (the timer
      // only acts on requests it finds queued).
      Shed(std::move(request), m_.shed_deadline, "deadline");
      return;
    }
    // (Re-)arm the deadline for this queue residence. Duplicate timers for the
    // same id are harmless no-ops once the request has been shed or dispatched.
    const std::uint64_t id = request->id;
    loop_->ScheduleAt(request->queue_deadline_at, [this, id] { ShedExpired(id); });
  }
  ++*m_.queued_requests;
  emit_.Emit({.kind = FlightEventKind::kQueue, .time = now, .invocation = request->id,
              .parent = request->pipeline_id, .subject = request->function});
  wait_queue_.push_back(std::move(request));
}

void Platform::ShedExpired(std::uint64_t request_id) {
  for (auto it = wait_queue_.begin(); it != wait_queue_.end(); ++it) {
    if ((*it)->id == request_id) {
      std::shared_ptr<Request> request = std::move(*it);
      wait_queue_.erase(it);
      Shed(std::move(request), m_.shed_deadline, "deadline");
      return;
    }
  }
}

// Completes a request that never ran: counted as failed with an explicit
// kResourceExhausted status so callers can tell shedding from execution
// failures. Phase series stay clean (nothing executed) and hooks are not
// notified (a shed carries no execution feedback for the trainer), but the
// queue wait is observed — it is the overload signal of interest.
void Platform::Shed(std::shared_ptr<Request> request, obs::Counter* cell,
                    const char* reason) {
  ++*cell;
  ++*m_.failed_invocations;
  if (request->first_queued != 0 && !request->queue_wait_recorded) {
    request->queue_wait_recorded = true;
    m_.queue_wait_ms->Observe(ToMillis(loop_->now() - request->first_queued));
  }
  InvocationRecord record;
  record.id = request->id;
  record.function = request->function;
  record.failed = true;
  record.shed = true;
  record.final_status = StatusCode::kResourceExhausted;
  record.retries = request->retries;
  record.oom_killed = request->oom_killed;
  record.total = loop_->now() - request->arrival;
  record.output_key = request->record.output_key;
  emit_.Emit({.kind = FlightEventKind::kShed, .time = loop_->now(), .invocation = request->id,
              .parent = request->pipeline_id, .subject = request->function, .detail = reason});
  // Asynchronous completion, matching every other terminal path: Shed can fire
  // synchronously inside Invoke(), and callers must not observe completion
  // before Invoke() returns.
  loop_->ScheduleAfter(0, [request = std::move(request), record] { request->done(record); });
}

bool Platform::OverConcurrencyLimit(const FunctionConfig& fn) const {
  if (options_.max_concurrency_per_function > 0) {
    const auto it = running_per_function_.find(fn.spec.name);
    if (it != running_per_function_.end() &&
        it->second >= options_.max_concurrency_per_function) {
      return true;
    }
  }
  if (options_.max_concurrency_per_tenant > 0) {
    const auto it = running_per_tenant_.find(fn.tenant);
    if (it != running_per_tenant_.end() &&
        it->second >= options_.max_concurrency_per_tenant) {
      return true;
    }
  }
  return false;
}

void Platform::TrackRunning(const Request& request, int delta) {
  if (options_.max_concurrency_per_function <= 0 &&
      options_.max_concurrency_per_tenant <= 0) {
    return;  // No limits configured; skip the bookkeeping entirely.
  }
  running_per_function_[request.function] += delta;
  running_per_tenant_[request.fn->tenant] += delta;
}

// ---- Pipelines ---------------------------------------------------------------------

void Platform::InvokePipeline(const workloads::PipelineSpec& spec,
                              std::vector<InputObject> chunks, PipelineCallback done) {
  struct PipeState {
    workloads::PipelineSpec spec;
    PipelineRecord record;
    std::vector<InputObject> objects;
    std::size_t stage = 0;
    SimTime start = 0;
    PipelineCallback done;
  };
  auto state = std::make_shared<PipeState>();
  state->spec = spec;
  state->record.id = next_pipeline_id_++;
  state->record.pipeline = spec.name;
  state->objects = std::move(chunks);
  state->start = loop_->now();
  state->done = std::move(done);
  emit_.Emit({.kind = FlightEventKind::kPipelineStart, .time = loop_->now(),
              .parent = state->record.id, .subject = spec.name,
              .n = static_cast<std::int64_t>(spec.stages.size())});

  // Declared shared so stage completion can recursively launch the next stage.
  // Weak self-capture: the task-completion callbacks hold the strong
  // references, so the closure is freed when the pipeline finishes (a strong
  // capture would leak it, and the whole pipeline state, per run).
  auto run_stage = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_run_stage = run_stage;
  *run_stage = [this, state, weak_run_stage]() {
    if (state->stage >= state->spec.stages.size()) {
      state->record.total = loop_->now() - state->start;
      emit_.Emit({.kind = FlightEventKind::kPipelineEnd, .time = loop_->now(),
                  .parent = state->record.id, .subject = state->record.pipeline,
                  .detail = state->record.failed ? "failed" : "ok", .duration = state->record.total,
                  .n = static_cast<std::int64_t>(state->record.num_tasks)});
      data_->OnPipelineComplete(state->record.id);
      state->done(state->record);
      return;
    }
    const workloads::PipelineStage& stage = state->spec.stages[state->stage];
    const FunctionConfig* fn = GetFunction(stage.function);
    if (fn == nullptr || state->objects.empty()) {
      state->record.failed = true;
      state->record.total = loop_->now() - state->start;
      state->done(state->record);
      return;
    }

    // Partition the previous stage's objects across this stage's tasks.
    const std::size_t num_tasks =
        stage.fixed_tasks > 0
            ? std::min<std::size_t>(static_cast<std::size_t>(stage.fixed_tasks),
                                    state->objects.size())
            : state->objects.size();
    std::vector<std::vector<InputObject>> task_inputs(num_tasks);
    for (std::size_t i = 0; i < state->objects.size(); ++i) {
      task_inputs[i % num_tasks].push_back(state->objects[i]);
    }

    auto outputs = std::make_shared<std::vector<InputObject>>(num_tasks);
    auto remaining = std::make_shared<std::size_t>(num_tasks);
    const bool final_stage = state->stage + 1 == state->spec.stages.size();
    for (std::size_t t = 0; t < num_tasks; ++t) {
      auto request = request_pool_.Make();
      request->id = next_invocation_id_++;
      request->function = stage.function;
      request->inputs = std::move(task_inputs[t]);
      request->args = workloads::SampleArgs(fn->spec, rng_);
      request->arrival = loop_->now();
      request->pipeline_id = state->record.id;
      request->final_stage = final_stage;
      request->record.output_key = "pipe/" + std::to_string(state->record.id) + "/s" +
                                   std::to_string(state->stage) + "/t" + std::to_string(t);
      auto self = weak_run_stage.lock();
      assert(self != nullptr);
      request->done = [this, state, outputs, remaining, t, self](
                          const InvocationRecord& record) {
        state->record.extract_time += record.extract_time;
        state->record.compute_time += record.compute_time;
        state->record.load_time += record.load_time;
        state->record.failed |= record.failed;
        ++state->record.num_tasks;
        (*outputs)[t] = InputObject{record.output_key, record.output_media};
        if (--*remaining == 0) {
          state->objects = std::move(*outputs);
          ++state->stage;
          (*self)();
        }
      };
      InvokeInternal(std::move(request));
    }
  };
  (*run_stage)();
}

}  // namespace ofc::faas
