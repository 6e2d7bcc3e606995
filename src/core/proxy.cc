#include "src/core/proxy.h"

#include <memory>

#include "src/common/logging.h"
#include "src/common/sim_assert.h"
#include "src/faas/direct_data_service.h"

namespace ofc::core {

using obs::FlightEventKind;

double CacheHitRatio(const obs::MetricsRegistry& metrics) {
  const std::uint64_t hits = metrics.CounterValue("ofc.proxy.cache_hits");
  const double total =
      static_cast<double>(hits + metrics.CounterValue("ofc.proxy.cache_misses"));
  return total <= 0 ? 0.0 : static_cast<double>(hits) / total;
}

Proxy::Proxy(sim::EventLoop* loop, rc::Cluster* cluster, store::ObjectStore* rsds,
             ProxyOptions options)
    : loop_(loop),
      cluster_(cluster),
      rsds_(rsds),
      options_(options) {
  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  emit_ = obs::Emitter(options_.trace, options_.flight, {obs::kPidStore});
  m_.cache_hits = metrics_->GetCounter("ofc.proxy.cache_hits");
  m_.cache_misses = metrics_->GetCounter("ofc.proxy.cache_misses");
  m_.admissions = metrics_->GetCounter("ofc.proxy.admissions");
  m_.admission_failures = metrics_->GetCounter("ofc.proxy.admission_failures");
  m_.shadow_writes = metrics_->GetCounter("ofc.proxy.shadow_writes");
  m_.cached_writes = metrics_->GetCounter("ofc.proxy.cached_writes");
  m_.direct_writes = metrics_->GetCounter("ofc.proxy.direct_writes");
  m_.persistor_runs = metrics_->GetCounter("ofc.proxy.persistor_runs");
  m_.persistor_conflicts = metrics_->GetCounter("ofc.proxy.persistor_conflicts");
  m_.intermediates_cached = metrics_->GetCounter("ofc.proxy.intermediates_cached");
  m_.intermediates_dropped = metrics_->GetCounter("ofc.proxy.intermediates_dropped");
  m_.external_read_boosts = metrics_->GetCounter("ofc.proxy.external_read_boosts");
  m_.external_write_invalidations =
      metrics_->GetCounter("ofc.proxy.external_write_invalidations");
  m_.fallback_writes = metrics_->GetCounter("ofc.proxy.fallback_writes");
  m_.rsds_retries = metrics_->GetCounter("ofc.proxy.rsds_retries");
  m_.read_deadlines = metrics_->GetCounter("ofc.proxy.read_deadlines");
  m_.persistor_retries = metrics_->GetCounter("ofc.proxy.persistor_retries");
  m_.persistor_drops = metrics_->GetCounter("ofc.proxy.persistor_drops");
  m_.persistor_abandons = metrics_->GetCounter("ofc.proxy.persistor_abandons");
  m_.breaker_opens = metrics_->GetCounter("ofc.breaker.opens");
  m_.breaker_closes = metrics_->GetCounter("ofc.breaker.closes");
  m_.breaker_probes = metrics_->GetCounter("ofc.breaker.probes");
  m_.breaker_probe_failures = metrics_->GetCounter("ofc.breaker.probe_failures");
  m_.breaker_bypassed_reads = metrics_->GetCounter("ofc.breaker.bypassed_reads");
  m_.breaker_bypassed_writes = metrics_->GetCounter("ofc.breaker.bypassed_writes");
  m_.corrupt_acked = metrics_->GetCounter("ofc.integrity.corrupt_acked");
  m_.reread_from_rsds = metrics_->GetCounter("ofc.integrity.reread_from_rsds");
  m_.breaker_state = metrics_->GetGauge("ofc.breaker.state");
  m_.breaker_open_time_us = metrics_->GetGauge("ofc.breaker.open_time_us");
  m_.persistor_ms = metrics_->GetSeries("ofc.proxy.persistor_ms");
}

void Proxy::PolicyAdmit(const std::string& key, Bytes size, const std::string& function) {
  if (options_.policy != nullptr) {
    options_.policy->OnAdmit(key, size, function, loop_->now());
  }
}

void Proxy::PolicyAccess(const std::string& key, Bytes size, const std::string& function) {
  if (options_.policy != nullptr) {
    options_.policy->OnAccess(key, size, function, loop_->now());
  }
}

void Proxy::PolicyRemove(const std::string& key) {
  if (options_.policy != nullptr) {
    options_.policy->OnRemove(key);
  }
}

Proxy::FnMetrics& Proxy::FnMetricsFor(const std::string& function) {
  auto it = fn_metrics_.find(function);
  if (it == fn_metrics_.end()) {
    FnMetrics cells;
    cells.hits = metrics_->GetCounter("ofc.proxy.cache_hits_by_function", function);
    cells.misses = metrics_->GetCounter("ofc.proxy.cache_misses_by_function", function);
    it = fn_metrics_.emplace(function, cells).first;
  }
  return it->second;
}

Proxy::FnMetrics& Proxy::FnMetricsForCtx(const faas::InvocationContext& ctx) {
  const std::uint32_t idx = ctx.fn_index;
  if (idx == 0 || idx >= kMaxFnIndexCache) {
    return FnMetricsFor(ctx.function);
  }
  if (idx < fn_metrics_by_index_.size()) {
    IndexedFnCells& slot = fn_metrics_by_index_[idx];
    if (slot.cells != nullptr && slot.function == ctx.function) {
      return *slot.cells;
    }
  }
  FnMetrics& cells = FnMetricsFor(ctx.function);
  if (idx >= fn_metrics_by_index_.size()) {
    fn_metrics_by_index_.resize(idx + 1);
  }
  fn_metrics_by_index_[idx] = IndexedFnCells{ctx.function, &cells};
  return cells;
}

void Proxy::InstallWebhooks() {
  rsds_->set_read_webhook([this](const std::string& key, store::ObjectStore::Resume resume) {
    HandleExternalRead(key, std::move(resume));
  });
  rsds_->set_write_webhook([this](const std::string& key, store::ObjectStore::Resume resume) {
    HandleExternalWrite(key, std::move(resume));
  });
}

void Proxy::Read(const faas::InvocationContext& ctx, const std::string& key,
                 std::function<void(Result<Bytes>)> done) {
  ReadOp& op = *reads_.Acquire();
  op.key = key;
  op.done = std::move(done);
  op.bypass = BreakerBypasses();
  if (op.bypass) {
    // Open breaker: the cache path is sick; go straight to the RSDS exactly
    // like the no-cache baseline (no admission either — nothing may touch the
    // cluster until probes succeed).
    ++*m_.breaker_bypassed_reads;
    StartRsdsRead(op);
    return;
  }
  op.ctx = ctx;
  op.issued = loop_->now();
  CacheRead(ctx.worker, key,
            [this, op = &op](Result<rc::ReadHit> hit) { OnCacheRead(*op, hit); });
}

void Proxy::OnCacheRead(ReadOp& op, const Result<rc::ReadHit>& hit) {
  const faas::InvocationContext& ctx = op.ctx;
  FnMetrics& fn = FnMetricsForCtx(ctx);
  if (hit.ok()) {
    // A hit slower than the latency SLO counts against the breaker even
    // though it is served — a crawling cache is a sick cache.
    const SimDuration elapsed = loop_->now() - op.issued;
    BreakerReport(options_.breaker_latency_slo == 0 || elapsed <= options_.breaker_latency_slo);
    ++*m_.cache_hits;
    ++*fn.hits;
    PolicyAccess(op.key, hit->size, ctx.function);
    if (hit->checksum != ExpectedChecksum(op.key, hit->size, hit->version)) {
      // I6 tripwire: the cluster's self-healing read must never surface a
      // corrupt payload. Counted (the chaos audit asserts zero), not fatal.
      ++*m_.corrupt_acked;
    }
    emit_.Emit({.kind = FlightEventKind::kCacheHit, .time = loop_->now(),
                .invocation = ctx.invocation_id, .worker = ctx.worker, .subject = op.key});
    FinishRead(op, hit->size);
    return;
  }
  const bool data_loss = hit.status().code() == StatusCode::kDataLoss;
  if (data_loss) {
    // Every cache copy was corrupt: the cluster dropped the object and this
    // read falls through to the RSDS below, re-admitting a good copy. The
    // detection is the integrity machinery working, not a sick cache path,
    // so the breaker sees it as a plain miss.
    ++*m_.reread_from_rsds;
  }
  // A plain miss is a healthy cache answering "not here"; any other error
  // (injected fault, cluster trouble) is a cache-path failure.
  BreakerReport(data_loss || hit.status().code() == StatusCode::kNotFound);
  ++*m_.cache_misses;
  ++*fn.misses;
  emit_.Emit({.kind = FlightEventKind::kCacheMiss, .time = loop_->now(),
              .invocation = ctx.invocation_id, .worker = ctx.worker, .subject = op.key});
  // Miss: fetch from the RSDS (with bounded kUnavailable retries), then admit
  // off the critical path.
  StartRsdsRead(op);
}

void Proxy::StartRsdsRead(ReadOp& op) {
  op.deadline = loop_->now() + options_.rsds_deadline;
  op.attempt = 0;
  GetWithRetry(op);
}

void Proxy::OnRsdsRead(ReadOp& op, const Result<store::ObjectMetadata>& meta) {
  if (!meta.ok()) {
    FinishRead(op, meta.status());
    return;
  }
  const Bytes size = meta->size;
  // Shadow objects are not admitted: the RSDS payload just read is the
  // *previous* version, and caching it as current would serve stale data
  // after the in-flight persistor lands.
  const faas::InvocationContext& ctx = op.ctx;
  if (!op.bypass && ctx.should_cache && !meta->IsShadow() && size > 0 &&
      size <= options_.max_cacheable_size) {
    op.size = size;
    CacheWrite(ctx.worker, op.key, size, meta->rsds_version, rc::ObjectClass::kInput,
               /*dirty=*/false, [this, op = &op](Status status) { OnAdmitted(*op, status); });
    // The function proceeds without waiting for the admission, whose
    // completion releases the record.
    ReadDone done = std::move(op.done);
    done(size);
    return;
  }
  FinishRead(op, size);
}

void Proxy::OnAdmitted(ReadOp& op, const Status& status) {
  if (status.ok()) {
    ++*m_.admissions;
    PolicyAdmit(op.key, op.size, op.ctx.function);
    emit_.Emit({.kind = FlightEventKind::kCacheAdmit, .time = loop_->now(),
                .invocation = op.ctx.invocation_id, .worker = op.ctx.worker,
                .subject = op.key});
  } else {
    ++*m_.admission_failures;
  }
  reads_.Release(&op);
}

void Proxy::FinishRead(ReadOp& op, Result<Bytes> result) {
  ReadDone done = std::move(op.done);
  reads_.Release(&op);
  done(std::move(result));
}

SimDuration Proxy::Backoff(SimDuration base, int attempt) const {
  constexpr SimDuration kCap = Seconds(30);
  SimDuration backoff = base;
  for (int i = 0; i < attempt && backoff < kCap; ++i) {
    backoff *= 2;
  }
  return backoff < kCap ? backoff : kCap;
}

void Proxy::GetWithRetry(ReadOp& op) {
  rsds_->Get(op.key, [this, op = &op](Result<store::ObjectMetadata> meta) {
    if (meta.ok() || meta.status().code() != StatusCode::kUnavailable) {
      OnRsdsRead(*op, meta);
      return;
    }
    const SimDuration backoff = Backoff(options_.rsds_retry_backoff, op->attempt);
    if (op->attempt + 1 > options_.rsds_max_retries || loop_->now() + backoff > op->deadline) {
      if (op->attempt == 0) {
        // No retry was ever attempted (retries disabled, or the first backoff
        // already overshoots the deadline): the store's own kUnavailable is
        // the truth — callers distinguish it from a spent retry budget.
        OnRsdsRead(*op, meta);
        return;
      }
      ++*m_.read_deadlines;
      OnRsdsRead(*op, DeadlineExceededError("rsds read retry budget exhausted: " + op->key));
      return;
    }
    ++*m_.rsds_retries;
    emit_.Emit(
        {.kind = FlightEventKind::kRsdsReadRetry, .time = loop_->now(), .subject = op->key});
    ++op->attempt;
    loop_->ScheduleAfter(backoff, [this, op] { GetWithRetry(*op); });
  });
}

Proxy::WriteOp& Proxy::NewWrite(const faas::InvocationContext& ctx, const std::string& key,
                                Bytes size, const workloads::MediaDescriptor& media,
                                WriteDone done) {
  WriteOp& op = *writes_.Acquire();
  op.ctx = ctx;
  op.key = key;
  op.size = size;
  op.tags = faas::MediaToTags(media);
  op.done = std::move(done);
  return op;
}

void Proxy::WriteThrough(WriteOp& op) {
  ++*m_.direct_writes;
  rsds_->Put(op.key, op.size, op.tags, std::move(op.done));
  writes_.Release(&op);
}

void Proxy::FinishWrite(WriteOp& op, Status status) {
  WriteDone done = std::move(op.done);
  writes_.Release(&op);
  done(std::move(status));
}

void Proxy::Write(const faas::InvocationContext& ctx, const std::string& key, Bytes size,
                  const workloads::MediaDescriptor& media,
                  std::function<void(Status)> done) {
  const bool intermediate = ctx.pipeline_id != 0 && !ctx.final_stage;

  // Uncacheable or predicted-unhelpful: plain synchronous RSDS write.
  if (!ctx.should_cache || size <= 0 || size > options_.max_cacheable_size) {
    ++*m_.direct_writes;
    rsds_->Put(key, size, faas::MediaToTags(media), std::move(done));
    return;
  }

  if (BreakerBypasses()) {
    // Open breaker: skip the cache entirely and write through to the RSDS —
    // the no-cache baseline write path, so open-state latency matches it.
    // Intermediates included: the next stage's read will miss and fetch here.
    ++*m_.breaker_bypassed_writes;
    ++*m_.direct_writes;
    rsds_->Put(key, size, faas::MediaToTags(media), std::move(done));
    return;
  }

  WriteOp& op = NewWrite(ctx, key, size, media, std::move(done));
  if (intermediate) {
    // Pipeline intermediates never touch the RSDS (§6.3): they are consumed by
    // the next stage and dropped when the pipeline ends. Marked persisted so
    // reclamation may drop them without a write-back (the RSDS never needs
    // them), but tracked as intermediates for the end-of-pipeline cleanup.
    CacheWrite(ctx.worker, key, size, /*version=*/0, rc::ObjectClass::kIntermediate,
               /*dirty=*/false, [this, op = &op](Status status) {
                 BreakerReport(WriteHealthy(status));
                 if (!status.ok()) {
                   // Cache full: fall back to the RSDS so the pipeline still
                   // makes progress.
                   WriteThrough(*op);
                   return;
                 }
                 ++*m_.intermediates_cached;
                 PolicyAdmit(op->key, op->size, op->ctx.function);
                 pipeline_intermediates_[op->ctx.pipeline_id].push_back(op->key);
                 FinishWrite(*op, OkStatus());
               });
    return;
  }

  if (!options_.write_back) {
    // Ablation: synchronous persistence. The payload goes straight to the
    // RSDS; a clean copy is cached for future reads.
    ++*m_.direct_writes;
    rsds_->Put(key, size, op.tags, [this, op = &op](Status status) {
      if (!status.ok()) {
        FinishWrite(*op, std::move(status));
        return;
      }
      CacheWrite(op->ctx.worker, op->key, op->size, /*version=*/0,
                 rc::ObjectClass::kFinalOutput, /*dirty=*/false, [this, op](Status cached) {
                   if (cached.ok()) {
                     PolicyAdmit(op->key, op->size, op->ctx.function);
                   }
                   writes_.Release(op);
                 });
      // Acknowledged now; the record stays until the cache write completes.
      WriteDone acked = std::move(op->done);
      acked(OkStatus());
    });
    return;
  }

  if (!options_.transparent_consistency) {
    // Relaxed mode: payload goes to the cache only; persistence is lazy (on
    // eviction), relying on RAMCloud's on-disk replication for durability.
    CacheWrite(ctx.worker, key, size, /*version=*/0, rc::ObjectClass::kFinalOutput,
               /*dirty=*/true, [this, op = &op](Status status) {
                 BreakerReport(WriteHealthy(status));
                 if (!status.ok()) {
                   WriteThrough(*op);
                   return;
                 }
                 ++*m_.cached_writes;
                 PolicyAdmit(op->key, op->size, op->ctx.function);
                 emit_.Emit({.kind = FlightEventKind::kCacheWrite, .time = loop_->now(),
                             .invocation = op->ctx.invocation_id, .worker = op->ctx.worker,
                             .subject = op->key});
                 FinishWrite(*op, OkStatus());
               });
    return;
  }

  // Transparent mode: shadow object in the RSDS + durable cache write run in
  // parallel; acknowledge when both are done, then schedule the persistor. The
  // write's record is the join: each completion holds only its address.
  op.remaining = 2;
  op.failure = OkStatus();
  op.version = 0;
  op.cache_ok = true;
  ++*m_.shadow_writes;
  rsds_->PutShadow(key, size, [this, op = &op](Result<store::ObjectMetadata> meta) {
    if (!meta.ok()) {
      op->failure = meta.status();
    } else {
      op->version = meta->latest_version;
    }
    JoinTransparentWrite(*op);
  });
  CacheWrite(ctx.worker, key, size, /*version=*/0, rc::ObjectClass::kFinalOutput,
             /*dirty=*/true, [this, op = &op](Status status) {
               BreakerReport(WriteHealthy(status));
               op->cache_ok = status.ok();
               JoinTransparentWrite(*op);
             });
}

void Proxy::JoinTransparentWrite(WriteOp& join) {
  if (--join.remaining > 0) {
    return;
  }
  const faas::InvocationContext& ctx = join.ctx;
  const std::string& key = join.key;
  const Bytes size = join.size;
  if (!join.failure.ok()) {
    if (join.failure.code() == StatusCode::kUnavailable && join.cache_ok) {
      // RSDS outage: the replicated cache copy is durable, so the write is
      // acknowledged from the cache alone (no shadow exists yet — §6.2's
      // guarantee degrades to cache-durability). A version-0 persistor pushes
      // the full payload once the store heals.
      ++*m_.fallback_writes;
      ++*m_.cached_writes;
      PolicyAdmit(key, size, ctx.function);
      emit_.Emit({.kind = FlightEventKind::kWriteFallback, .time = loop_->now(),
                  .invocation = ctx.invocation_id, .worker = ctx.worker, .subject = key});
      PersistorJob job;
      job.size = size;
      job.drop_after = true;
      job.invocation_id = ctx.invocation_id;
      job.checksum = PayloadFingerprint(key, size);
      // The store version this fallback supersedes, read through the
      // management plane (the data plane is down): the If-Match ETag for the
      // eventual compare-and-swap push. Anything newer landing after heal
      // wins over the fallback.
      const auto prior = rsds_->Stat(key);
      job.fallback_base = prior.ok() ? prior->latest_version : 0;
      job.epoch = NewWriteEpoch(key);
      SchedulePersistor(key, job);
      FinishWrite(join, OkStatus());
      return;
    }
    FinishWrite(join, join.failure);
    return;
  }
  if (!join.cache_ok) {
    // Shadow exists but the payload could not be cached: push the payload
    // directly so the RSDS converges (degenerates to a plain write).
    ++*m_.direct_writes;
    rsds_->FinalizePayload(key, join.version, size, PayloadFingerprint(key, size),
                           std::move(join.done));
    writes_.Release(&join);
    return;
  }
  ++*m_.cached_writes;
  PolicyAdmit(key, size, ctx.function);
  emit_.Emit({.kind = FlightEventKind::kCacheWrite, .time = loop_->now(),
              .invocation = ctx.invocation_id, .worker = ctx.worker, .subject = key});
  PersistorJob job;
  job.version = join.version;
  job.size = size;
  job.drop_after = true;
  job.invocation_id = ctx.invocation_id;
  job.checksum = PayloadFingerprint(key, size);
  job.epoch = NewWriteEpoch(key);
  SchedulePersistor(key, job);
  FinishWrite(join, OkStatus());
}

// ---- Circuit breaker & cache-fault injection ----------------------------------------

void Proxy::CacheRead(int worker, const std::string& key, rc::Cluster::ReadCallback done) {
  if (CacheFaulted()) {
    loop_->ScheduleAfter(0, [done = std::move(done)]() mutable {
      done(UnavailableError("cache path degraded (injected fault)"));
    });
    return;
  }
  cluster_->Read(worker, key, std::move(done));
}

void Proxy::CacheWrite(int worker, const std::string& key, Bytes size,
                       store::ObjectVersion version, rc::ObjectClass object_class,
                       bool dirty, rc::Cluster::Callback done) {
  if (CacheFaulted()) {
    loop_->ScheduleAfter(0, [done = std::move(done)]() mutable {
      done(UnavailableError("cache path degraded (injected fault)"));
    });
    return;
  }
  // Every proxy-side cache write carries the payload fingerprint, so the
  // replica checksums stamped by the cluster are verifiable end to end.
  cluster_->Write(worker, key, size, version, object_class, dirty,
                  PayloadFingerprint(key, size), std::move(done));
}

bool Proxy::BreakerBypasses() {
  if (!BreakerEnabled()) {
    return false;
  }
  if (breaker_ == BreakerState::kOpen) {
    if (loop_->now() < breaker_open_until_) {
      return true;
    }
    // Open window elapsed: go half-open and admit probe operations.
    breaker_ = BreakerState::kHalfOpen;
    breaker_successes_ = 0;
    m_.breaker_state->Set(2.0);
    m_.breaker_open_time_us->Add(static_cast<double>(loop_->now() - breaker_opened_at_));
    emit_.Emit({.kind = FlightEventKind::kBreakerHalfOpen, .time = loop_->now()});
  }
  if (breaker_ == BreakerState::kHalfOpen) {
    ++*m_.breaker_probes;
  }
  return false;
}

void Proxy::BreakerReport(bool success) {
  if (!BreakerEnabled()) {
    return;
  }
  switch (breaker_) {
    case BreakerState::kClosed:
      if (success) {
        breaker_failures_ = 0;
      } else if (++breaker_failures_ >= options_.breaker_failure_threshold) {
        BreakerTrip();
      }
      return;
    case BreakerState::kHalfOpen:
      if (!success) {
        ++*m_.breaker_probe_failures;
        BreakerTrip();
      } else if (++breaker_successes_ >= options_.breaker_half_open_probes) {
        BreakerClose();
      }
      return;
    case BreakerState::kOpen:
      return;  // Completion from before the trip; the open window is authoritative.
  }
}

void Proxy::BreakerTrip() {
  breaker_ = BreakerState::kOpen;
  breaker_failures_ = 0;
  breaker_successes_ = 0;
  breaker_opened_at_ = loop_->now();
  breaker_open_until_ = loop_->now() + options_.breaker_open_duration;
  ++*m_.breaker_opens;
  m_.breaker_state->Set(1.0);
  emit_.Emit({.kind = FlightEventKind::kBreakerOpen, .time = loop_->now(), .subject = "breaker"});
}

void Proxy::BreakerClose() {
  breaker_ = BreakerState::kClosed;
  breaker_failures_ = 0;
  breaker_successes_ = 0;
  ++*m_.breaker_closes;
  m_.breaker_state->Set(0.0);
  emit_.Emit(
      {.kind = FlightEventKind::kBreakerClose, .time = loop_->now(), .subject = "breaker"});
}

void Proxy::SchedulePersistor(const std::string& key, const PersistorJob& job) {
  PersistorRun* run = persistor_runs_.Acquire();
  run->key = key;
  run->job = job;
  run->attempt = 0;
  // The persistor runs as a helper FaaS function: one dispatch delay, then the
  // payload push to the RSDS.
  run->scheduled = loop_->now();
  emit_.Emit({.kind = FlightEventKind::kPersistorDispatch, .time = run->scheduled,
              .parent = job.invocation_id, .subject = key});
  loop_->ScheduleAfter(options_.persistor_dispatch, [this, run] { RunPersistor(*run); });
}

std::uint64_t Proxy::NewWriteEpoch(const std::string& key) {
  WriteEpoch& entry = write_epoch_[key];
  entry.epoch = next_write_epoch_++;
  ++entry.persistors;
  return entry.epoch;
}

bool Proxy::EpochCurrent(const PersistorRun& run) const {
  auto it = write_epoch_.find(run.key);
  SIM_ASSERT(it != write_epoch_.end()) << "; persistor without an epoch entry: " << run.key;
  return it == write_epoch_.end() || it->second.epoch == run.job.epoch;
}

void Proxy::FinishPersistor(PersistorRun& run) {
  auto it = write_epoch_.find(run.key);
  SIM_ASSERT(it != write_epoch_.end() && it->second.persistors > 0)
      << "; persistor finished twice: " << run.key;
  if (it != write_epoch_.end() && --it->second.persistors == 0) {
    write_epoch_.erase(it);
  }
  persistor_runs_.Release(&run);
}

void Proxy::RunPersistor(PersistorRun& run) {
  const PersistorJob& job = run.job;
  if (loop_->now() < persistor_drop_until_) {
    // Fault injection: the helper function was lost mid-flight. The dispatch is
    // retried with backoff so the acknowledged write still converges.
    ++*m_.persistor_drops;
    RetryPersistor(run);
    return;
  }
  if (job.version == 0 && !EpochCurrent(run)) {
    // A newer acknowledged write owns this key now; its own persistor (or the
    // shadow version ordering) converges the store, and pushing the stale
    // fallback payload would clobber it.
    ++*m_.persistor_conflicts;
    emit_.Emit({.kind = FlightEventKind::kPersistorConflict, .time = loop_->now(),
                .parent = job.invocation_id, .subject = run.key, .detail = "stale_epoch"});
    FinishPersistor(run);
    return;
  }
  ++*m_.persistor_runs;
  auto on_pushed = [this, run = &run](Status status) { OnPersistorPushed(*run, status); };
  if (job.version == 0) {
    // Degraded write (no shadow was ever created): push the full payload, but
    // only if the store still holds what the fallback ack superseded — any
    // write that landed after heal is newer and must win (kAborted here).
    rsds_->PutIfVersion(run.key, job.fallback_base, job.size, {}, job.checksum, on_pushed);
    return;
  }
  rsds_->FinalizePayload(run.key, job.version, job.size, job.checksum, on_pushed);
}

void Proxy::OnPersistorPushed(PersistorRun& run, const Status& status) {
  const PersistorJob& job = run.job;
  if (!status.ok()) {
    if (status.code() == StatusCode::kUnavailable) {
      RetryPersistor(run);
      return;
    }
    // kAborted: a newer version already reached the RSDS; propagation
    // order is preserved by dropping the stale push.
    ++*m_.persistor_conflicts;
    emit_.Emit({.kind = FlightEventKind::kPersistorConflict, .time = loop_->now(),
                .parent = job.invocation_id, .subject = run.key, .detail = "newer_version"});
    FinishPersistor(run);
    return;
  }
  m_.persistor_ms->Observe(ToMillis(loop_->now() - run.scheduled));
  emit_.Emit({.kind = FlightEventKind::kPersistorDone, .time = loop_->now(),
              .parent = job.invocation_id, .subject = run.key,
              .duration = loop_->now() - run.scheduled});
  // Only the newest acknowledged write may clean up: if a newer one took
  // over the cached copy while this push was in flight, its persistor
  // cleans up, and dropping the copy here would lose a dirty payload.
  if (EpochCurrent(run)) {
    (void)cluster_->MarkPersisted(run.key);
    if (job.drop_after) {
      // §6.3: final outputs leave the cache once written back.
      (void)cluster_->Remove(run.key);
      PolicyRemove(run.key);
    }
  }
  FinishPersistor(run);
}

void Proxy::RetryPersistor(PersistorRun& run) {
  if (run.attempt + 1 > options_.persistor_max_retries) {
    // Budget exhausted: the object stays dirty in the cache; the CacheAgent's
    // reclamation write-back is the backstop.
    ++*m_.persistor_abandons;
    FinishPersistor(run);
    return;
  }
  ++*m_.persistor_retries;
  emit_.Emit({.kind = FlightEventKind::kPersistorRetry, .time = loop_->now(),
              .parent = run.job.invocation_id, .subject = run.key});
  const SimDuration backoff = Backoff(options_.persistor_retry_backoff, run.attempt);
  ++run.attempt;
  run.scheduled = loop_->now();
  loop_->ScheduleAfter(backoff, [this, run = &run] { RunPersistor(*run); });
}

void Proxy::OnPipelineComplete(std::uint64_t pipeline_id) {
  auto it = pipeline_intermediates_.find(pipeline_id);
  if (it == pipeline_intermediates_.end()) {
    return;
  }
  for (const std::string& key : it->second) {
    if (cluster_->Remove(key).ok()) {
      ++*m_.intermediates_dropped;
      PolicyRemove(key);
    }
  }
  pipeline_intermediates_.erase(it);
}

void Proxy::Writeback(const std::string& key, store::ObjectStore::Callback done) {
  const auto obj = cluster_->Inspect(key);
  if (!obj.ok()) {
    loop_->ScheduleAfter(0, [done = std::move(done), status = obj.status()]() mutable {
      done(status);
    });
    return;
  }
  if (!obj->dirty) {
    loop_->ScheduleAfter(0, [done = std::move(done)]() mutable { done(OkStatus()); });
    return;
  }
  const Bytes size = obj->size;
  // Determine the target version from the RSDS shadow when one exists;
  // otherwise create the object outright (relaxed mode / intermediates).
  const auto meta = rsds_->Stat(key);
  ++*m_.persistor_runs;
  emit_.Emit({.kind = FlightEventKind::kWriteback, .time = loop_->now(), .subject = key});
  auto on_pushed = [this, key, done = std::move(done)](Status status) mutable {
    if (status.ok()) {
      (void)cluster_->MarkPersisted(key);
    }
    done(std::move(status));
  };
  if (meta.ok() && meta->IsShadow()) {
    rsds_->FinalizePayload(key, meta->latest_version, size, PayloadFingerprint(key, size),
                           std::move(on_pushed));
    return;
  }
  rsds_->Put(key, size, {}, std::move(on_pushed));
}

void Proxy::HandleExternalRead(const std::string& key, store::ObjectStore::Resume resume) {
  const auto meta = rsds_->Stat(key);
  if (!meta.ok() || !meta->IsShadow()) {
    resume();
    return;
  }
  // Boost the persistor: the external read completes only once the latest
  // payload is in the RSDS (§6.2).
  ++*m_.external_read_boosts;
  emit_.Emit({.kind = FlightEventKind::kExternalReadBoost, .time = loop_->now(), .subject = key});
  Writeback(key, [resume = std::move(resume)](Status) mutable { resume(); });
}

void Proxy::HandleExternalWrite(const std::string& key, store::ObjectStore::Resume resume) {
  if (cluster_->Contains(key)) {
    ++*m_.external_write_invalidations;
    (void)cluster_->Remove(key);
    PolicyRemove(key);
  }
  resume();
}

}  // namespace ofc::core
