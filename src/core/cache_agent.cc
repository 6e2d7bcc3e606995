#include "src/core/cache_agent.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/sim_assert.h"

namespace ofc::core {

using obs::FlightEventKind;

CacheAgent::CacheAgent(sim::EventLoop* loop, rc::Cluster* cluster, CacheAgentOptions options)
    : loop_(loop), cluster_(cluster), options_(options) {
  const std::size_t n = static_cast<std::size_t>(cluster_->num_nodes());
  hoard_.assign(n, 0);
  limits_.assign(n, 0);
  slack_.assign(n, options_.initial_slack);
  churn_accum_.assign(n, 0);
  churn_windows_.assign(n, SlidingTimeWindow(options_.churn_window));

  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  emit_ = obs::Emitter(options_.trace, options_.flight, {obs::kPidCache});
  policy_ = options_.policy;
  if (policy_ == nullptr) {
    // Standalone agent (tests, benches without an OfcSystem): own a default
    // lru engine so there is exactly one reclamation code path.
    CachePolicyEngineOptions peo;
    peo.config.sweep_min_access = options_.sweep_min_access;
    peo.config.sweep_max_idle = options_.sweep_max_idle;
    peo.config.sweep_period = options_.sweep_period;
    peo.metrics = metrics_;
    peo.flight = options_.flight;
    auto engine = CachePolicyEngine::Create("lru", std::move(peo));
    owned_policy_ = std::move(*engine);  // "lru" always parses.
    policy_ = owned_policy_.get();
  }
  m_.scale_ups = metrics_->GetCounter("ofc.cache_agent.scale_ups");
  m_.scale_downs_plain = metrics_->GetCounter("ofc.cache_agent.scale_downs_plain");
  m_.scale_downs_migration = metrics_->GetCounter("ofc.cache_agent.scale_downs_migration");
  m_.scale_downs_eviction = metrics_->GetCounter("ofc.cache_agent.scale_downs_eviction");
  m_.objects_migrated = metrics_->GetCounter("ofc.cache_agent.objects_migrated");
  m_.objects_evicted = metrics_->GetCounter("ofc.cache_agent.objects_evicted");
  m_.objects_swept = metrics_->GetCounter("ofc.cache_agent.objects_swept");
  m_.writebacks_triggered = metrics_->GetCounter("ofc.cache_agent.writebacks_triggered");
  m_.scale_up_time_us = metrics_->GetGauge("ofc.cache_agent.scale_up_time_us");
  m_.scale_down_time_us = metrics_->GetGauge("ofc.cache_agent.scale_down_time_us");
  m_.migration_ms = metrics_->GetSeries("ofc.cache_agent.migration_ms");
}

Bytes CacheAgent::CapacityTarget(int worker) const {
  const std::size_t w = static_cast<std::size_t>(worker);
  // The hoardable amount, bounded by the physically free memory on the node.
  const Bytes physical = options_.worker_memory - limits_[w];
  return std::max<Bytes>(0, std::min(hoard_[w], physical) - slack_[w]);
}

void CacheAgent::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  ApplyAllTargets();
  loop_->ScheduleAfter(options_.sweep_period, [this] { SweepTick(); });
  loop_->ScheduleAfter(options_.churn_sample_period, [this] { ChurnSampleTick(); });
  loop_->ScheduleAfter(options_.slack_adjust_period, [this] { SlackAdjustTick(); });
}

void CacheAgent::SweepTick() {
  SweepOnce();
  loop_->ScheduleAfter(options_.sweep_period, [this] { SweepTick(); });
}

void CacheAgent::ChurnSampleTick() {
  // §6.4: the local memory churn is measured every 60 s.
  for (std::size_t w = 0; w < churn_accum_.size(); ++w) {
    churn_windows_[w].Add(loop_->now(), static_cast<double>(churn_accum_[w]));
    churn_accum_[w] = 0;
  }
  loop_->ScheduleAfter(options_.churn_sample_period, [this] { ChurnSampleTick(); });
}

void CacheAgent::SlackAdjustTick() {
  // §6.4: the slack pool is re-estimated every 120 s from the churn window.
  for (std::size_t w = 0; w < slack_.size(); ++w) {
    const double mean_churn = churn_windows_[w].MeanAt(loop_->now());
    const Bytes estimate = static_cast<Bytes>(mean_churn);
    slack_[w] = std::clamp(std::max(estimate, options_.initial_slack / 2), options_.min_slack,
                           options_.max_slack);
    ApplyTarget(static_cast<int>(w));
  }
  loop_->ScheduleAfter(options_.slack_adjust_period, [this] { SlackAdjustTick(); });
}

void CacheAgent::SweepOnce() {
  const SimTime now = loop_->now();
  std::vector<std::string> live;
  live.reserve(cluster_->NumObjects());
  for (int node = 0; node < cluster_->num_nodes(); ++node) {
    for (const rc::CachedObject& obj : cluster_->ObjectsOn(node)) {
      live.push_back(obj.key);
      // Only consider objects that have been resident for at least one sweep
      // period; otherwise every freshly admitted object would be purged. This
      // residency guard is policy-independent.
      if (now - obj.created_at < options_.sweep_period) {
        continue;
      }
      if (!policy_->SweepCold(obj, now)) {
        continue;
      }
      if (obj.dirty) {
        LaunchWriteback(obj.key, /*count_swept=*/true);
        continue;
      }
      (void)cluster_->Remove(obj.key);
      ++*m_.objects_swept;
      policy_->NoteEviction(obj, EvictionReason::kSweep, node, now);
    }
  }
  // GC per-key policy state down to the live object population (keys removed
  // above were already dropped via NoteEviction; stragglers go here).
  policy_->Prune(std::move(live));
}

void CacheAgent::OnSandboxMemoryChange(const faas::SandboxMemoryEvent& event) {
  const std::size_t w = static_cast<std::size_t>(event.worker);
  hoard_[w] += event.new_hoard() - event.old_hoard();
  limits_[w] += event.new_limit - event.old_limit;
  // Hoard/limit accounting mirrors sandbox lifecycle events; going negative
  // means a create/resize/destroy event was double-counted or dropped.
  SIM_ASSERT(hoard_[w] >= 0) << "; hoard underflow on worker " << event.worker;
  SIM_ASSERT(limits_[w] >= 0) << "; cgroup-limit underflow on worker " << event.worker;
  SIM_ASSERT(limits_[w] <= options_.worker_memory)
      << "; cgroup limits " << limits_[w] << " exceed worker memory "
      << options_.worker_memory << " on worker " << event.worker;
  churn_accum_[w] += std::abs(event.new_limit - event.old_limit);
  ApplyTarget(event.worker);
}

void CacheAgent::ApplyAllTargets() {
  for (int w = 0; w < cluster_->num_nodes(); ++w) {
    ApplyTarget(w);
  }
}

void CacheAgent::ApplyTarget(int worker) {
  const Bytes target = CapacityTarget(worker);
  const Bytes current = cluster_->Capacity(worker);
  if (target == current) {
    return;
  }
  SimDuration duration = 0;
  if (target > current) {
    // Scale up: capacity grows, nothing to reclaim.
    if (cluster_->SetCapacity(worker, target, &duration).ok()) {
      ++*m_.scale_ups;
      m_.scale_up_time_us->Add(static_cast<double>(duration));
      emit_.Emit({.kind = FlightEventKind::kScaleUp, .time = loop_->now(), .worker = worker,
                  .duration = duration, .n = target});
    }
    return;
  }
  // Scale down.
  const Bytes used = cluster_->Used(worker);
  bool migrated = false;
  bool evicted = false;
  if (used > target) {
    FreeBytes(worker, used - target, &migrated, &evicted);
    if (cluster_->Used(worker) > target) {
      // Could not free enough synchronously (e.g. everything dirty, write-backs
      // in flight): shrink to what is feasible now and retry shortly.
      const Bytes feasible = std::max(target, cluster_->Used(worker));
      SimDuration partial = 0;
      if (cluster_->SetCapacity(worker, feasible, &partial).ok()) {
        AddScaleDownTime(partial);
      }
      loop_->ScheduleAfter(Millis(50), [this, worker] { ApplyTarget(worker); });
      return;
    }
  }
  if (cluster_->SetCapacity(worker, target, &duration).ok()) {
    AddScaleDownTime(duration);
    CountScaleDown(migrated, evicted);
    emit_.Emit({.kind = FlightEventKind::kScaleDown, .time = loop_->now(), .worker = worker,
                .detail = migrated ? "migration" : (evicted ? "eviction" : "plain"),
                .duration = duration, .n = target});
  }
}

void CacheAgent::FreeBytes(int worker, Bytes needed, bool* migrated, bool* evicted) {
  const SimTime now = loop_->now();
  Bytes freed = 0;
  // One bulk snapshot of the worker's mastered objects feeds all three phases.
  // The phases run synchronously (no event-loop yield), so the only state the
  // snapshot can miss is our own phase-1 removals — and those are persisted
  // clean outputs, which phases 2 and 3 skip by class/dirty tests anyway.
  const std::vector<rc::CachedObject> objects = cluster_->ObjectsOn(worker);

  // Phase 1: discard persisted output objects (final outputs first, §6.4).
  for (const rc::CachedObject& obj : objects) {
    if (freed >= needed) {
      return;
    }
    const bool output = obj.object_class != rc::ObjectClass::kInput;
    if (output && obj.persisted && !obj.dirty) {
      freed += obj.size;
      (void)cluster_->Remove(obj.key);
      ++*m_.objects_evicted;
      *evicted = true;
      AddScaleDownTime(options_.eviction_op_cost);
      policy_->NoteEviction(obj, EvictionReason::kPersistedDiscard, worker, now);
    }
  }

  // Phase 2: trigger write-back of dirty outputs; they free memory when the
  // persistor completes (asynchronous, so not counted in `freed`).
  for (const rc::CachedObject& obj : objects) {
    if (!obj.dirty || obj.object_class == rc::ObjectClass::kInput) {
      continue;
    }
    LaunchWriteback(obj.key, /*count_swept=*/false);
  }

  // Phase 3: input objects, in the policy's eviction order (the default lru
  // policy ranks by last_access, the paper's order). Prefer migrating the
  // master copy to a backup node (keeps the object cached, no data transfer);
  // evict when no backup can host it.
  std::vector<rc::CachedObject> inputs;
  for (const rc::CachedObject& obj : objects) {
    if (obj.master == worker && obj.object_class == rc::ObjectClass::kInput) {
      inputs.push_back(obj);
    }
  }
  policy_->RankEvictionCandidates(&inputs, now);
  for (const rc::CachedObject& obj : inputs) {
    if (freed >= needed) {
      break;
    }
    const auto migration = cluster_->MigrateMaster(obj.key);
    if (migration.ok()) {
      freed += obj.size;
      ++*m_.objects_migrated;
      *migrated = true;
      AddScaleDownTime(migration->duration);
      m_.migration_ms->Observe(ToMillis(migration->duration));
      emit_.Emit({.kind = FlightEventKind::kMigration, .time = loop_->now(), .worker = worker,
                  .subject = obj.key, .duration = migration->duration, .n = migration->new_master});
      continue;
    }
    freed += obj.size;
    (void)cluster_->Remove(obj.key);
    ++*m_.objects_evicted;
    *evicted = true;
    AddScaleDownTime(options_.eviction_op_cost);
    policy_->NoteEviction(obj, EvictionReason::kCapacity, worker, now);
  }
}

void CacheAgent::CountScaleDown(bool migrated, bool evicted) {
  if (migrated) {
    ++*m_.scale_downs_migration;
  } else if (evicted) {
    ++*m_.scale_downs_eviction;
  } else {
    ++*m_.scale_downs_plain;
  }
}

void CacheAgent::LaunchWriteback(const std::string& key, bool count_swept) {
  if (!writeback_ || !writeback_pending_.insert(key).second) {
    return;
  }
  ++*m_.writebacks_triggered;
  writeback_(key, [this, key, count_swept](Status status) {
    writeback_pending_.erase(key);
    if (!status.ok()) {
      return;
    }
    const auto obj = cluster_->Inspect(key);
    (void)cluster_->Remove(key);
    if (count_swept) {
      ++*m_.objects_swept;
    }
    if (obj.ok()) {
      policy_->NoteEviction(*obj, count_swept ? EvictionReason::kSweep : EvictionReason::kCapacity,
                            obj->master, loop_->now());
    }
  });
}

bool CacheAgent::ReleaseForSandbox(int worker, Bytes bytes) {
  // The monitor needs `bytes` more for sandboxes: permanently move the target
  // down by raising the mirrored reservation (the platform will report the
  // actual sandbox change right after; reconciliation happens in
  // OnSandboxMemoryChange, so here we only make room).
  const Bytes target = std::max<Bytes>(0, CapacityTarget(worker) - bytes);
  const Bytes used = cluster_->Used(worker);
  bool migrated = false;
  bool evicted = false;
  if (used > target) {
    FreeBytes(worker, used - target, &migrated, &evicted);
    if (cluster_->Used(worker) > target) {
      return false;
    }
  }
  SimDuration duration = 0;
  if (!cluster_->SetCapacity(worker, target, &duration).ok()) {
    return false;
  }
  AddScaleDownTime(duration);
  CountScaleDown(migrated, evicted);
  return true;
}

}  // namespace ofc::core
