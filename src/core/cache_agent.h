// CacheAgent (§6.3, §6.4): manages each worker's share of the cache.
//
// The agent hoards the memory booked-but-unused by the worker's sandboxes
// (including idle, kept-alive ones — §2.2.1's two waste sources): the
// per-worker cache capacity target is
//
//     min( sum over sandboxes of (booked - cgroup limit),
//          worker_memory - sum of cgroup limits )  -  slack_pool
//
// re-applied on every sandbox creation/resize/destruction (per-invocation
// resizes run asynchronously, off the critical path). The slack pool guards
// against capacity violations from in-flight asynchronous scale-ups: it starts
// at 100 MB and is re-estimated every 120 s from a sliding window of 60 s
// memory-churn samples.
//
// Shrinking follows the paper's reclamation order:
//   1. discard output objects already persisted to the RSDS;
//   2. trigger write-back of dirty output objects (discarded on completion);
//   3. evict input objects in the order the configured cache policy ranks
//      them (the default `lru` policy reproduces the paper byte-for-byte) —
//      but first try to keep hot inputs cached by migrating their master copy
//      to a backup node (§6.4's no-transfer promotion).
//
// Independently, a periodic sweep (every 300 s) evicts objects the policy
// deems cold — under `lru`, the paper's n_access < 5 or idle > 30 min test
// (§6.3). The residency guard (objects younger than one sweep period are
// never swept) is policy-independent and stays here. Which objects to drop is
// delegated to the CachePolicyEngine (cache_policy.h); *how* to drop them
// (write-back of dirty objects, migration preference, capacity bookkeeping)
// remains this agent's job.
#ifndef OFC_CORE_CACHE_AGENT_H_
#define OFC_CORE_CACHE_AGENT_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/core/cache_policy.h"
#include "src/faas/platform.h"
#include "src/obs/emitter.h"
#include "src/obs/metrics.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/sim/inline_function.h"

namespace ofc::core {

struct CacheAgentOptions {
  Bytes worker_memory = GiB(8);
  Bytes initial_slack = MiB(100);
  Bytes min_slack = MiB(64);
  Bytes max_slack = GiB(1);
  SimDuration churn_sample_period = Seconds(60);
  SimDuration slack_adjust_period = Seconds(120);
  SimDuration churn_window = Seconds(300);
  SimDuration sweep_period = Seconds(300);
  std::uint32_t sweep_min_access = 5;     // Evict when n_access < 5 ...
  SimDuration sweep_max_idle = Minutes(30);  // ... or idle > 30 min.
  SimDuration eviction_op_cost = Micros(120);  // Per-object eviction overhead.
  // Eviction/sweep policy engine (cache_policy.h), normally owned by the
  // OfcSystem so the Proxy's data-plane notifications feed the same instance.
  // Null: the agent owns a private default engine (the paper's lru policy).
  CachePolicyEngine* policy = nullptr;
  // Observability sinks (src/obs/). Null `metrics` -> private registry; null
  // `trace` -> scaling/migration events are skipped; null `flight` -> no
  // black-box scale/migration records.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  obs::FlightRecorder* flight = nullptr;
};

class CacheAgent {
 public:
  // Write-back trigger: asks the Proxy's persistor machinery to push a dirty
  // object to the RSDS; the completion callback reports the outcome.
  using WritebackDone = sim::InlineFunction<void(Status)>;
  using WritebackFn = sim::InlineFunction<void(const std::string& key, WritebackDone done)>;

  CacheAgent(sim::EventLoop* loop, rc::Cluster* cluster, CacheAgentOptions options);

  // Arms the periodic sweep / slack-estimation timers and sets the initial
  // capacity of every node to the full hoardable amount.
  void Start();

  void set_writeback(WritebackFn writeback) { writeback_ = std::move(writeback); }

  // Sandbox memory change (from the platform hooks). Adjusts the hoard and
  // re-applies the cache capacity target opportunistically.
  void OnSandboxMemoryChange(const faas::SandboxMemoryEvent& event);

  // Monitor rescue support (§5.3.1): synchronously releases `bytes` of cache
  // capacity on `worker` so a struggling sandbox can grow. Returns false when
  // the cache cannot free enough.
  bool ReleaseForSandbox(int worker, Bytes bytes);

  // Reapplies the capacity target for one worker (or all).
  void ApplyTarget(int worker);
  void ApplyAllTargets();

  // One §6.3 sweep pass over every node; normally timer-driven, exposed for
  // tests and benches.
  void SweepOnce();

  Bytes slack(int worker) const { return slack_[static_cast<std::size_t>(worker)]; }
  // Sum of (booked - limit) across the worker's live sandboxes.
  Bytes hoard(int worker) const { return hoard_[static_cast<std::size_t>(worker)]; }
  Bytes CapacityTarget(int worker) const;
  obs::MetricsRegistry& metrics() { return *metrics_; }

 private:
  // Registry cells. The cumulative scaling times live in gauges (micros,
  // Add()ed) so a reader recovers the SimDuration exactly; migration latencies
  // additionally feed a percentile series.
  struct Metrics {
    obs::Counter* scale_ups = nullptr;
    obs::Counter* scale_downs_plain = nullptr;      // No eviction, no migration.
    obs::Counter* scale_downs_migration = nullptr;  // Required master migration.
    obs::Counter* scale_downs_eviction = nullptr;   // Required object eviction.
    obs::Counter* objects_migrated = nullptr;
    obs::Counter* objects_evicted = nullptr;
    obs::Counter* objects_swept = nullptr;
    obs::Counter* writebacks_triggered = nullptr;
    obs::Gauge* scale_up_time_us = nullptr;
    obs::Gauge* scale_down_time_us = nullptr;
    obs::Series* migration_ms = nullptr;
  };
  void AddScaleDownTime(SimDuration d) {
    m_.scale_down_time_us->Add(static_cast<double>(d));
  }

  // Frees at least `needed` bytes of mastered objects on `worker` following the
  // reclamation order; dirty outputs free theirs only when their write-backs
  // land.
  void FreeBytes(int worker, Bytes needed, bool* migrated, bool* evicted);

  // Counts a completed scale-down by what it took: a migration, an eviction,
  // or neither.
  void CountScaleDown(bool migrated, bool evicted);

  // Starts the write-back of dirty output `key` unless one is already in
  // flight; on success the object leaves the cache (counted as swept when
  // `count_swept`), on failure the next shrink retry or sweep launches it
  // again.
  void LaunchWriteback(const std::string& key, bool count_swept);

  void SweepTick();
  void ChurnSampleTick();
  void SlackAdjustTick();

  sim::EventLoop* loop_;
  rc::Cluster* cluster_;
  CacheAgentOptions options_;
  WritebackFn writeback_;
  std::vector<Bytes> hoard_;   // Booked-but-unused memory, mirrored from hooks.
  std::vector<Bytes> limits_;  // Sum of cgroup limits (physical usage bound).
  std::vector<Bytes> slack_;
  std::vector<Bytes> churn_accum_;
  std::vector<SlidingTimeWindow> churn_windows_;
  // Keys whose write-back is in flight, whichever worker masters them now
  // (ordered: mutated along deterministic paths only, never iterated).
  std::set<std::string> writeback_pending_;
  std::unique_ptr<CachePolicyEngine> owned_policy_;  // When none injected.
  CachePolicyEngine* policy_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // When none injected.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Emitter emit_;
  Metrics m_;
  bool started_ = false;
};

}  // namespace ofc::core

#endif  // OFC_CORE_CACHE_AGENT_H_
