// Proxy + rclib (§4, §6.2): OFC's transparent data-plane interposition.
//
// Reads and writes issued by function code are captured here and redirected to
// the RAMCloud cache, with the RSDS kept consistent:
//
//   * Read: cache hit (local or remote master) -> serve from RAM. Miss -> read
//     from the RSDS, then admit the object into the cache off the critical
//     path, when the benefit model said caching helps and the object fits.
//   * Write (cached): a *shadow object* — an empty-payload placeholder with a
//     new version number — is created synchronously in the RSDS while the
//     payload is written (durably, i.e. replicated) into RAMCloud; the write
//     is acknowledged when both complete. A *persistor* helper function then
//     pushes the payload to the RSDS asynchronously; version numbers enforce
//     in-order propagation. This write-back mechanism is constant-cost in the
//     output size and "always beneficial even for small payloads".
//   * Pipeline intermediates are cached but never persisted; the whole set is
//     dropped when the pipeline completes (§6.3).
//   * Final outputs are dropped from the cache as soon as they are written
//     back (§6.3).
//   * External (non-FaaS) clients keep strong consistency via the RSDS
//     webhooks: external reads of a shadow object block until a boosted
//     persistor catches up; external writes invalidate the cached copy first.
#ifndef OFC_CORE_PROXY_H_
#define OFC_CORE_PROXY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/hash.h"
#include "src/common/record_pool.h"
#include "src/core/cache_policy.h"
#include "src/faas/platform.h"
#include "src/obs/emitter.h"
#include "src/obs/metrics.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/sim/inline_function.h"
#include "src/store/object_store.h"

namespace ofc::core {

struct ProxyOptions {
  Bytes max_cacheable_size = MiB(10);  // §6.3 admission cap.
  // Scheduling cost of the persistor helper function (an empty-function pass
  // through the platform, §6.4's ~8 ms end-to-end).
  SimDuration persistor_dispatch = Millis(8);
  // When false, tenants opted out of transparent consistency (§6.2 last
  // paragraph): no shadow objects, writes propagate lazily on eviction only.
  bool transparent_consistency = true;
  // §6.2 write-back: acknowledge after shadow + durable cache write, persist
  // asynchronously. Disabling it (ablation) writes the full payload to the
  // RSDS synchronously (the cache still serves subsequent reads).
  bool write_back = true;
  // ---- Degradation path (fault tolerance) --------------------------------------
  // When the RSDS reports kUnavailable the proxy retries with a deterministic
  // exponential backoff (base * 2^attempt, no jitter — replays stay
  // byte-identical) bounded by a per-operation deadline. Reads that exhaust the
  // budget fail with kDeadlineExceeded (a read that never had retry budget —
  // deadline 0 or a backoff that already overshoots — surfaces the store's own
  // kUnavailable unchanged); acknowledged writes instead fall back to the
  // durable (replicated) cache copy and converge through persistor retries once
  // the store heals. The degraded push is a compare-and-swap against the store
  // version observed at ack time, so a stale fallback can never clobber a write
  // acknowledged later.
  SimDuration rsds_deadline = Seconds(10);      // Per-read deadline; 0 disables retries.
  int rsds_max_retries = 6;                     // Read-path retry budget.
  SimDuration rsds_retry_backoff = Millis(50);  // Base; doubles per attempt.
  int persistor_max_retries = 20;               // Persistor push retry budget.
  SimDuration persistor_retry_backoff = Millis(250);
  // ---- Cache-path circuit breaker (overload protection) --------------------------
  // After `breaker_failure_threshold` consecutive cache-path failures — cluster
  // errors other than a plain miss or capacity rejection, or (when
  // `breaker_latency_slo` > 0) hits slower than the SLO — the breaker opens:
  // reads and writes bypass the cache straight to the RSDS for
  // `breaker_open_duration`, exactly the no-cache baseline path. The breaker
  // then goes half-open and admits probe operations through the cache;
  // `breaker_half_open_probes` consecutive successes re-close it, any probe
  // failure re-opens. Threshold 0 disables the breaker entirely (default).
  int breaker_failure_threshold = 0;
  SimDuration breaker_latency_slo = 0;  // 0 = latency never counts as failure.
  SimDuration breaker_open_duration = Seconds(5);
  int breaker_half_open_probes = 3;
  // Observability sinks (src/obs/). Null `metrics` -> private registry; null
  // `trace` -> persistor/webhook events are skipped; null `flight` -> black-box
  // cache/persistor records are skipped.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  obs::FlightRecorder* flight = nullptr;
  // Cache policy engine (cache_policy.h) fed with data-plane lifecycle events:
  // admissions and cached writes (OnAdmit), hits (OnAccess), and proxy-driven
  // removals (OnRemove). Null (default): notifications are skipped — the lru
  // policy needs none of them, so standalone proxies lose nothing.
  CachePolicyEngine* policy = nullptr;
};

// Fraction of proxy reads served from the cache: `ofc.proxy.cache_hits` over
// hits plus `ofc.proxy.cache_misses` in `metrics`; 0 before the first read.
double CacheHitRatio(const obs::MetricsRegistry& metrics);

class Proxy : public faas::DataService {
 public:
  Proxy(sim::EventLoop* loop, rc::Cluster* cluster, store::ObjectStore* rsds,
        ProxyOptions options);

  // Installs the read/write webhooks on the RSDS (§6.2).
  void InstallWebhooks();

  // ---- faas::DataService --------------------------------------------------------

  // faas::DataService's completions are std::functions because perfbench's
  // timing seam overrides that signature; the proxy keeps each `done` as an
  // InlineFunction from the call on.
  void Read(const faas::InvocationContext& ctx, const std::string& key,
            // simlint: allow(std-function-completion) -- DataService's signature (ROADMAP item 5)
            std::function<void(Result<Bytes>)> done) override;
  void Write(const faas::InvocationContext& ctx, const std::string& key, Bytes size,
             const workloads::MediaDescriptor& media,
             // simlint: allow(std-function-completion) -- DataService's signature (ROADMAP item 5)
             std::function<void(Status)> done) override;
  void OnPipelineComplete(std::uint64_t pipeline_id) override;

  // ---- CacheAgent integration ----------------------------------------------------

  // Pushes a dirty cached object's payload to the RSDS (persistor boost). The
  // callback fires once the RSDS holds the payload (object stays cached; the
  // caller decides whether to drop it).
  void Writeback(const std::string& key, store::ObjectStore::Callback done);

  // ---- Fault-injection hooks (src/fault/) ----------------------------------------

  // Persistor dispatches that fire before `until` are lost (the helper function
  // crashed mid-flight); the proxy's bounded retry re-launches them, so
  // acknowledged writes still converge after the window closes. Windows nest:
  // an overlapping window that ends earlier must not shorten a longer one
  // still in force (mirrors the injector's depth counters).
  void InjectPersistorDropUntil(SimTime until) {
    if (until > persistor_drop_until_) {
      persistor_drop_until_ = until;
    }
  }

  // Cache-path degradation: cluster reads/writes issued before `until` fail
  // with kUnavailable without touching the cluster, as if the local RAMCloud
  // ensemble had gone sick. The circuit breaker observes these failures and
  // trips; data keeps flowing via the RSDS. Windows nest like persistor drops.
  void InjectCacheFaultUntil(SimTime until) {
    if (until > cache_fault_until_) {
      cache_fault_until_ = until;
    }
  }

  // ---- Overload protection -------------------------------------------------------

  enum class BreakerState { kClosed, kOpen, kHalfOpen };
  BreakerState breaker_state() const { return breaker_; }

  obs::MetricsRegistry& metrics() { return *metrics_; }

  // Keys with a persistor scheduled, retrying or pushing (the size of the
  // write-epoch table; 0 once every persistor has finished).
  std::size_t PersistorKeysInFlight() const { return write_epoch_.size(); }

 private:
  // Registry cells, bumped through cached pointers.
  struct Metrics {
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* admissions = nullptr;
    obs::Counter* admission_failures = nullptr;
    obs::Counter* shadow_writes = nullptr;
    obs::Counter* cached_writes = nullptr;
    obs::Counter* direct_writes = nullptr;
    obs::Counter* persistor_runs = nullptr;
    obs::Counter* persistor_conflicts = nullptr;  // Out-of-order pushes skipped.
    obs::Counter* intermediates_cached = nullptr;
    obs::Counter* intermediates_dropped = nullptr;
    obs::Counter* external_read_boosts = nullptr;
    obs::Counter* external_write_invalidations = nullptr;
    obs::Counter* fallback_writes = nullptr;          // Acked from the cache during an outage.
    obs::Counter* rsds_retries = nullptr;             // Read-path retries after kUnavailable.
    obs::Counter* read_deadlines = nullptr;           // Reads that exhausted the retry budget.
    obs::Counter* persistor_retries = nullptr;        // Re-dispatched persistor pushes.
    obs::Counter* persistor_drops = nullptr;          // Dispatches lost to fault injection.
    obs::Counter* persistor_abandons = nullptr;       // Retry budget exhausted (stays dirty).
    obs::Counter* breaker_opens = nullptr;            // Closed/half-open -> open trips.
    obs::Counter* breaker_closes = nullptr;           // Half-open -> closed recoveries.
    obs::Counter* breaker_probes = nullptr;           // Operations admitted half-open.
    obs::Counter* breaker_probe_failures = nullptr;   // Probes that re-opened the breaker.
    obs::Counter* breaker_bypassed_reads = nullptr;   // Reads served RSDS-direct while open.
    obs::Counter* breaker_bypassed_writes = nullptr;  // Writes sent RSDS-direct while open.
    obs::Counter* corrupt_acked = nullptr;            // I6 tripwire: must stay 0 forever.
    obs::Counter* reread_from_rsds = nullptr;         // Cache data loss healed via RSDS re-read.
    obs::Gauge* breaker_state = nullptr;              // 0 closed / 1 open / 2 half-open.
    obs::Gauge* breaker_open_time_us = nullptr;       // Cumulative open time (on exit).
    obs::Series* persistor_ms = nullptr;              // Dispatch to RSDS-converged latency.
  };
  // Per-function hit/miss label cells, cached for the hot read path.
  struct FnMetrics {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
  };
  FnMetrics& FnMetricsFor(const std::string& function);
  // Fast path keyed on ctx.fn_index (the platform's dense function index).
  // Unlike the platform the proxy cannot trust the index alone — contexts may
  // be hand-built by tests or come from a foreign platform — so each cached
  // slot revalidates the function name and falls back to the map on mismatch.
  FnMetrics& FnMetricsForCtx(const faas::InvocationContext& ctx);
  struct IndexedFnCells {
    std::string function;
    FnMetrics* cells = nullptr;
  };
  // Bounds fn_index-cache growth against absurd indices (slots are ~48 bytes).
  static constexpr std::uint32_t kMaxFnIndexCache = 1u << 16;

  // One pending write-back. `version` 0 means the write degraded during an
  // outage and never got a shadow; `fallback_base` then carries the store
  // version observed at ack time, so the eventual push is a compare-and-swap
  // (PutIfVersion) instead of a blind Put that could clobber a write
  // acknowledged after the store healed. `epoch` is the key's write_epoch_ at
  // ack time: a persistor whose epoch went stale must not touch the cached
  // copy (a newer acknowledged write owns it now).
  struct PersistorJob {
    store::ObjectVersion version = 0;
    Bytes size = 0;
    bool drop_after = false;
    store::ObjectVersion fallback_base = 0;  // Meaningful when version == 0.
    std::uint64_t epoch = 0;
    // Payload fingerprint stamped when the write was acknowledged; the RSDS
    // verifies it at landing so a payload damaged in the cache after ack is
    // rejected (kDataLoss) instead of silently persisted.
    Checksum checksum = 0;
    // Invocation whose write spawned this job; links the persistor chain back
    // to its causal parent in the flight recorder (0 = cache-agent writeback).
    std::uint64_t invocation_id = 0;
  };
  // One persistor from its dispatch to its FinishPersistor. Records are pooled
  // and never move, so each step of the chain (dispatch, retry, the store
  // push's completion) captures only `this` and the record's address, and the
  // key is copied once, into a string whose capacity the pool keeps.
  struct PersistorRun {
    std::string key;
    PersistorJob job;
    SimTime scheduled = 0;  // When the current dispatch was scheduled.
    int attempt = 0;
  };

  using ReadDone = sim::InlineFunction<void(Result<Bytes>)>;
  using WriteDone = store::ObjectStore::Callback;

  // One proxy read from its call to its last completion: the cache read, on a
  // miss the RSDS fetch with its retries, and the admission of what was
  // fetched, which outlives `done` (the function proceeds without waiting).
  // Pooled like PersistorRun: every completion captures `this` and the
  // record's address.
  struct ReadOp {
    faas::InvocationContext ctx;
    std::string key;
    ReadDone done;
    bool bypass = false;   // Breaker open: RSDS only, no admission.
    SimTime issued = 0;    // When the cache read was issued.
    SimTime deadline = 0;  // Absolute deadline of the RSDS fetch's retries.
    int attempt = 0;       // RSDS attempts so far that met kUnavailable.
    Bytes size = 0;        // Size being admitted.
  };
  // Starts the RSDS fetch of a read that bypassed or missed the cache.
  void StartRsdsRead(ReadOp& op);
  // RSDS Get with bounded kUnavailable retries until `op.deadline`.
  void GetWithRetry(ReadOp& op);
  void OnCacheRead(ReadOp& op, const Result<rc::ReadHit>& hit);
  void OnRsdsRead(ReadOp& op, const Result<store::ObjectMetadata>& meta);
  void OnAdmitted(ReadOp& op, const Status& status);
  // Releases `op`, then completes the read.
  void FinishRead(ReadOp& op, Result<Bytes> result);

  // One proxy write from its call to its last completion. A transparent-mode
  // write joins its two halves here, the RSDS shadow and the durable cache
  // write, and the second to arrive acknowledges the write
  // (JoinTransparentWrite).
  struct WriteOp {
    faas::InvocationContext ctx;
    std::string key;
    Bytes size = 0;
    store::Tags tags;  // For a write that falls back to the RSDS.
    WriteDone done;
    int remaining = 0;
    Status failure;
    store::ObjectVersion version = 0;
    bool cache_ok = true;
  };
  WriteOp& NewWrite(const faas::InvocationContext& ctx, const std::string& key, Bytes size,
                    const workloads::MediaDescriptor& media, WriteDone done);
  // A cached write the cluster refused goes to the RSDS instead.
  void WriteThrough(WriteOp& op);
  void JoinTransparentWrite(WriteOp& op);
  // Releases `op`, then completes the write.
  void FinishWrite(WriteOp& op, Status status);

  // Deterministic exponential backoff: base * 2^attempt, capped at 30 s.
  SimDuration Backoff(SimDuration base, int attempt) const;
  void SchedulePersistor(const std::string& key, const PersistorJob& job);
  // Persistor body: drop-window check, then the payload push.
  void RunPersistor(PersistorRun& run);
  void OnPersistorPushed(PersistorRun& run, const Status& status);
  void RetryPersistor(PersistorRun& run);
  // Hands `key`'s next acknowledged write-back a fresh epoch and counts its
  // persistor in flight; every persistor ends in exactly one FinishPersistor
  // (success, conflict, stale-epoch stand-down or abandonment), which also
  // returns its record to the pool.
  std::uint64_t NewWriteEpoch(const std::string& key);
  void FinishPersistor(PersistorRun& run);
  // True while `run` still represents the newest acknowledged write for its
  // key — only then may its persistor mark the cached copy clean or drop it.
  bool EpochCurrent(const PersistorRun& run) const;
  void HandleExternalRead(const std::string& key, store::ObjectStore::Resume resume);
  void HandleExternalWrite(const std::string& key, store::ObjectStore::Resume resume);

  // ---- Circuit breaker (see ProxyOptions) -----------------------------------------
  bool BreakerEnabled() const { return options_.breaker_failure_threshold > 0; }
  bool CacheFaulted() const { return loop_->now() < cache_fault_until_; }
  // True when cache-path operations must bypass the cluster entirely. Drives
  // the open -> half-open transition lazily off the simulated clock and counts
  // probes admitted while half-open.
  bool BreakerBypasses();
  // Reports one cache-path outcome to the breaker state machine.
  void BreakerReport(bool success);
  void BreakerTrip();
  void BreakerClose();
  // A capacity rejection is a healthy cache saying "full" (backpressure owns
  // that), not a sick cache path; only other errors feed the breaker.
  static bool WriteHealthy(const Status& status) {
    return status.ok() || status.code() == StatusCode::kResourceExhausted;
  }
  // Cluster entry points with the injected cache-fault window applied: inside
  // the window every operation fails with kUnavailable without touching the
  // cluster (so a sick cache never absorbs or serves data).
  void CacheRead(int worker, const std::string& key, rc::Cluster::ReadCallback done);
  void CacheWrite(int worker, const std::string& key, Bytes size,
                  store::ObjectVersion version, rc::ObjectClass object_class, bool dirty,
                  rc::Cluster::Callback done);

  // Policy-engine notification helpers; no-ops when no engine is wired.
  void PolicyAdmit(const std::string& key, Bytes size, const std::string& function);
  void PolicyAccess(const std::string& key, Bytes size, const std::string& function);
  void PolicyRemove(const std::string& key);

  sim::EventLoop* loop_;
  rc::Cluster* cluster_;
  store::ObjectStore* rsds_;
  ProxyOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // When none injected.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Emitter emit_;
  SimTime persistor_drop_until_ = 0;  // Fault injection: dispatches before this are lost.
  SimTime cache_fault_until_ = 0;     // Fault injection: cluster ops before this fail.
  // Circuit-breaker state (all transitions are clock/counter-driven, so
  // same-seed replays take identical paths).
  BreakerState breaker_ = BreakerState::kClosed;
  int breaker_failures_ = 0;   // Consecutive failures while closed.
  int breaker_successes_ = 0;  // Consecutive probe successes while half-open.
  SimTime breaker_open_until_ = 0;
  SimTime breaker_opened_at_ = 0;
  Metrics m_;
  // Node-based: fn_metrics_by_index_ holds pointers into it, so cell addresses
  // must stay stable as functions are added.
  std::map<std::string, FnMetrics> fn_metrics_;
  std::vector<IndexedFnCells> fn_metrics_by_index_;  // ctx.fn_index fast path.
  // Intermediate objects written per in-flight pipeline (§6.3 cleanup). Looked
  // up by id, never iterated; salted hashing keeps that honest under test.
  std::unordered_map<std::uint64_t, std::vector<std::string>, DetHash<std::uint64_t>>
      pipeline_intermediates_;
  // Monotonic id handed to each acknowledged write-back (ids never repeat, so a
  // stale persistor can never alias a fresh write). A key has an entry only
  // while one of its persistors is in flight: the entry holds the newest epoch
  // and the count of those persistors, and goes when the last one finishes.
  // Every in-flight persistor therefore finds its key's entry and reads the
  // newest epoch, and the table's size follows the persistors in flight, not
  // the keys ever written. Looked up by key, never iterated.
  struct WriteEpoch {
    std::uint64_t epoch = 0;
    int persistors = 0;
  };
  std::uint64_t next_write_epoch_ = 1;
  std::unordered_map<std::string, WriteEpoch, DetHash<std::string>> write_epoch_;
  RecordPool<PersistorRun> persistor_runs_;
  RecordPool<ReadOp> reads_;
  RecordPool<WriteOp> writes_;
};

}  // namespace ofc::core

#endif  // OFC_CORE_PROXY_H_
