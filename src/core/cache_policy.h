// Pluggable cache admission/eviction policies for the CacheAgent (§6.3, §6.4).
//
// The paper evaluates a single policy — LRU eviction under capacity pressure
// plus a periodic cold sweep (n_access < 5 or idle > 30 min) — and PR 1..9
// hard-coded exactly that inside CacheAgent. Faa$T (ASPLOS'21) and the
// keep-alive literature show the *choice* of policy materially moves hit ratio
// and E+L savings in FaaS object caches, so this subsystem factors the policy
// decisions behind an interface the CacheAgent and Proxy consult:
//
//   * OnAdmit / OnAccess / OnRemove — data-plane lifecycle notifications from
//     the Proxy (admissions, hits) and the reclamation paths;
//   * OnEvictCandidates — orders the §6.4 phase-3 input candidates, evict-first
//     first (the CacheAgent still owns the migrate-before-evict preference);
//   * OnSweep — the §6.3 cold test for objects resident >= one sweep period
//     (the residency guard itself stays in the CacheAgent: no policy may purge
//     freshly admitted objects).
//
// Four deterministic implementations ship:
//
//   lru         The paper's policy, byte-for-byte: candidates ordered by
//               last_access, cold = n_access < 5 or idle > 30 min. Default.
//   gdsf        GreedyDual-Size-Frequency: H = clock + freq * cost / size with
//               the reload cost priced from the RSDS latency profile, so small,
//               hot, expensive-to-refetch objects survive longest.
//   lfu-decay   Frequency with sim-time exponential decay (half-life), so
//               yesterday's hot object cannot squat on today's memory.
//   cost-aware  Expected (E + L) saved per byte: observed access rate times the
//               RSDS round-trip the next miss would pay, discounted by the
//               ml_service's per-function caching-benefit confidence.
//
// All state is keyed by object and updated only along deterministic event
// paths; same-seed replays take identical eviction decisions (the determinism
// selfcheck covers every policy). A CachePolicyEngine composes one default
// policy with optional per-function overrides ("gdsf,wand_blur=lru"), owns the
// `ofc.policy.*` metrics, and emits flight-recorder eviction-reason events.
#ifndef OFC_CORE_CACHE_POLICY_H_
#define OFC_CORE_CACHE_POLICY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/emitter.h"
#include "src/obs/metrics.h"
#include "src/ramcloud/cluster.h"
#include "src/store/object_store.h"

namespace ofc::core {

// Why an object left the cache; labels the `ofc.policy.evictions` /
// `ofc.policy.bytes_evicted` cells and the flight recorder's eviction events.
enum class EvictionReason {
  kPersistedDiscard,  // §6.4 phase 1: persisted output discarded under shrink.
  kCapacity,          // §6.4 phase 3: input evicted to meet the capacity target.
  kSweep,             // §6.3 periodic sweep: cold object purged.
};
// Stable wire name ("persisted_discard", "capacity", "sweep").
const char* EvictionReasonName(EvictionReason reason);

// Thresholds shared by every policy. The CacheAgent's own option values are
// copied in at engine construction so the two never drift.
struct CachePolicyConfig {
  std::uint32_t sweep_min_access = 5;        // §6.3: cold when n_access < 5 ...
  SimDuration sweep_max_idle = Minutes(30);  // ... or idle > 30 min.
  SimDuration sweep_period = Seconds(300);
  // lfu-decay: half-life of the exponentially decayed frequency score.
  SimDuration lfu_half_life = Minutes(10);
  // gdsf / cost-aware: the RSDS profile pricing what a re-fetch (read) and the
  // avoided write-back (write) would cost. Jitter-free Cost() calls only.
  store::StoreProfile store_profile = store::StoreProfile::Swift();
};

// Per-function caching-benefit confidence in [0, 1] from the ml_service
// (cost-aware discounts each object's expected saving by it). Null-equivalent
// default: 0.5 (no opinion).
using BenefitFn = std::function<double(const std::string& function)>;

class CachePolicy {
 public:
  explicit CachePolicy(CachePolicyConfig config) : config_(config) {}
  virtual ~CachePolicy() = default;
  CachePolicy(const CachePolicy&) = delete;
  CachePolicy& operator=(const CachePolicy&) = delete;

  // Spec name this policy registers under ("lru", "gdsf", ...).
  virtual const char* name() const = 0;

  // ---- Data-plane notifications (Proxy) -----------------------------------------
  // Defaults are no-ops: lru derives everything it needs from the cluster's
  // per-object access stats (n_access, T_access), exactly like the paper.
  virtual void OnAdmit(const std::string& key, Bytes size, const std::string& function,
                       SimTime now);
  virtual void OnAccess(const std::string& key, Bytes size, const std::string& function,
                        SimTime now);
  // The object left the cache (evicted, swept, persisted-and-dropped, external
  // invalidation). Policies drop per-key state here.
  virtual void OnRemove(const std::string& key);

  // ---- Reclamation decisions (CacheAgent) ----------------------------------------

  // §6.4 phase 3: orders the candidate inputs in place, evict-first first. The
  // default sorts ascending by (EvictScore, key) — a deterministic total order;
  // lru overrides it with the exact legacy comparator.
  virtual void OnEvictCandidates(std::vector<rc::CachedObject>* candidates,
                                 SimTime now) const;

  // §6.3 sweep: true when `obj` (already resident >= one sweep period) is cold
  // and should be purged.
  virtual bool OnSweep(const rc::CachedObject& obj, SimTime now) const = 0;

  // Retention value behind the default candidate order: lower = evict first.
  // Also the cross-policy ordering when per-function overrides mix policies in
  // one candidate list.
  virtual double EvictScore(const rc::CachedObject& obj, SimTime now) const = 0;

  // Drops per-key state for keys absent from `live_keys` (sorted ascending);
  // called from the sweep so policy state tracks the live object population.
  virtual void Prune(const std::vector<std::string>& live_keys);

 protected:
  CachePolicyConfig config_;
};

// Parsed `--cache-policy` spec: a default policy plus per-function overrides.
// Grammar: NAME[,function=NAME]...   e.g. "gdsf" or "lru,wand_blur=gdsf".
struct CachePolicySpec {
  std::string default_policy = "lru";
  // (function, policy) pairs in spec order (later entries win on duplicates).
  std::vector<std::pair<std::string, std::string>> per_function;
};
// Validates names against the known policies; kInvalidArgument on anything else.
Result<CachePolicySpec> ParseCachePolicySpec(const std::string& text);
// The registered policy names, sorted ("cost-aware", "gdsf", ...).
std::vector<std::string> KnownCachePolicies();

struct CachePolicyEngineOptions {
  CachePolicyConfig config;
  BenefitFn benefit;  // Null: cost-aware assumes confidence 0.5 everywhere.
  // Observability sinks. Null `metrics` -> private registry; null `flight` ->
  // eviction-reason records are skipped.
  obs::MetricsRegistry* metrics = nullptr;
  obs::FlightRecorder* flight = nullptr;
};

// Composes the configured policies and owns the `ofc.policy.*` metric cells.
// Keys are routed to their function's policy (tagged at OnAdmit/OnAccess);
// unattributed keys fall back to the default policy, so a single-policy engine
// degenerates to exactly that policy with zero per-key routing state.
class CachePolicyEngine {
 public:
  static Result<std::unique_ptr<CachePolicyEngine>> Create(
      const std::string& spec_text, CachePolicyEngineOptions options);

  // Prefer Create(): it validates the spec text. Public only so the factory
  // can make_unique an engine from an already-parsed spec.
  CachePolicyEngine(CachePolicySpec spec, std::string spec_text,
                    CachePolicyEngineOptions options);

  // ---- Data-plane notifications (Proxy) -----------------------------------------
  void OnAdmit(const std::string& key, Bytes size, const std::string& function,
               SimTime now);
  void OnAccess(const std::string& key, Bytes size, const std::string& function,
                SimTime now);
  void OnRemove(const std::string& key);

  // ---- Reclamation decisions (CacheAgent) ----------------------------------------

  // Orders §6.4 phase-3 candidates evict-first first. Single-policy engines
  // delegate wholesale (lru keeps its byte-identical legacy sort); mixed
  // engines order by each object's own policy score for one total order.
  void RankEvictionCandidates(std::vector<rc::CachedObject>* candidates, SimTime now);

  // §6.3 cold test for one resident object, via the object's policy.
  bool SweepCold(const rc::CachedObject& obj, SimTime now);

  // Accounts one eviction (metrics + flight event) and drops policy state.
  void NoteEviction(const rc::CachedObject& obj, EvictionReason reason, int worker,
                    SimTime now);

  // Sweep-time GC: drops routing + policy state for dead keys. `live_keys`
  // need not be sorted; the engine sorts its own copy.
  void Prune(std::vector<std::string> live_keys);

  const std::string& spec() const { return spec_; }
  const char* default_policy_name() const { return default_policy_->name(); }
  bool single_policy() const { return overrides_.empty(); }

 private:
  CachePolicy* PolicyForKey(const std::string& key);
  CachePolicy* PolicyForFunction(const std::string& function);

  std::string spec_;
  CachePolicyEngineOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // When none injected.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Emitter emit_;

  // Owned policy instances: the default plus one per distinct override name.
  // Ordered by name; iterated only along deterministic paths (Prune).
  std::map<std::string, std::unique_ptr<CachePolicy>> policies_;
  CachePolicy* default_policy_ = nullptr;
  std::map<std::string, CachePolicy*> overrides_;  // function -> policy.
  std::map<std::string, CachePolicy*> key_policy_;  // key -> policy (mixed mode).

  struct Metrics {
    obs::Counter* admits = nullptr;
    obs::Counter* accesses = nullptr;
    obs::Counter* removals = nullptr;
    obs::Counter* evictions_capacity = nullptr;
    obs::Counter* evictions_sweep = nullptr;
    obs::Counter* evictions_persisted = nullptr;
    obs::Counter* bytes_evicted_capacity = nullptr;
    obs::Counter* bytes_evicted_sweep = nullptr;
    obs::Counter* bytes_evicted_persisted = nullptr;
    obs::Gauge* tracked_keys = nullptr;  // Mixed-mode routing entries.
    obs::Gauge* selected = nullptr;      // 1, labeled by the default policy.
  };
  Metrics m_;
};

}  // namespace ofc::core

#endif  // OFC_CORE_CACHE_POLICY_H_
