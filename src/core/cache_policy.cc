#include "src/core/cache_policy.h"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace ofc::core {

const char* EvictionReasonName(EvictionReason reason) {
  switch (reason) {
    case EvictionReason::kPersistedDiscard:
      return "persisted_discard";
    case EvictionReason::kCapacity:
      return "capacity";
    case EvictionReason::kSweep:
      return "sweep";
  }
  return "unknown";
}

void CachePolicy::OnAdmit(const std::string&, Bytes, const std::string&, SimTime) {}
void CachePolicy::OnAccess(const std::string&, Bytes, const std::string&, SimTime) {}
void CachePolicy::OnRemove(const std::string&) {}
void CachePolicy::Prune(const std::vector<std::string>&) {}

void CachePolicy::OnEvictCandidates(std::vector<rc::CachedObject>* candidates,
                                    SimTime now) const {
  // (score, key) is a strict total order, so mixed-policy candidate lists rank
  // identically on every same-seed replay.
  std::sort(candidates->begin(), candidates->end(),
            [this, now](const rc::CachedObject& a, const rc::CachedObject& b) {
              const double sa = EvictScore(a, now);
              const double sb = EvictScore(b, now);
              return sa != sb ? sa < sb : a.key < b.key;
            });
}

namespace {

// ---- lru: the paper's policy, byte-for-byte --------------------------------------

class LruPolicy final : public CachePolicy {
 public:
  using CachePolicy::CachePolicy;
  const char* name() const override { return "lru"; }

  void OnEvictCandidates(std::vector<rc::CachedObject>* candidates,
                         SimTime) const override {
    // Exactly the pre-subsystem CacheAgent sort: ascending last_access, ties
    // left in input order. Replays of the PR 1..9 goldens depend on this.
    std::sort(candidates->begin(), candidates->end(),
              [](const rc::CachedObject& a, const rc::CachedObject& b) {
                return a.last_access < b.last_access;
              });
  }

  bool OnSweep(const rc::CachedObject& obj, SimTime now) const override {
    return obj.access_count < config_.sweep_min_access ||
           now - obj.last_access > config_.sweep_max_idle;
  }

  double EvictScore(const rc::CachedObject& obj, SimTime) const override {
    return static_cast<double>(obj.last_access);
  }
};

// ---- gdsf: GreedyDual-Size-Frequency ---------------------------------------------

class GdsfPolicy final : public CachePolicy {
 public:
  using CachePolicy::CachePolicy;
  const char* name() const override { return "gdsf"; }

  void OnAdmit(const std::string& key, Bytes size, const std::string&,
               SimTime) override {
    entries_[key] = Entry{1, clock_ + CostPerByte(size)};
  }

  void OnAccess(const std::string& key, Bytes size, const std::string&,
                SimTime) override {
    Entry& e = entries_[key];
    ++e.freq;
    e.priority = clock_ + static_cast<double>(e.freq) * CostPerByte(size);
  }

  void OnRemove(const std::string& key) override {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return;
    }
    // The inflation clock rises to the evicted priority, so long-resident
    // objects cannot coast on stale high priorities forever.
    clock_ = std::max(clock_, it->second.priority);
    entries_.erase(it);
  }

  bool OnSweep(const rc::CachedObject& obj, SimTime now) const override {
    // Size/frequency pressure is the ranking's job; the sweep only reclaims
    // objects that are plainly idle, or never earned their keep over a full
    // period (same thresholds as the paper's sweep, idle test relaxed).
    return now - obj.last_access > config_.sweep_max_idle ||
           (obj.access_count < config_.sweep_min_access &&
            now - obj.last_access > config_.sweep_period);
  }

  double EvictScore(const rc::CachedObject& obj, SimTime) const override {
    auto it = entries_.find(obj.key);
    if (it != entries_.end()) {
      return it->second.priority;
    }
    // Untracked (admitted outside the proxy path): price it from the cluster's
    // own access count.
    return clock_ + static_cast<double>(obj.access_count) * CostPerByte(obj.size);
  }

  void Prune(const std::vector<std::string>& live_keys) override {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (std::binary_search(live_keys.begin(), live_keys.end(), it->first)) {
        ++it;
      } else {
        it = entries_.erase(it);
      }
    }
  }

 private:
  struct Entry {
    std::uint64_t freq = 0;
    double priority = 0.0;
  };

  // Reload cost (jitter-free RSDS read, microseconds) per cached byte: the
  // classic H = L + F * C / S with C priced from the store latency profile.
  double CostPerByte(Bytes size) const {
    const SimDuration cost = config_.store_profile.read.Cost(size, nullptr);
    return static_cast<double>(cost) / static_cast<double>(std::max<Bytes>(1, size));
  }

  double clock_ = 0.0;  // Inflation clock L (rises on eviction).
  std::map<std::string, Entry> entries_;
};

// ---- lfu-decay: frequency with sim-time exponential decay ------------------------

class LfuDecayPolicy final : public CachePolicy {
 public:
  using CachePolicy::CachePolicy;
  const char* name() const override { return "lfu-decay"; }

  void OnAdmit(const std::string& key, Bytes, const std::string&, SimTime now) override {
    entries_[key] = Entry{1.0, now};
  }

  void OnAccess(const std::string& key, Bytes, const std::string&, SimTime now) override {
    Entry& e = entries_[key];
    e.score = Decayed(e.score, now - e.touched) + 1.0;
    e.touched = now;
  }

  void OnRemove(const std::string& key) override { entries_.erase(key); }

  bool OnSweep(const rc::CachedObject& obj, SimTime now) const override {
    // The paper's cold test with the raw access count replaced by the decayed
    // frequency: a once-hot object decays below the threshold and is swept.
    return EvictScore(obj, now) < static_cast<double>(config_.sweep_min_access) ||
           now - obj.last_access > config_.sweep_max_idle;
  }

  double EvictScore(const rc::CachedObject& obj, SimTime now) const override {
    auto it = entries_.find(obj.key);
    if (it != entries_.end()) {
      return Decayed(it->second.score, now - it->second.touched);
    }
    return Decayed(static_cast<double>(obj.access_count), now - obj.last_access);
  }

  void Prune(const std::vector<std::string>& live_keys) override {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (std::binary_search(live_keys.begin(), live_keys.end(), it->first)) {
        ++it;
      } else {
        it = entries_.erase(it);
      }
    }
  }

 private:
  struct Entry {
    double score = 0.0;
    SimTime touched = 0;
  };

  double Decayed(double score, SimDuration age) const {
    if (config_.lfu_half_life <= 0) {
      return score;
    }
    return score * std::exp2(-static_cast<double>(age) /
                             static_cast<double>(config_.lfu_half_life));
  }

  std::map<std::string, Entry> entries_;
};

// ---- cost-aware: expected (E + L) saved per byte ---------------------------------

class CostAwarePolicy final : public CachePolicy {
 public:
  CostAwarePolicy(CachePolicyConfig config, BenefitFn benefit)
      : CachePolicy(config), benefit_(std::move(benefit)) {}
  const char* name() const override { return "cost-aware"; }

  void OnAdmit(const std::string& key, Bytes, const std::string& function,
               SimTime) override {
    key_function_[key] = function;
  }

  void OnAccess(const std::string& key, Bytes, const std::string& function,
                SimTime) override {
    key_function_[key] = function;
  }

  void OnRemove(const std::string& key) override { key_function_.erase(key); }

  bool OnSweep(const rc::CachedObject& obj, SimTime now) const override {
    // Cold when idle too long, or when the observed rate projects less than one
    // access over the next period and the raw count is below the paper's bar.
    return now - obj.last_access > config_.sweep_max_idle ||
           (AccessRate(obj, now) < 1.0 &&
            obj.access_count < config_.sweep_min_access);
  }

  double EvictScore(const rc::CachedObject& obj, SimTime now) const override {
    // Expected E+L microseconds the cache saves per byte over the next sweep
    // period: access rate times the full RSDS round trip (the read the next
    // miss would pay plus the write the §6.2 write-back path absorbed),
    // discounted by the ml_service's per-function benefit confidence.
    const SimDuration roundtrip =
        config_.store_profile.read.Cost(obj.size, nullptr) +
        config_.store_profile.write.Cost(obj.size, nullptr);
    return Confidence(obj.key) * AccessRate(obj, now) *
           static_cast<double>(roundtrip) /
           static_cast<double>(std::max<Bytes>(1, obj.size));
  }

  void Prune(const std::vector<std::string>& live_keys) override {
    for (auto it = key_function_.begin(); it != key_function_.end();) {
      if (std::binary_search(live_keys.begin(), live_keys.end(), it->first)) {
        ++it;
      } else {
        it = key_function_.erase(it);
      }
    }
  }

 private:
  // Observed accesses per sweep period since admission (>= one period assumed:
  // freshly admitted objects are shielded by the CacheAgent's residency guard).
  double AccessRate(const rc::CachedObject& obj, SimTime now) const {
    const double periods =
        std::max(1.0, static_cast<double>(now - obj.created_at) /
                          static_cast<double>(std::max<SimDuration>(1, config_.sweep_period)));
    return static_cast<double>(obj.access_count) / periods;
  }

  double Confidence(const std::string& key) const {
    if (!benefit_) {
      return 0.5;
    }
    auto it = key_function_.find(key);
    return it == key_function_.end() ? 0.5 : benefit_(it->second);
  }

  BenefitFn benefit_;
  std::map<std::string, std::string> key_function_;  // key -> owning function.
};

std::unique_ptr<CachePolicy> MakePolicy(const std::string& name,
                                        const CachePolicyConfig& config,
                                        const BenefitFn& benefit) {
  if (name == "lru") {
    return std::make_unique<LruPolicy>(config);
  }
  if (name == "gdsf") {
    return std::make_unique<GdsfPolicy>(config);
  }
  if (name == "lfu-decay") {
    return std::make_unique<LfuDecayPolicy>(config);
  }
  if (name == "cost-aware") {
    return std::make_unique<CostAwarePolicy>(config, benefit);
  }
  return nullptr;
}

bool KnownPolicy(const std::string& name) {
  return name == "lru" || name == "gdsf" || name == "lfu-decay" || name == "cost-aware";
}

}  // namespace

std::vector<std::string> KnownCachePolicies() {
  return {"cost-aware", "gdsf", "lfu-decay", "lru"};
}

Result<CachePolicySpec> ParseCachePolicySpec(const std::string& text) {
  CachePolicySpec spec;
  if (text.empty()) {
    return spec;  // Empty spec = the paper's default (lru everywhere).
  }
  std::size_t start = 0;
  bool first = true;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string part =
        text.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    start = comma == std::string::npos ? text.size() + 1 : comma + 1;
    const std::size_t eq = part.find('=');
    if (first) {
      first = false;
      if (eq != std::string::npos) {
        return InvalidArgumentError(
            "cache-policy spec must start with the default policy name, got '" + part + "'");
      }
      if (!KnownPolicy(part)) {
        return InvalidArgumentError("unknown cache policy '" + part + "'");
      }
      spec.default_policy = part;
      continue;
    }
    if (eq == std::string::npos || eq == 0 || eq + 1 >= part.size()) {
      return InvalidArgumentError(
          "per-function cache-policy override must be function=policy, got '" + part + "'");
    }
    const std::string function = part.substr(0, eq);
    const std::string policy = part.substr(eq + 1);
    if (!KnownPolicy(policy)) {
      return InvalidArgumentError("unknown cache policy '" + policy + "' for function '" +
                                  function + "'");
    }
    spec.per_function.emplace_back(function, policy);
  }
  return spec;
}

// ---- CachePolicyEngine -----------------------------------------------------------

Result<std::unique_ptr<CachePolicyEngine>> CachePolicyEngine::Create(
    const std::string& spec_text, CachePolicyEngineOptions options) {
  auto spec = ParseCachePolicySpec(spec_text);
  if (!spec.ok()) {
    return spec.status();
  }
  return std::make_unique<CachePolicyEngine>(*spec, spec_text, std::move(options));
}

CachePolicyEngine::CachePolicyEngine(CachePolicySpec spec, std::string spec_text,
                                     CachePolicyEngineOptions options)
    : spec_(spec_text.empty() ? spec.default_policy : std::move(spec_text)),
      options_(std::move(options)) {
  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  emit_ = obs::Emitter(/*trace=*/nullptr, options_.flight);

  auto ensure = [this](const std::string& name) -> CachePolicy* {
    auto it = policies_.find(name);
    if (it == policies_.end()) {
      it = policies_.emplace(name, MakePolicy(name, options_.config, options_.benefit))
               .first;
    }
    return it->second.get();
  };
  default_policy_ = ensure(spec.default_policy);
  for (const auto& [function, policy] : spec.per_function) {
    overrides_[function] = ensure(policy);  // Later spec entries win.
  }

  m_.admits = metrics_->GetCounter("ofc.policy.admits");
  m_.accesses = metrics_->GetCounter("ofc.policy.accesses");
  m_.removals = metrics_->GetCounter("ofc.policy.removals");
  m_.evictions_capacity = metrics_->GetCounter("ofc.policy.evictions", "capacity");
  m_.evictions_sweep = metrics_->GetCounter("ofc.policy.evictions", "sweep");
  m_.evictions_persisted = metrics_->GetCounter("ofc.policy.evictions", "persisted_discard");
  m_.bytes_evicted_capacity = metrics_->GetCounter("ofc.policy.bytes_evicted", "capacity");
  m_.bytes_evicted_sweep = metrics_->GetCounter("ofc.policy.bytes_evicted", "sweep");
  m_.bytes_evicted_persisted =
      metrics_->GetCounter("ofc.policy.bytes_evicted", "persisted_discard");
  m_.tracked_keys = metrics_->GetGauge("ofc.policy.tracked_keys");
  m_.selected = metrics_->GetGauge("ofc.policy.selected", default_policy_->name());
  m_.selected->Set(1.0);
}

CachePolicy* CachePolicyEngine::PolicyForFunction(const std::string& function) {
  auto it = overrides_.find(function);
  return it == overrides_.end() ? default_policy_ : it->second;
}

CachePolicy* CachePolicyEngine::PolicyForKey(const std::string& key) {
  if (single_policy()) {
    return default_policy_;
  }
  auto it = key_policy_.find(key);
  return it == key_policy_.end() ? default_policy_ : it->second;
}

void CachePolicyEngine::OnAdmit(const std::string& key, Bytes size,
                                const std::string& function, SimTime now) {
  ++*m_.admits;
  CachePolicy* policy = PolicyForFunction(function);
  if (!single_policy()) {
    key_policy_[key] = policy;
    m_.tracked_keys->Set(static_cast<double>(key_policy_.size()));
  }
  policy->OnAdmit(key, size, function, now);
}

void CachePolicyEngine::OnAccess(const std::string& key, Bytes size,
                                 const std::string& function, SimTime now) {
  ++*m_.accesses;
  CachePolicy* policy = PolicyForFunction(function);
  if (!single_policy()) {
    key_policy_[key] = policy;
    m_.tracked_keys->Set(static_cast<double>(key_policy_.size()));
  }
  policy->OnAccess(key, size, function, now);
}

void CachePolicyEngine::OnRemove(const std::string& key) {
  ++*m_.removals;
  PolicyForKey(key)->OnRemove(key);
  if (!single_policy()) {
    key_policy_.erase(key);
    m_.tracked_keys->Set(static_cast<double>(key_policy_.size()));
  }
}

void CachePolicyEngine::RankEvictionCandidates(std::vector<rc::CachedObject>* candidates,
                                               SimTime now) {
  if (single_policy()) {
    default_policy_->OnEvictCandidates(candidates, now);
    return;
  }
  // Mixed mode: one total order across policies — each object scored by its
  // own policy, ties broken by key so replays are byte-identical.
  std::sort(candidates->begin(), candidates->end(),
            [this, now](const rc::CachedObject& a, const rc::CachedObject& b) {
              const double sa = PolicyForKey(a.key)->EvictScore(a, now);
              const double sb = PolicyForKey(b.key)->EvictScore(b, now);
              return sa != sb ? sa < sb : a.key < b.key;
            });
}

bool CachePolicyEngine::SweepCold(const rc::CachedObject& obj, SimTime now) {
  return PolicyForKey(obj.key)->OnSweep(obj, now);
}

void CachePolicyEngine::NoteEviction(const rc::CachedObject& obj, EvictionReason reason,
                                     int worker, SimTime now) {
  const std::uint64_t bytes = static_cast<std::uint64_t>(std::max<Bytes>(0, obj.size));
  switch (reason) {
    case EvictionReason::kPersistedDiscard:
      ++*m_.evictions_persisted;
      m_.bytes_evicted_persisted->Add(bytes);
      break;
    case EvictionReason::kCapacity:
      ++*m_.evictions_capacity;
      m_.bytes_evicted_capacity->Add(bytes);
      break;
    case EvictionReason::kSweep:
      ++*m_.evictions_sweep;
      m_.bytes_evicted_sweep->Add(bytes);
      break;
  }
  emit_.Emit({.kind = obs::FlightEventKind::kEvict, .time = now, .worker = worker,
              .subject = obj.key, .detail = EvictionReasonName(reason)});
  OnRemove(obj.key);
}

void CachePolicyEngine::Prune(std::vector<std::string> live_keys) {
  std::sort(live_keys.begin(), live_keys.end());
  if (!single_policy()) {
    for (auto it = key_policy_.begin(); it != key_policy_.end();) {
      if (std::binary_search(live_keys.begin(), live_keys.end(), it->first)) {
        ++it;
      } else {
        it = key_policy_.erase(it);
      }
    }
    m_.tracked_keys->Set(static_cast<double>(key_policy_.size()));
  }
  for (auto& [name, policy] : policies_) {
    policy->Prune(live_keys);
  }
}

}  // namespace ofc::core
