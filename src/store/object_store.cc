#include "src/store/object_store.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/sim_assert.h"

namespace ofc::store {

ObjectStore::ObjectStore(sim::EventLoop* loop, StoreProfile profile, Rng rng,
                         std::string name, obs::MetricsRegistry* metrics)
    : loop_(loop), profile_(profile), rng_(rng), name_(std::move(name)) {
  InitMetrics(metrics);
}

ObjectStore::ObjectStore(sim::EventLoop* loop, sim::LatencyModel request_latency, Rng rng,
                         std::string name, std::optional<sim::LatencyModel> control_latency,
                         obs::MetricsRegistry* metrics)
    : ObjectStore(loop,
                  StoreProfile{request_latency, request_latency,
                               control_latency.value_or(sim::LatencyModel{
                                   request_latency.base, 0.0,
                                   request_latency.jitter_fraction})},
                  rng, std::move(name), metrics) {}

void ObjectStore::InitMetrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  m_.reads = metrics_->GetCounter("ofc.store.reads", name_);
  m_.writes = metrics_->GetCounter("ofc.store.writes", name_);
  m_.shadow_writes = metrics_->GetCounter("ofc.store.shadow_writes", name_);
  m_.payload_finalizes = metrics_->GetCounter("ofc.store.payload_finalizes", name_);
  m_.deletes = metrics_->GetCounter("ofc.store.deletes", name_);
  m_.unavailable_errors = metrics_->GetCounter("ofc.store.unavailable_errors", name_);
  m_.webhook_bypasses = metrics_->GetCounter("ofc.store.webhook_bypasses", name_);
  m_.checksum_failures =
      metrics_->GetCounter("ofc.integrity.store_checksum_failures", name_);
  m_.integrity_repairs = metrics_->GetCounter("ofc.integrity.store_repairs", name_);
  m_.bytes_read = metrics_->GetCounter("ofc.store.bytes_read", name_);
  m_.bytes_written = metrics_->GetCounter("ofc.store.bytes_written", name_);
}

void ObjectStore::After(SimDuration delay, std::function<void()> fn) {
  loop_->ScheduleAfter(delay, std::move(fn));
}

SimDuration ObjectStore::ControlCost() { return Inflate(profile_.control.Cost(0, &rng_)); }

SimDuration ObjectStore::ReadCost(Bytes size) {
  return Inflate(profile_.read.Cost(size, &rng_));
}

SimDuration ObjectStore::WriteCost(Bytes size) {
  return Inflate(profile_.write.Cost(size, &rng_));
}

SimDuration ObjectStore::Inflate(SimDuration cost) const {
  if (latency_factor_ <= 1.0) {
    return cost;
  }
  return static_cast<SimDuration>(static_cast<double>(cost) * latency_factor_);
}

bool ObjectStore::FailIfUnavailable(const char* op, const std::string& key,
                                    Callback& done) {
  if (available_) {
    return false;
  }
  ++*m_.unavailable_errors;
  After(ControlCost(), [op, key, done = std::move(done)]() {
    done(UnavailableError(std::string(op) + ": store unavailable: " + key));
  });
  return true;
}

bool ObjectStore::FailIfUnavailable(const char* op, const std::string& key,
                                    MetaCallback& done) {
  if (available_) {
    return false;
  }
  ++*m_.unavailable_errors;
  After(ControlCost(), [op, key, done = std::move(done)]() {
    done(UnavailableError(std::string(op) + ": store unavailable: " + key));
  });
  return true;
}

void ObjectStore::Put(const std::string& key, Bytes size, Tags tags, Callback done) {
  if (FailIfUnavailable("put", key, done)) {
    return;
  }
  const SimDuration cost = WriteCost(size);
  After(cost, [this, key, size, tags, done = std::move(done)]() {
    Entry& entry = objects_[key];
    ObjectMetadata& obj = entry.meta;
    obj.size = size;
    obj.pending_size = 0;
    obj.latest_version = next_version_++;
    obj.rsds_version = obj.latest_version;
    entry.tags = tags;
    obj.checksum = ExpectedChecksum(key, obj.size, obj.rsds_version);
    // A full-payload write leaves the object in the converged state.
    SIM_ASSERT(!obj.IsShadow()) << "; Put left a shadow: " << key;
    ++*m_.writes;
    m_.bytes_written->Add(static_cast<std::uint64_t>(size));
    done(OkStatus());
  });
}

void ObjectStore::PutIfVersion(const std::string& key, ObjectVersion expected_latest,
                               Bytes size, Tags tags, Checksum fingerprint,
                               Callback done) {
  if (FailIfUnavailable("put_if_version", key, done)) {
    return;
  }
  const SimDuration cost = WriteCost(size);
  After(cost, [this, key, expected_latest, size, fingerprint, tags,
               done = std::move(done)]() {
    // The carried fingerprint is verified before anything lands: a payload
    // damaged between the acknowledging write and this push must never be
    // installed as the authoritative copy.
    if (fingerprint != PayloadFingerprint(key, size)) {
      ++*m_.checksum_failures;
      done(DataLossError("put_if_version: corrupt payload push: " + key));
      return;
    }
    auto found = objects_.find(key);
    const ObjectVersion current = found == objects_.end() ? 0 : found->second.meta.latest_version;
    // Checked when the write *lands*, not when it starts: an atomic
    // compare-and-swap against whatever arrived while it was in flight.
    if (current != expected_latest) {
      done(AbortedError("put_if_version: " + key + " advanced to v" +
                        std::to_string(current)));
      return;
    }
    Entry& entry = objects_[key];
    ObjectMetadata& obj = entry.meta;
    obj.size = size;
    obj.pending_size = 0;
    obj.latest_version = next_version_++;
    obj.rsds_version = obj.latest_version;
    entry.tags = tags;
    obj.checksum = ExpectedChecksum(key, obj.size, obj.rsds_version);
    SIM_ASSERT(!obj.IsShadow()) << "; PutIfVersion left a shadow: " << key;
    ++*m_.writes;
    m_.bytes_written->Add(static_cast<std::uint64_t>(size));
    done(OkStatus());
  });
}

void ObjectStore::PutShadow(const std::string& key, Bytes pending_size, MetaCallback done) {
  if (FailIfUnavailable("put_shadow", key, done)) {
    return;
  }
  After(ControlCost(), [this, key, pending_size, done = std::move(done)]() {
    // A new key starts with no resident payload (rsds_version 0) and no tags.
    ObjectMetadata& obj = objects_[key].meta;
    obj.pending_size = pending_size;
    obj.latest_version = next_version_++;
    // Shadow state machine: the placeholder's cache-visible version is always
    // strictly ahead of the RSDS-resident payload version.
    SIM_ASSERT(obj.rsds_version < obj.latest_version)
        << "; shadow write did not advance latest_version: " << key;
    ++*m_.shadow_writes;
    done(obj);
  });
}

void ObjectStore::FinalizePayload(const std::string& key, ObjectVersion version, Bytes size,
                                  Checksum fingerprint, Callback done) {
  if (FailIfUnavailable("finalize", key, done)) {
    return;
  }
  const SimDuration cost = WriteCost(size);
  After(cost, [this, key, version, size, fingerprint, done = std::move(done)]() {
    if (fingerprint != PayloadFingerprint(key, size)) {
      ++*m_.checksum_failures;
      done(DataLossError("finalize: corrupt payload push: " + key));
      return;
    }
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      done(NotFoundError("finalize: " + key));
      return;
    }
    ObjectMetadata& obj = it->second.meta;
    if (version <= obj.rsds_version) {
      done(AbortedError("finalize out of order: " + key));
      return;
    }
    obj.rsds_version = version;
    obj.size = size;
    obj.checksum = ExpectedChecksum(key, obj.size, obj.rsds_version);
    // Persistors only install versions that a shadow write announced: the
    // RSDS-resident version catches up but never overtakes latest_version.
    SIM_ASSERT(obj.rsds_version <= obj.latest_version)
        << "; finalize overtook latest: " << key << " v" << version << " > v"
        << obj.latest_version;
    if (obj.rsds_version == obj.latest_version) {
      obj.pending_size = 0;
    }
    ++*m_.payload_finalizes;
    m_.bytes_written->Add(static_cast<std::uint64_t>(size));
    done(OkStatus());
  });
}

void ObjectStore::Get(const std::string& key, MetaCallback done) {
  if (FailIfUnavailable("get", key, done)) {
    return;
  }
  auto it = objects_.find(key);
  // Cost is computed up front from the current size; a miss costs one RTT.
  const SimDuration cost =
      it == objects_.end() ? ControlCost() : ReadCost(it->second.meta.size);
  After(cost, [this, key, done = std::move(done)]() mutable {
    auto it2 = objects_.find(key);
    if (it2 == objects_.end()) {
      done(NotFoundError("get: " + key));
      return;
    }
    ++*m_.reads;
    ObjectMetadata& obj = it2->second.meta;
    m_.bytes_read->Add(static_cast<std::uint64_t>(obj.size));
    const Checksum expected = ExpectedChecksum(key, obj.size, obj.rsds_version);
    if (obj.checksum != expected) {
      // Rotted copy: object stores hold their own internal redundancy, so the
      // read is retried against another replica (one extra payload read) and
      // the damaged copy repaired in place. Corrupt data is never returned.
      ++*m_.checksum_failures;
      obj.checksum = expected;
      ++*m_.integrity_repairs;
      After(ReadCost(obj.size), [this, key, done = std::move(done)]() {
        auto it3 = objects_.find(key);
        if (it3 == objects_.end()) {
          done(NotFoundError("get: " + key));
          return;
        }
        m_.bytes_read->Add(static_cast<std::uint64_t>(it3->second.meta.size));
        done(it3->second.meta);
      });
      return;
    }
    done(obj);
  });
}

void ObjectStore::Head(const std::string& key, MetaCallback done) {
  if (FailIfUnavailable("head", key, done)) {
    return;
  }
  After(ControlCost(), [this, key, done = std::move(done)]() {
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      done(NotFoundError("head: " + key));
      return;
    }
    done(it->second.meta);
  });
}

void ObjectStore::Delete(const std::string& key, Callback done) {
  if (FailIfUnavailable("delete", key, done)) {
    return;
  }
  After(ControlCost(), [this, key, done = std::move(done)]() {
    if (objects_.erase(key) == 0) {
      done(NotFoundError("delete: " + key));
      return;
    }
    ++*m_.deletes;
    done(OkStatus());
  });
}

void ObjectStore::ExternalRead(const std::string& key, MetaCallback done) {
  if (read_webhook_ && !webhooks_enabled_) {
    // Dropped webhook: the read proceeds without waiting for the persistor, so
    // an external client may observe a stale payload. Counted, never silent.
    ++*m_.webhook_bypasses;
    Get(key, std::move(done));
    return;
  }
  if (read_webhook_) {
    // The webhook must complete (e.g. waiting on a persistor boost) before the
    // external read proceeds against the store.
    read_webhook_(key, [this, key, done = std::move(done)]() mutable {
      Get(key, std::move(done));
    });
    return;
  }
  Get(key, std::move(done));
}

void ObjectStore::ExternalWrite(const std::string& key, Bytes size, Callback done) {
  if (write_webhook_ && !webhooks_enabled_) {
    // Dropped webhook: cached copies are not invalidated for this write.
    ++*m_.webhook_bypasses;
    Put(key, size, {}, std::move(done));
    return;
  }
  if (write_webhook_) {
    write_webhook_(key, [this, key, size, done = std::move(done)]() mutable {
      Put(key, size, {}, std::move(done));
    });
    return;
  }
  Put(key, size, {}, std::move(done));
}

Result<ObjectMetadata> ObjectStore::Stat(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError("stat: " + key);
  }
  return it->second.meta;
}

Result<Tags> ObjectStore::TagsOf(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError("tags: " + key);
  }
  return it->second.tags;
}

std::vector<std::string> ObjectStore::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(objects_.size());
  for (const auto& [key, obj] : objects_) {
    keys.push_back(key);
  }
  return keys;
}

std::vector<std::string> ObjectStore::KeysAfter(const std::string& after,
                                                std::size_t limit) const {
  std::vector<std::string> keys;
  for (auto it = objects_.upper_bound(after); it != objects_.end() && keys.size() < limit;
       ++it) {
    keys.push_back(it->first);
  }
  return keys;
}

Bytes ObjectStore::TotalBytes() const {
  Bytes total = 0;
  for (const auto& [key, entry] : objects_) {
    total += entry.meta.size;
  }
  return total;
}

void ObjectStore::Seed(const std::string& key, Bytes size, Tags tags) {
  Entry& entry = objects_[key];
  ObjectMetadata& obj = entry.meta;
  obj.size = size;
  obj.latest_version = next_version_++;
  obj.rsds_version = obj.latest_version;
  entry.tags = tags;
  obj.checksum = ExpectedChecksum(key, obj.size, obj.rsds_version);
}

int ObjectStore::Rot(int flips) {
  int flipped = 0;
  for (auto& [key, entry] : objects_) {
    if (flipped >= flips) {
      break;
    }
    ObjectMetadata& obj = entry.meta;
    const Checksum expected = ExpectedChecksum(key, obj.size, obj.rsds_version);
    // Only damage currently-healthy copies: CorruptChecksum is an involution,
    // so re-corrupting an already-rotted object would silently heal it.
    if (obj.checksum != expected) {
      continue;
    }
    obj.checksum = CorruptChecksum(obj.checksum);
    ++flipped;
  }
  return flipped;
}

int ObjectStore::ScrubKey(const std::string& key) {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return 0;
  }
  ObjectMetadata& obj = it->second.meta;
  const Checksum expected = ExpectedChecksum(key, obj.size, obj.rsds_version);
  if (obj.checksum == expected) {
    return 0;
  }
  ++*m_.checksum_failures;
  obj.checksum = expected;
  ++*m_.integrity_repairs;
  return 1;
}

}  // namespace ofc::store
