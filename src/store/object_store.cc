#include "src/store/object_store.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/sim_assert.h"

namespace ofc::store {

ObjectStore::ObjectStore(sim::EventLoop* loop, StoreProfile profile, Rng rng,
                         std::string name, obs::MetricsRegistry* metrics)
    : loop_(loop),
      profile_(profile),
      rng_(rng),
      name_(std::move(name)) {
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

ObjectStore::Op& ObjectStore::NewOp(const std::string& key, void (ObjectStore::*land)(Op& op)) {
  Op& op = *ops_.Acquire();
  op.key = key;
  op.land = land;
  return op;
}

void ObjectStore::After(SimDuration delay, Op& op) {
  loop_->ScheduleAfter(delay, [this, op = &op] { (this->*op->land)(*op); });
}

void ObjectStore::Finish(Op& op, Status status) {
  Callback done = std::move(op.done);
  ops_.Release(&op);
  done(std::move(status));
}

void ObjectStore::FinishMeta(Op& op, Result<ObjectMetadata> meta) {
  MetaCallback done = std::move(op.meta_done);
  ops_.Release(&op);
  done(std::move(meta));
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
  loop_->ScheduleAfter(ControlCost(), [op, key, done = std::move(done)]() mutable {
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
  loop_->ScheduleAfter(ControlCost(), [op, key, done = std::move(done)]() mutable {
    done(UnavailableError(std::string(op) + ": store unavailable: " + key));
  });
  return true;
}

void ObjectStore::Install(const std::string& key, Bytes size, Tags tags) {
  // Every field is set, so a recycled record keeps nothing of its last object.
  Entry& entry = *objects_.Insert(key).first;
  ObjectMetadata& obj = entry.meta;
  obj.size = size;
  obj.pending_size = 0;
  obj.latest_version = next_version_++;
  obj.rsds_version = obj.latest_version;
  entry.tags = tags;
  obj.checksum = ExpectedChecksum(key, obj.size, obj.rsds_version);
  // A full-payload write leaves the object in the converged state.
  SIM_ASSERT(!obj.IsShadow()) << "; full write left a shadow: " << key;
  ++*m_.writes;
  m_.bytes_written->Add(static_cast<std::uint64_t>(size));
}

void ObjectStore::Put(const std::string& key, Bytes size, Tags tags, Callback done) {
  if (FailIfUnavailable("put", key, done)) {
    return;
  }
  const SimDuration cost = WriteCost(size);
  Op& op = NewOp(key, &ObjectStore::LandPut);
  op.size = size;
  op.tags = tags;
  op.done = std::move(done);
  After(cost, op);
}

void ObjectStore::LandPut(Op& op) {
  Install(op.key, op.size, op.tags);
  Finish(op, OkStatus());
}

void ObjectStore::PutIfVersion(const std::string& key, ObjectVersion expected_latest,
                               Bytes size, Tags tags, Checksum fingerprint,
                               Callback done) {
  if (FailIfUnavailable("put_if_version", key, done)) {
    return;
  }
  const SimDuration cost = WriteCost(size);
  Op& op = NewOp(key, &ObjectStore::LandPutIfVersion);
  op.version = expected_latest;
  op.size = size;
  op.tags = tags;
  op.fingerprint = fingerprint;
  op.done = std::move(done);
  After(cost, op);
}

void ObjectStore::LandPutIfVersion(Op& op) {
  const std::string& key = op.key;
  // The carried fingerprint is verified before anything lands: a payload
  // damaged between the acknowledging write and this push must never be
  // installed as the authoritative copy.
  if (op.fingerprint != PayloadFingerprint(key, op.size)) {
    ++*m_.checksum_failures;
    Finish(op, DataLossError("put_if_version: corrupt payload push: " + key));
    return;
  }
  const Entry* found = objects_.Find(key);
  const ObjectVersion current = found == nullptr ? 0 : found->meta.latest_version;
  // Checked when the write *lands*, not when it starts: an atomic
  // compare-and-swap against whatever arrived while it was in flight.
  if (current != op.version) {
    Finish(op, AbortedError("put_if_version: " + key + " advanced to v" +
                            std::to_string(current)));
    return;
  }
  Install(key, op.size, op.tags);
  Finish(op, OkStatus());
}

void ObjectStore::PutShadow(const std::string& key, Bytes pending_size, MetaCallback done) {
  if (FailIfUnavailable("put_shadow", key, done)) {
    return;
  }
  const SimDuration cost = ControlCost();
  Op& op = NewOp(key, &ObjectStore::LandShadow);
  op.size = pending_size;
  op.meta_done = std::move(done);
  After(cost, op);
}

void ObjectStore::LandShadow(Op& op) {
  // A new key starts with no resident payload (rsds_version 0) and no tags.
  const auto [entry, inserted] = objects_.Insert(op.key);
  if (inserted) {
    entry->meta = {};
    entry->tags = {};
  }
  ObjectMetadata& obj = entry->meta;
  obj.pending_size = op.size;
  obj.latest_version = next_version_++;
  // Shadow state machine: the placeholder's cache-visible version is always
  // strictly ahead of the RSDS-resident payload version.
  SIM_ASSERT(obj.rsds_version < obj.latest_version)
      << "; shadow write did not advance latest_version: " << op.key;
  ++*m_.shadow_writes;
  FinishMeta(op, obj);
}

void ObjectStore::FinalizePayload(const std::string& key, ObjectVersion version, Bytes size,
                                  Checksum fingerprint, Callback done) {
  if (FailIfUnavailable("finalize", key, done)) {
    return;
  }
  const SimDuration cost = WriteCost(size);
  Op& op = NewOp(key, &ObjectStore::LandFinalize);
  op.version = version;
  op.size = size;
  op.fingerprint = fingerprint;
  op.done = std::move(done);
  After(cost, op);
}

void ObjectStore::LandFinalize(Op& op) {
  const std::string& key = op.key;
  if (op.fingerprint != PayloadFingerprint(key, op.size)) {
    ++*m_.checksum_failures;
    Finish(op, DataLossError("finalize: corrupt payload push: " + key));
    return;
  }
  Entry* entry = objects_.Find(key);
  if (entry == nullptr) {
    Finish(op, NotFoundError("finalize: " + key));
    return;
  }
  ObjectMetadata& obj = entry->meta;
  if (op.version <= obj.rsds_version) {
    Finish(op, AbortedError("finalize out of order: " + key));
    return;
  }
  obj.rsds_version = op.version;
  obj.size = op.size;
  obj.checksum = ExpectedChecksum(key, obj.size, obj.rsds_version);
  // Persistors only install versions that a shadow write announced: the
  // RSDS-resident version catches up but never overtakes latest_version.
  SIM_ASSERT(obj.rsds_version <= obj.latest_version)
      << "; finalize overtook latest: " << key << " v" << op.version << " > v"
      << obj.latest_version;
  if (obj.rsds_version == obj.latest_version) {
    obj.pending_size = 0;
  }
  ++*m_.payload_finalizes;
  m_.bytes_written->Add(static_cast<std::uint64_t>(op.size));
  Finish(op, OkStatus());
}

void ObjectStore::Get(const std::string& key, MetaCallback done) {
  if (FailIfUnavailable("get", key, done)) {
    return;
  }
  const Entry* entry = objects_.Find(key);
  // Cost is computed up front from the current size; a miss costs one RTT.
  const SimDuration cost = entry == nullptr ? ControlCost() : ReadCost(entry->meta.size);
  Op& op = NewOp(key, &ObjectStore::LandGet);
  op.meta_done = std::move(done);
  After(cost, op);
}

void ObjectStore::LandGet(Op& op) {
  Entry* entry = objects_.Find(op.key);
  if (entry == nullptr) {
    FinishMeta(op, NotFoundError("get: " + op.key));
    return;
  }
  ++*m_.reads;
  ObjectMetadata& obj = entry->meta;
  m_.bytes_read->Add(static_cast<std::uint64_t>(obj.size));
  const Checksum expected = ExpectedChecksum(op.key, obj.size, obj.rsds_version);
  if (obj.checksum != expected) {
    // Rotted copy: object stores hold their own internal redundancy, so the
    // read is retried against another replica (one extra payload read) and
    // the damaged copy repaired in place. Corrupt data is never returned.
    ++*m_.checksum_failures;
    obj.checksum = expected;
    ++*m_.integrity_repairs;
    op.land = &ObjectStore::LandRepairedGet;
    After(ReadCost(obj.size), op);
    return;
  }
  FinishMeta(op, obj);
}

void ObjectStore::LandRepairedGet(Op& op) {
  const Entry* entry = objects_.Find(op.key);
  if (entry == nullptr) {
    FinishMeta(op, NotFoundError("get: " + op.key));
    return;
  }
  m_.bytes_read->Add(static_cast<std::uint64_t>(entry->meta.size));
  FinishMeta(op, entry->meta);
}

void ObjectStore::Head(const std::string& key, MetaCallback done) {
  if (FailIfUnavailable("head", key, done)) {
    return;
  }
  const SimDuration cost = ControlCost();
  Op& op = NewOp(key, &ObjectStore::LandHead);
  op.meta_done = std::move(done);
  After(cost, op);
}

void ObjectStore::LandHead(Op& op) {
  const Entry* entry = objects_.Find(op.key);
  if (entry == nullptr) {
    FinishMeta(op, NotFoundError("head: " + op.key));
    return;
  }
  FinishMeta(op, entry->meta);
}

void ObjectStore::Delete(const std::string& key, Callback done) {
  if (FailIfUnavailable("delete", key, done)) {
    return;
  }
  const SimDuration cost = ControlCost();
  Op& op = NewOp(key, &ObjectStore::LandDelete);
  op.done = std::move(done);
  After(cost, op);
}

void ObjectStore::LandDelete(Op& op) {
  Entry* entry = objects_.Find(op.key);
  if (entry == nullptr) {
    Finish(op, NotFoundError("delete: " + op.key));
    return;
  }
  objects_.Erase(entry);
  ++*m_.deletes;
  Finish(op, OkStatus());
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
  const Entry* entry = objects_.Find(key);
  if (entry == nullptr) {
    return NotFoundError("stat: " + key);
  }
  return entry->meta;
}

Result<Tags> ObjectStore::TagsOf(const std::string& key) const {
  const Entry* entry = objects_.Find(key);
  if (entry == nullptr) {
    return NotFoundError("tags: " + key);
  }
  return entry->tags;
}

std::vector<std::string> ObjectStore::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(objects_.size());
  for (const Entry* entry : objects_.InKeyOrder([](const Entry&) { return true; })) {
    keys.push_back(entry->key);
  }
  return keys;
}

std::vector<std::string> ObjectStore::KeysAfter(const std::string& after,
                                                std::size_t limit) const {
  return objects_.KeysAfter(after, limit);
}

Bytes ObjectStore::TotalBytes() const {
  Bytes total = 0;
  for (const Entry* entry : objects_.InKeyOrder([](const Entry&) { return true; })) {
    total += entry->meta.size;
  }
  return total;
}

void ObjectStore::Seed(const std::string& key, Bytes size, Tags tags) {
  const auto [entry, inserted] = objects_.Insert(key);
  ObjectMetadata& obj = entry->meta;
  if (inserted) {
    obj.pending_size = 0;  // A recycled record still holds its last object's.
  }
  obj.size = size;
  obj.latest_version = next_version_++;
  obj.rsds_version = obj.latest_version;
  entry->tags = tags;
  obj.checksum = ExpectedChecksum(key, obj.size, obj.rsds_version);
}

int ObjectStore::Rot(int flips) {
  // Only damage currently-healthy copies: CorruptChecksum is an involution,
  // so re-corrupting an already-rotted object would silently heal it.
  const std::vector<Entry*> healthy = objects_.InKeyOrder([](const Entry& entry) {
    return entry.meta.checksum ==
           ExpectedChecksum(entry.key, entry.meta.size, entry.meta.rsds_version);
  });
  int flipped = 0;
  for (Entry* entry : healthy) {
    if (flipped >= flips) {
      break;
    }
    entry->meta.checksum = CorruptChecksum(entry->meta.checksum);
    ++flipped;
  }
  return flipped;
}

int ObjectStore::ScrubKey(const std::string& key) {
  Entry* entry = objects_.Find(key);
  if (entry == nullptr) {
    return 0;
  }
  ObjectMetadata& obj = entry->meta;
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
