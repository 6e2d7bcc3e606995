#include "src/ramcloud/cluster.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "src/common/logging.h"

namespace ofc::rc {

using obs::FlightEventKind;

namespace {

// The backup copy `obj` holds on `node`, or obj.backups.end(). Backups sit on
// distinct nodes, so there is at most one.
template <typename Object>
auto FindCopy(Object& obj, int node) {
  return std::ranges::find(obj.backups, node, &Replica::node);
}

bool HoldsCopy(const CachedObject& obj, int node) {
  return FindCopy(obj, node) != obj.backups.end();
}

}  // namespace

Cluster::Cluster(sim::EventLoop* loop, int num_nodes, ClusterOptions options, Rng rng)
    : loop_(loop), options_(options), rng_(rng), write_done_(loop), read_done_(loop) {
  assert(num_nodes > 0);
  nodes_.resize(static_cast<std::size_t>(num_nodes));
  for (NodeStats& node : nodes_) {
    node.memory_capacity = options_.default_capacity;
  }
  logs_.reserve(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    logs_.emplace_back(options_.log);
  }

  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  emit_ = obs::Emitter(/*trace=*/nullptr, options_.flight);
  m_.reads = metrics_->GetCounter("ofc.ramcloud.reads");
  m_.read_hits_local = metrics_->GetCounter("ofc.ramcloud.read_hits_local");
  m_.read_hits_remote = metrics_->GetCounter("ofc.ramcloud.read_hits_remote");
  m_.read_misses = metrics_->GetCounter("ofc.ramcloud.read_misses");
  m_.writes = metrics_->GetCounter("ofc.ramcloud.writes");
  m_.write_rejects = metrics_->GetCounter("ofc.ramcloud.write_rejects");
  m_.migrations = metrics_->GetCounter("ofc.ramcloud.migrations");
  m_.evictions = metrics_->GetCounter("ofc.ramcloud.evictions");
  m_.node_crashes = metrics_->GetCounter("ofc.ramcloud.node_crashes");
  m_.node_restarts = metrics_->GetCounter("ofc.ramcloud.node_restarts");
  m_.objects_recovered = metrics_->GetCounter("ofc.ramcloud.objects_recovered");
  m_.objects_lost = metrics_->GetCounter("ofc.ramcloud.objects_lost");
  m_.checksum_failures = metrics_->GetCounter("ofc.integrity.checksum_failures");
  m_.integrity_repairs = metrics_->GetCounter("ofc.integrity.repairs");
  m_.read_data_loss = metrics_->GetCounter("ofc.integrity.read_data_loss");
  m_.nodes_quarantined = metrics_->GetCounter("ofc.ramcloud.nodes_quarantined");
  m_.recovery_ms = metrics_->GetSeries("ofc.ramcloud.recovery_ms");
}

void Cluster::NoteCorruption(const std::string& key, int node, const char* where) {
  ++*m_.checksum_failures;
  emit_.Emit({.kind = FlightEventKind::kCorruptionDetected, .time = loop_->now(), .worker = node,
              .subject = key, .detail = where});
}

void Cluster::NoteRepair(const std::string& key, int node, const char* source) {
  ++*m_.integrity_repairs;
  emit_.Emit({.kind = FlightEventKind::kCorruptionRepaired, .time = loop_->now(), .worker = node,
              .subject = key, .detail = source});
}

int Cluster::CheckNode(int node) const {
  SIM_ASSERT(node >= 0 && node < num_nodes()) << "; node=" << node;
  return node;
}

Bytes Cluster::FreeMemory(int node) const {
  const NodeStats& stats = nodes_[CheckNode(node)];
  if (!stats.alive) {
    return 0;
  }
  return std::max<Bytes>(0, stats.memory_capacity - logs_[node].footprint());
}

Result<std::pair<int, SegmentedLog::EntryId>> Cluster::PlaceInLog(
    int prefer, Bytes size, SimDuration* cleaning_cost) {
  // Candidate order: preferred node first, then the rest by free memory
  // descending. A failed append touches only its own node's log, so the rest
  // sort the same whether ranked before or after the preferred node's try.
  auto place = [&](int node) -> std::optional<SegmentedLog::EntryId> {
    auto entry = logs_[node].Append(size, nodes_[node].memory_capacity, cleaning_cost);
    if (!entry.ok()) {
      return std::nullopt;
    }
    SyncUsed(node);
    return *entry;
  };
  if (prefer >= 0 && prefer < num_nodes() && nodes_[prefer].alive) {
    if (const auto entry = place(prefer)) {
      return std::make_pair(prefer, *entry);
    }
  }
  std::vector<int>& rest = place_candidates_;
  rest.clear();
  for (int n = 0; n < num_nodes(); ++n) {
    if (n != prefer && nodes_[n].alive) {
      rest.push_back(n);
    }
  }
  std::sort(rest.begin(), rest.end(),
            [&](int a, int b) { return FreeMemory(a) > FreeMemory(b); });
  for (int node : rest) {
    if (const auto entry = place(node)) {
      return std::make_pair(node, *entry);
    }
  }
  return ResourceExhaustedError("no node has cache capacity");
}

const std::vector<int>& Cluster::PickBackups(int master, int count) {
  std::vector<int>& candidates = backup_candidates_;
  candidates.clear();
  for (int n = 0; n < num_nodes(); ++n) {
    if (n != master && nodes_[n].alive) {
      candidates.push_back(n);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](int a, int b) { return nodes_[a].disk_used < nodes_[b].disk_used; });
  if (static_cast<int>(candidates.size()) > count) {
    candidates.resize(static_cast<std::size_t>(count));
  }
  return candidates;
}

Status Cluster::ApplyWrite(int client_node, const std::string& key, Bytes size,
                           std::uint64_t version, ObjectClass object_class, bool dirty,
                           Checksum fingerprint, SimDuration* cost) {
  if (size <= 0 || size > options_.max_object_size) {
    ++*m_.write_rejects;
    return InvalidArgumentError("object size outside cacheable range");
  }

  // An update replaces the old entry in place; prefer keeping the existing
  // master. The old copy's memory and backup disk are released first, so
  // placement sees the cluster without it.
  int prefer = client_node;
  CachedObject* existing = objects_.Find(key);
  if (existing != nullptr) {
    prefer = existing->master;
    Release(*existing);
  }

  SimDuration cleaning_cost = 0;
  const auto placement = PlaceInLog(prefer, size, &cleaning_cost);
  if (!placement.ok()) {
    if (existing != nullptr) {
      objects_.Erase(existing);  // The old copy is gone; nothing replaces it.
    }
    ++*m_.write_rejects;
    return placement.status();
  }
  const int master = placement->first;

  // Every field is (re)set: neither an update nor a recycled record leaves a
  // trace of the object it held.
  CachedObject& obj = existing != nullptr ? *existing : *objects_.Insert(key).first;
  obj.size = size;
  obj.version = version;
  obj.object_class = object_class;
  obj.dirty = dirty;
  obj.persisted = !dirty;
  obj.access_count = 0;
  obj.created_at = loop_->now();
  obj.last_access = loop_->now();
  obj.master = master;
  obj.log_entry = placement->second;
  // Stamp the stored checksum: the caller's fingerprint (proxy edge) when one
  // was carried through, else derived here. Every replica starts healthy.
  if (fingerprint == 0) {
    fingerprint = PayloadFingerprint(key, size);
  }
  obj.checksum = StampChecksum(fingerprint, version);
  const std::vector<int>& picked = PickBackups(master, options_.replication_factor);
  obj.backups.clear();
  obj.backups.reserve(picked.size());
  for (int b : picked) {
    obj.backups.push_back({b, obj.checksum});
    nodes_[b].disk_used += size;
  }
  ++*m_.writes;
  ++nodes_[master].writes_served;

  // Master write + parallel replication to backup durable buffers, plus any
  // cleaner pass the append triggered.
  const SimDuration access =
      (client_node == master ? options_.local_access : options_.remote_access)
          .Cost(size, &rng_);
  const SimDuration replicate =
      obj.backups.empty() ? 0 : options_.remote_access.Cost(size, &rng_);
  *cost += access + replicate + cleaning_cost;
  return OkStatus();
}

void Cluster::Write(int client_node, const std::string& key, Bytes size,
                    std::uint64_t version, ObjectClass object_class, bool dirty,
                    Callback done) {
  Write(client_node, key, size, version, object_class, dirty, /*fingerprint=*/0,
        std::move(done));
}

void Cluster::Write(int client_node, const std::string& key, Bytes size,
                    std::uint64_t version, ObjectClass object_class, bool dirty,
                    Checksum fingerprint, Callback done) {
  SimDuration cost = 0;
  Status status = ApplyWrite(client_node, key, size, version, object_class, dirty,
                             fingerprint, &cost);
  write_done_.After(cost, std::move(done), std::move(status));
}

void Cluster::Read(int client_node, const std::string& key, ReadCallback done) {
  CachedObject* found = objects_.Find(key);
  ++*m_.reads;
  if (found == nullptr) {
    ++*m_.read_misses;
    read_done_.After(options_.local_access.Cost(0, &rng_), std::move(done),
                     NotFoundError("cache miss: " + key));
    return;
  }
  CachedObject& obj = *found;
  obj.access_count += 1;
  obj.last_access = loop_->now();
  const bool local = obj.master == client_node;
  if (local) {
    ++*m_.read_hits_local;
  } else {
    ++*m_.read_hits_remote;
  }
  ++nodes_[obj.master].reads_served;
  SimDuration cost =
      (local ? options_.local_access : options_.remote_access).Cost(obj.size, &rng_);

  // Integrity gate: verify the master copy before serving. A mismatch
  // self-heals from the first healthy backup replica (extra disk load at the
  // backup); with every copy corrupt the object is dropped and the read fails
  // kDataLoss so the caller falls through to the RSDS — never ack corruption.
  const Checksum expected = ExpectedChecksum(obj.key, obj.size, obj.version);
  if (obj.checksum != expected) {
    NoteCorruption(key, obj.master, "read_master");
    const bool healthy = std::ranges::any_of(obj.backups, [&](const Replica& copy) {
      return nodes_[static_cast<std::size_t>(copy.node)].alive && copy.checksum == expected;
    });
    if (!healthy) {
      ++*m_.read_data_loss;
      // Drop the object everywhere: a re-fetch from the RSDS re-admits a good
      // copy, which is the repair path when no replica survives.
      Release(obj);
      objects_.Erase(&obj);
      read_done_.After(cost, std::move(done), DataLossError("all copies corrupt: " + key));
      return;
    }
    obj.checksum = expected;
    cost += options_.disk_read.Cost(obj.size, &rng_);
    NoteRepair(key, obj.master, "replica");
  }
  read_done_.After(cost, std::move(done), ReadHit{obj.size, obj.version, obj.checksum});
}

std::optional<int> Cluster::MasterOf(const std::string& key) const {
  const CachedObject* obj = objects_.Find(key);
  if (obj == nullptr) {
    return std::nullopt;
  }
  return obj->master;
}

Result<CachedObject> Cluster::Inspect(const std::string& key) const {
  const CachedObject* obj = objects_.Find(key);
  if (obj == nullptr) {
    return NotFoundError("inspect: " + key);
  }
  return *obj;
}

std::vector<CachedObject> Cluster::ObjectsOn(int node) const {
  const std::vector<const CachedObject*> mastered =
      objects_.InKeyOrder([node](const CachedObject& obj) { return obj.master == node; });
  std::vector<CachedObject> snapshot;
  snapshot.reserve(mastered.size());
  for (const CachedObject* obj : mastered) {
    snapshot.push_back(*obj);
  }
  return snapshot;
}

Status Cluster::Remove(const std::string& key) {
  CachedObject* obj = objects_.Find(key);
  if (obj == nullptr) {
    return NotFoundError("remove: " + key);
  }
  Release(*obj);
  objects_.Erase(obj);
  ++*m_.evictions;
  return OkStatus();
}

Status Cluster::MarkPersisted(const std::string& key) {
  CachedObject* obj = objects_.Find(key);
  if (obj == nullptr) {
    return NotFoundError("mark persisted: " + key);
  }
  obj->dirty = false;
  obj->persisted = true;
  return OkStatus();
}

Status Cluster::SetCapacity(int node, Bytes capacity, SimDuration* out_duration) {
  NodeStats& stats = nodes_[CheckNode(node)];
  if (capacity < 0) {
    return InvalidArgumentError("negative capacity");
  }
  SimDuration duration = options_.control_op_cost;
  if (capacity < logs_[node].footprint()) {
    // Fragmented: a cleaner pass may compact the log under the new bound.
    const CleanResult cleaned = logs_[node].Clean(capacity);
    duration += cleaned.duration;
    if (capacity < logs_[node].footprint()) {
      return FailedPreconditionError("capacity below log footprint; evict or migrate first");
    }
  }
  stats.memory_capacity = capacity;
  if (out_duration != nullptr) {
    *out_duration = duration;
  }
  return OkStatus();
}

Result<MigrationResult> Cluster::MigrateMaster(const std::string& key) {
  CachedObject* found = objects_.Find(key);
  if (found == nullptr) {
    return NotFoundError("migrate: " + key);
  }
  CachedObject& obj = *found;
  // Elect a backup that can absorb the object into its log, most-free first.
  SegmentedLog::EntryId new_entry = 0;
  SimDuration cleaning_cost = 0;
  const int slot = ElectMaster(obj, /*healthy=*/std::nullopt, &new_entry, &cleaning_cost);
  if (slot < 0) {
    return ResourceExhaustedError("no backup can host the master copy: " + key);
  }
  Replica& replica = obj.backups[static_cast<std::size_t>(slot)];
  const int old_master = obj.master;
  const int new_master = replica.node;
  // The new master already holds an on-disk replica: it loads the object from
  // local disk. The old master demotes to backup, keeping an on-disk copy —
  // replication factor is preserved with zero inter-node transfer (§6.4).
  (void)logs_[old_master].Free(obj.log_entry);
  SyncUsed(old_master);
  SyncUsed(new_master);
  nodes_[new_master].disk_used -= obj.size;
  nodes_[old_master].disk_used += obj.size;
  // Checksums ride the role swap: the new master adopts the checksum its disk
  // replica stored, verified on load — a rotted replica is repaired from the
  // (still alive, still healthy) old master's copy before promotion. The old
  // master's copy becomes the backup copy in that slot.
  Checksum promoted = replica.checksum;
  const Checksum expected = ExpectedChecksum(obj.key, obj.size, obj.version);
  if (promoted != expected) {
    NoteCorruption(key, new_master, "migrate_load");
    if (obj.checksum == expected) {
      promoted = expected;  // Re-fetched from the old master over the network.
      cleaning_cost += options_.remote_access.Cost(obj.size, &rng_);
      NoteRepair(key, new_master, "replica");
    }
  }
  replica = {old_master, obj.checksum};
  obj.checksum = promoted;
  obj.master = new_master;
  obj.log_entry = new_entry;
  ++*m_.migrations;

  MigrationResult result;
  result.old_master = old_master;
  result.new_master = new_master;
  // Almost pure local-disk load: the promotion RPC itself is tens of
  // microseconds (§7.2.1: 0.18 ms at 8 MB .. 13.5 ms at 1 GB).
  result.duration = options_.disk_read.Cost(obj.size, &rng_) + Micros(30) + cleaning_cost;
  return result;
}

RecoveryResult Cluster::CrashNode(int node) {
  NodeStats& crashed = nodes_[CheckNode(node)];
  if (!crashed.alive) {
    return RecoveryResult{};  // Already down: nothing left to lose or recover.
  }
  crashed.alive = false;
  ++*m_.node_crashes;
  emit_.Emit({.kind = FlightEventKind::kNodeCrash, .time = loop_->now(), .worker = node});
  // The node's DRAM and disk are gone, and recovery has nothing to verify
  // against: fresh copies are cut from the master copy, and a corrupt promoted
  // copy heals only from a surviving healthy replica.
  const RecoveryResult result = Evacuate(node, "recovery_load", /*verifier=*/nullptr);
  emit_.Emit({.kind = FlightEventKind::kNodeRecovered, .time = loop_->now(), .worker = node,
              .n = static_cast<std::int64_t>(result.objects_recovered),
              .m = static_cast<std::int64_t>(result.objects_lost)});
  return result;
}

void Cluster::RestartNode(int node) {
  NodeStats& stats = nodes_[CheckNode(node)];
  if (stats.alive) {
    return;
  }
  stats.alive = true;
  ++*m_.node_restarts;
  emit_.Emit({.kind = FlightEventKind::kNodeRestart, .time = loop_->now(), .worker = node});
  // Objects written while the node was down picked backups among the survivors;
  // with fewer than rf alive peers they stayed under-replicated. The restarted
  // node's disk is empty but writable, so the coordinator re-replicates onto it.
  const std::vector<CachedObject*> under_replicated =
      objects_.InKeyOrder([&](const CachedObject& obj) {
        return obj.master != node && !HoldsCopy(obj, node) &&
               static_cast<int>(obj.backups.size()) < options_.replication_factor;
      });
  for (CachedObject* obj : under_replicated) {
    obj->backups.push_back({node, obj->checksum});  // Fresh copy from the master.
    nodes_[node].disk_used += obj->size;
  }
}

int Cluster::CorruptReplica(int node, int flips) {
  CheckNode(node);
  int corrupted = 0;
  // Key order: replays flip the same copies. Only healthy copies are damaged,
  // so repeated events escalate instead of accidentally un-flipping (XOR).
  const std::vector<CachedObject*> held =
      objects_.InKeyOrder([node](const CachedObject& obj) { return HoldsCopy(obj, node); });
  for (CachedObject* obj : held) {
    if (corrupted >= flips) {
      break;
    }
    Replica& copy = *FindCopy(*obj, node);
    if (copy.checksum == ExpectedChecksum(obj->key, obj->size, obj->version)) {
      copy.checksum = CorruptChecksum(copy.checksum);
      ++corrupted;
    }
  }
  return corrupted;
}

int Cluster::CorruptSegment(int node, int flips) {
  CheckNode(node);
  int corrupted = 0;
  const std::vector<CachedObject*> mastered =
      objects_.InKeyOrder([node](const CachedObject& obj) { return obj.master == node; });
  for (CachedObject* obj : mastered) {
    if (corrupted >= flips) {
      break;
    }
    if (obj->checksum == ExpectedChecksum(obj->key, obj->size, obj->version)) {
      obj->checksum = CorruptChecksum(obj->checksum);
      ++corrupted;
    }
  }
  return corrupted;
}

Cluster::ScrubResult Cluster::ScrubObject(const std::string& key) {
  ScrubResult result;
  CachedObject* found = objects_.Find(key);
  if (found == nullptr) {
    return result;  // Raced an eviction, drop, or crash: nothing to scrub.
  }
  CachedObject& obj = *found;
  const Checksum expected = ExpectedChecksum(key, obj.size, obj.version);
  // Repair source for the flight record: a surviving healthy copy when one
  // exists (replica-to-replica copy), else the authoritative RSDS payload.
  const bool any_healthy =
      obj.checksum == expected || std::ranges::any_of(obj.backups, [&](const Replica& copy) {
        return copy.checksum == expected;
      });
  const char* source = any_healthy ? "replica" : "rsds";
  if (obj.checksum != expected) {
    NoteCorruption(key, obj.master, "scrub_master");
    obj.checksum = expected;
    NoteRepair(key, obj.master, source);
    ++result.corrupt_copies;
    result.corrupt_nodes.push_back(obj.master);
  }
  for (Replica& copy : obj.backups) {
    if (copy.checksum != expected) {
      NoteCorruption(key, copy.node, "scrub_replica");
      copy.checksum = expected;
      NoteRepair(key, copy.node, source);
      ++result.corrupt_copies;
      result.corrupt_nodes.push_back(copy.node);
    }
  }
  return result;
}

std::vector<std::string> Cluster::KeysAfter(const std::string& after,
                                            std::size_t limit) const {
  return objects_.KeysAfter(after, limit);
}

RecoveryResult Cluster::QuarantineNode(int node) {
  NodeStats& stats = nodes_[CheckNode(node)];
  if (!stats.alive || AliveNodes() <= 1) {
    return RecoveryResult{};  // Already down, or nowhere to drain to.
  }
  // Mark the node dead first so placement/backup selection excludes it. Unlike
  // a crash its copies remain readable, so the drain verifies every copy it
  // writes against the RSDS: no data is lost to the drain itself.
  stats.alive = false;
  ++*m_.nodes_quarantined;
  emit_.Emit({.kind = FlightEventKind::kNodeQuarantined, .time = loop_->now(), .worker = node});
  return Evacuate(node, "quarantine_drain", /*verifier=*/"rsds");
}

int Cluster::ElectMaster(const CachedObject& obj, std::optional<Checksum> healthy,
                         SegmentedLog::EntryId* entry, SimDuration* cleaning_cost) {
  std::vector<std::size_t> order(obj.backups.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto is_healthy = [&](std::size_t slot) {
    return healthy.has_value() && obj.backups[slot].checksum == *healthy;
  };
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (is_healthy(a) != is_healthy(b)) {
      return is_healthy(a);
    }
    return FreeMemory(obj.backups[a].node) > FreeMemory(obj.backups[b].node);
  });
  for (std::size_t slot : order) {
    const int b = obj.backups[slot].node;
    if (!nodes_[b].alive) {
      continue;
    }
    auto appended = logs_[b].Append(obj.size, nodes_[b].memory_capacity, cleaning_cost);
    if (appended.ok()) {
      *entry = *appended;
      return static_cast<int>(slot);
    }
  }
  return -1;
}

int Cluster::AddBackup(CachedObject& obj, Checksum copy) {
  for (int candidate : PickBackups(obj.master, num_nodes())) {
    if (!HoldsCopy(obj, candidate)) {
      obj.backups.push_back({candidate, copy});
      nodes_[candidate].disk_used += obj.size;
      return candidate;
    }
  }
  return -1;
}

void Cluster::RestoreReplication(CachedObject& obj, Checksum copy) {
  while (static_cast<int>(obj.backups.size()) < options_.replication_factor) {
    if (AddBackup(obj, copy) < 0) {
      break;  // Not enough distinct alive nodes.
    }
  }
}

void Cluster::Release(const CachedObject& obj) {
  (void)logs_[obj.master].Free(obj.log_entry);
  SyncUsed(obj.master);
  for (const Replica& copy : obj.backups) {
    nodes_[copy.node].disk_used -= obj.size;
    SIM_ASSERT(nodes_[copy.node].disk_used >= 0)
        << "; backup disk accounting underflow on node " << copy.node;
  }
}

void Cluster::MoveBackupOff(CachedObject& obj, int node, const char* note,
                            const char* verifier) {
  const auto held = FindCopy(obj, node);
  if (held == obj.backups.end()) {
    return;
  }
  const Checksum expected = ExpectedChecksum(obj.key, obj.size, obj.version);
  // Only a verifier can audit the copy left behind.
  const bool rotted = verifier != nullptr && held->checksum != expected;
  obj.backups.erase(held);
  nodes_[node].disk_used -= obj.size;
  if (rotted) {
    NoteCorruption(obj.key, node, note);
  }
  const int fresh = AddBackup(obj, verifier != nullptr ? expected : obj.checksum);
  if (rotted && fresh >= 0) {
    NoteRepair(obj.key, fresh, verifier);
  }
}

RecoveryResult Cluster::Evacuate(int node, const char* note, const char* verifier) {
  // The node's DRAM ends empty either way: a crash lost it, a drain moves it
  // off. Nothing below reads a dead node's log.
  logs_[node] = SegmentedLog(options_.log);
  nodes_[node].memory_used = 0;

  RecoveryResult result;
  std::vector<SimDuration> per_node_load(nodes_.size(), 0);
  // Dropped after the walk, so their backups' disk stays booked while later
  // keys pick backups.
  std::vector<CachedObject*> to_drop;
  const std::vector<CachedObject*> touched =
      objects_.InKeyOrder([node](const CachedObject& obj) {
        return obj.master == node || HoldsCopy(obj, node);
      });
  for (CachedObject* record : touched) {
    CachedObject& obj = *record;
    if (obj.master != node) {
      MoveBackupOff(obj, node, note, verifier);
      continue;
    }
    // Promote a surviving backup (partitioned recovery: spread by free
    // memory), a healthy copy first.
    const std::string& key = obj.key;
    const Checksum expected = ExpectedChecksum(key, obj.size, obj.version);
    SegmentedLog::EntryId entry = 0;
    const int elected = ElectMaster(obj, expected, &entry, /*cleaning_cost=*/nullptr);
    if (elected < 0) {
      to_drop.push_back(&obj);
      ++result.objects_lost;
      continue;
    }
    const std::size_t slot = static_cast<std::size_t>(elected);
    const int new_master = obj.backups[slot].node;
    Checksum promoted = obj.backups[slot].checksum;
    if (promoted != expected) {
      NoteCorruption(key, new_master, note);
      // Only corrupt copies could host. Repair from the verifier, else from any
      // healthy survivor (a copy that lost the capacity race still has good
      // bits on disk).
      const char* source = verifier;
      for (std::size_t i = 0; source == nullptr && i < obj.backups.size(); ++i) {
        if (i != slot && nodes_[static_cast<std::size_t>(obj.backups[i].node)].alive &&
            obj.backups[i].checksum == expected) {
          source = "replica";
        }
      }
      if (source != nullptr) {
        promoted = expected;
        NoteRepair(key, new_master, source);
      }
    }
    SyncUsed(new_master);
    nodes_[new_master].disk_used -= obj.size;
    obj.backups.erase(obj.backups.begin() + elected);
    obj.master = new_master;
    obj.checksum = promoted;
    obj.log_entry = entry;
    per_node_load[static_cast<std::size_t>(new_master)] +=
        options_.disk_read.Cost(obj.size, &rng_);
    ++result.objects_recovered;
    // The promotion consumed one on-disk copy; fresh ones are cut from the
    // verified payload, else from the promoted copy.
    RestoreReplication(obj, verifier != nullptr ? expected : obj.checksum);
  }
  for (CachedObject* obj : to_drop) {
    Release(*obj);
    objects_.Erase(obj);
  }
  // Makespan of the parallel partitioned reload.
  result.duration = std::ranges::max(per_node_load);
  m_.objects_recovered->Add(result.objects_recovered);
  m_.objects_lost->Add(result.objects_lost);
  m_.recovery_ms->Observe(ToMillis(result.duration));
  return result;
}

int Cluster::AliveNodes() const {
  int alive = 0;
  for (const NodeStats& node : nodes_) {
    if (node.alive) {
      ++alive;
    }
  }
  return alive;
}

Bytes Cluster::TotalUsed() const {
  Bytes total = 0;
  for (const NodeStats& node : nodes_) {
    total += node.memory_used;
  }
  return total;
}

Bytes Cluster::TotalCapacity() const {
  Bytes total = 0;
  for (const NodeStats& node : nodes_) {
    if (node.alive) {
      total += node.memory_capacity;
    }
  }
  return total;
}

}  // namespace ofc::rc
