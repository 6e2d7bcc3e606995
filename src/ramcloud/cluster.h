// A RAMCloud-style distributed in-memory key-value store (Ousterhout et al.,
// TOCS 2015), extended the way OFC extends RAMCloud (§6.1, §6.3, §6.4):
//
//   * every worker node runs a storage server holding a *master* role (primary,
//     in-memory copies of some objects) and a *backup* role (on-disk replicas of
//     other nodes' objects);
//   * per-object read-access counters (n_access) and last-access timestamps
//     (T_access) feed OFC's periodic eviction policy;
//   * per-node memory capacity is dynamically adjustable (vertical scaling);
//   * an optimized master-migration protocol promotes a backup replica to
//     master — the object is loaded from the new master's local disk, so *no
//     inter-node transfer happens* (§6.4);
//   * object classes (input / pipeline-intermediate / final-output) and dirty
//     bits support OFC's admission, write-back, and reclamation policies;
//   * fail-stop crashes with fast partitioned recovery from backups.
//
// The cluster is a facade over per-node state driven by the shared event loop;
// data-path operations are asynchronous with calibrated latency models, while
// management-plane operations mutate state synchronously and *report* their
// simulated control-path duration for the caller to account (Figure 8).
#ifndef OFC_RAMCLOUD_CLUSTER_H_
#define OFC_RAMCLOUD_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/key_table.h"
#include "src/common/rng.h"
#include "src/common/sim_assert.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/emitter.h"
#include "src/obs/metrics.h"
#include "src/ramcloud/segmented_log.h"
#include "src/sim/deferred_calls.h"
#include "src/sim/event_loop.h"
#include "src/sim/inline_function.h"
#include "src/sim/latency.h"

namespace ofc::rc {

enum class ObjectClass {
  kInput,         // Read by functions from the RSDS.
  kIntermediate,  // Produced mid-pipeline; dropped when the pipeline completes.
  kFinalOutput,   // Produced by the last stage; dropped once persisted.
};

// One on-disk backup copy of an object: the node holding it and the checksum
// stored with it.
struct Replica {
  int node = -1;
  Checksum checksum = 0;
};

struct CachedObject {
  std::string key;
  Bytes size = 0;
  std::uint64_t version = 0;  // Mirrors the RSDS latest_version of this payload.
  ObjectClass object_class = ObjectClass::kInput;
  bool dirty = false;      // Payload newer than what the RSDS holds.
  bool persisted = true;   // !dirty, tracked separately for final outputs.
  std::uint32_t access_count = 0;  // OFC extension: n_access.
  SimTime last_access = 0;         // OFC extension: T_access.
  SimTime created_at = 0;
  int master = -1;
  std::vector<Replica> backups;
  // Entry in the master's log-structured memory.
  SegmentedLog::EntryId log_entry = 0;
  // Integrity: the checksum stored with the master copy; each backup copy
  // stores its own in its Replica. A healthy copy stores
  // ExpectedChecksum(key, size, version); anything else is corruption. The
  // checksums live in coordinator metadata, so they survive log-cleaner
  // relocation and migration with the object.
  Checksum checksum = 0;
};

// What a cache read hands back: the served copy's size, version and checksum
// (the checksum lets the reader audit the integrity gate end to end).
struct ReadHit {
  Bytes size = 0;
  std::uint64_t version = 0;
  Checksum checksum = 0;
};

struct ClusterOptions {
  int replication_factor = 2;       // Number of on-disk backup copies.
  Bytes max_object_size = MiB(10);  // OFC raises RAMCloud's 1 MB cap to 10 MB.
  Bytes default_capacity = MiB(512);
  // Master memory is log-structured (segments + cleaner), as in RAMCloud.
  SegmentedLogOptions log;
  // Control-plane cost of a memory-pool reconfiguration (Figure 8: ~289 us for
  // a shrink without migration/eviction).
  SimDuration control_op_cost = Micros(250);
  sim::LatencyModel local_access = sim::LatencyProfiles::RamcloudLocal();
  sim::LatencyModel remote_access = sim::LatencyProfiles::RamcloudRemote();
  sim::LatencyModel disk_read = sim::LatencyProfiles::BackupDiskRead();
  sim::LatencyModel disk_write = sim::LatencyProfiles::BackupDiskWrite();
  // Observability sinks (src/obs/). Null `metrics` -> the cluster owns a
  // private registry; null `flight` -> node crash/restart/recovery lifecycle
  // events are skipped.
  obs::MetricsRegistry* metrics = nullptr;
  obs::FlightRecorder* flight = nullptr;
};

struct NodeStats {
  Bytes memory_capacity = 0;
  Bytes memory_used = 0;
  Bytes disk_used = 0;
  bool alive = true;
  std::uint64_t reads_served = 0;
  std::uint64_t writes_served = 0;
};

struct MigrationResult {
  int old_master = -1;
  int new_master = -1;
  SimDuration duration = 0;  // Disk load at the new master; no network transfer.
};

struct RecoveryResult {
  std::size_t objects_recovered = 0;
  std::size_t objects_lost = 0;  // No surviving backup (under-replicated).
  SimDuration duration = 0;      // Parallel partitioned recovery makespan.
};

class Cluster {
 public:
  using Callback = sim::InlineFunction<void(Status)>;
  using ReadCallback = sim::InlineFunction<void(Result<ReadHit>)>;

  Cluster(sim::EventLoop* loop, int num_nodes, ClusterOptions options, Rng rng);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const ClusterOptions& options() const { return options_; }

  // ---- Data path -------------------------------------------------------------

  // Writes (creates or updates) an object. The master is preferably
  // `client_node`; if it lacks memory, the coordinator picks the node with the
  // most free memory. Completion fires after the master copy is in RAM and the
  // replication RPCs to the backups' durable buffers have been acknowledged
  // (disk flush continues in the background, as in RAMCloud).
  void Write(int client_node, const std::string& key, Bytes size, std::uint64_t version,
             ObjectClass object_class, bool dirty, Callback done);
  // Write with a caller-supplied payload fingerprint (the proxy stamps
  // PayloadFingerprint(key, size) at the edge); the stored checksum becomes
  // StampChecksum(fingerprint, version). The fingerprint-less overload derives
  // it internally, so legacy callers stay verifiable.
  void Write(int client_node, const std::string& key, Bytes size, std::uint64_t version,
             ObjectClass object_class, bool dirty, Checksum fingerprint, Callback done);

  // Reads an object from its master; latency depends on whether `client_node`
  // is the master (local) or not (remote). Bumps n_access / T_access.
  //
  // Integrity: the master copy's checksum is verified first. A mismatch
  // self-heals from the first healthy backup replica (extra local-disk load at
  // the backup, counted into the completion latency); if no healthy copy
  // survives the object is dropped and the read completes with kDataLoss — a
  // corrupt payload is never returned.
  void Read(int client_node, const std::string& key, ReadCallback done);

  // ---- Coordinator queries (synchronous, control plane) ----------------------

  bool Contains(const std::string& key) const { return objects_.Find(key) != nullptr; }
  std::optional<int> MasterOf(const std::string& key) const;  // nullopt: not cached.
  Result<CachedObject> Inspect(const std::string& key) const;
  std::size_t NumObjects() const { return objects_.size(); }

  // Bulk metadata export: a snapshot of every object mastered on `node`, with
  // its access statistics (n_access, T_access, created_at), in key order. The
  // cache policy engine ranks reclamation candidates from this.
  std::vector<CachedObject> ObjectsOn(int node) const;

  // ---- Object management ------------------------------------------------------

  // Drops an object everywhere (memory + disk bookkeeping).
  Status Remove(const std::string& key);
  // Marks the payload as persisted in the RSDS (persistor completion).
  Status MarkPersisted(const std::string& key);

  // ---- Vertical scaling --------------------------------------------------------

  Bytes Capacity(int node) const { return nodes_[CheckNode(node)].memory_capacity; }
  // Live bytes mastered on the node (what eviction policies reason about).
  Bytes Used(int node) const { return nodes_[CheckNode(node)].memory_used; }
  // Physically allocatable memory: capacity minus the log's segment footprint
  // (which exceeds the live bytes under fragmentation until the cleaner runs).
  Bytes FreeMemory(int node) const;
  const NodeStats& node_stats(int node) const { return nodes_[CheckNode(node)]; }
  const SegmentedLog& node_log(int node) const { return logs_[CheckNode(node)]; }

  // Adjusts the node's memory pool. Fails with kFailedPrecondition when
  // shrinking below current usage — the CacheAgent must first migrate or evict.
  // On success, reports the control-plane duration via `out_duration`.
  Status SetCapacity(int node, Bytes capacity, SimDuration* out_duration = nullptr);

  // ---- Optimized migration (§6.4) ----------------------------------------------

  // Moves the master role for `key` to one of its backup nodes (which already
  // holds an on-disk copy): the new master loads the object from local disk and
  // the old master demotes itself to backup. State changes are immediate; the
  // returned duration is the simulated cost for the caller to account.
  Result<MigrationResult> MigrateMaster(const std::string& key);

  // ---- Fault tolerance -----------------------------------------------------------

  // Fail-stop crash: all objects mastered on `node` are recovered by promoting
  // backups, partitioned across the surviving nodes (parallel makespan).
  // Objects with no surviving replica are dropped and counted as lost. Backup
  // copies on the crashed node are re-replicated to other nodes. Crashing a
  // node that is already down is a no-op (empty RecoveryResult).
  RecoveryResult CrashNode(int node);
  // Brings a crashed node back empty (DRAM is gone); under-replicated objects
  // adopt it as a fresh backup so the replication factor recovers. No-op when
  // the node is already alive.
  void RestartNode(int node);
  bool Alive(int node) const { return nodes_[CheckNode(node)].alive; }
  int AliveNodes() const;

  // ---- Data integrity ------------------------------------------------------------

  // Fault injection: flips the stored checksum of up to `flips` currently
  // healthy backup copies held on `node` (kCorruptReplica) or master log
  // entries on `node` (kCorruptSegment), in key order so runs are replayable.
  // Returns how many copies were actually damaged.
  int CorruptReplica(int node, int flips);
  int CorruptSegment(int node, int flips);

  // Scrub support: verifies every copy of `key` against the expected checksum
  // and repairs divergent copies (from a healthy replica when one exists,
  // otherwise from the authoritative RSDS payload, which is always derivable
  // here). Unknown keys return an empty result — the scrubber's incremental
  // walk races evictions and crashes by design.
  struct ScrubResult {
    int corrupt_copies = 0;
    std::vector<int> corrupt_nodes;  // Where each corrupt copy lived.
  };
  ScrubResult ScrubObject(const std::string& key);

  // Keys in lexicographic order strictly after `after`, at most `limit` — the
  // scrubber's incremental cursor walk (deterministic across replays).
  std::vector<std::string> KeysAfter(const std::string& after, std::size_t limit) const;

  // Graceful drain of a node whose corruption rate crossed the scrubber's
  // threshold: like CrashNode, but the node's copies are still reachable, so
  // every object mastered there is re-mastered with an RSDS-verified checksum
  // and every backup copy is re-replicated verified — no data is lost to the
  // drain itself (only capacity exhaustion can drop objects). The node ends
  // !Alive until RestartNode. No-op on a dead node or the last alive node.
  RecoveryResult QuarantineNode(int node);

  obs::MetricsRegistry& metrics() { return *metrics_; }

  // Completion records the cluster has made: the most data-path completions
  // it ever had pending at once.
  std::size_t completion_records() const {
    return write_done_.records() + read_done_.records();
  }

  // Total memory in use across alive nodes (Figure 10 series).
  Bytes TotalUsed() const;
  Bytes TotalCapacity() const;

 private:
  int CheckNode(int node) const;
  // Appends `size` bytes into some node's log, preferring `prefer` then the
  // node with the most free memory. Returns (node, entry) or an error; adds
  // cleaning time into `*cleaning_cost`.
  Result<std::pair<int, SegmentedLog::EntryId>> PlaceInLog(int prefer, Bytes size,
                                                           SimDuration* cleaning_cost);
  // Picks `count` backup nodes distinct from `master`, least-loaded-disk first.
  // The result lives in a buffer the next call overwrites.
  const std::vector<int>& PickBackups(int master, int count);
  void SyncUsed(int node) {
    nodes_[node].memory_used = logs_[node].live_bytes();
    // Capacity accounting: the log's Append/Clean enforce footprint <= capacity,
    // and live bytes never exceed the footprint.
    SIM_ASSERT(nodes_[node].memory_used <= logs_[node].footprint())
        << "; node " << node << " used=" << nodes_[node].memory_used
        << " footprint=" << logs_[node].footprint();
  }
  // Synchronous core of Write: frees any previous entry, places the payload in
  // a log, installs the object, and accumulates the simulated data-path cost.
  // `fingerprint` == 0 derives the payload fingerprint internally.
  Status ApplyWrite(int client_node, const std::string& key, Bytes size,
                    std::uint64_t version, ObjectClass object_class, bool dirty,
                    Checksum fingerprint, SimDuration* cost);
  // Releases every copy of `obj`: its master's log entry and its backups' disk.
  void Release(const CachedObject& obj);
  // Elects the backup that takes over `obj`'s master copy: the first alive one
  // whose log accepts the object, most free memory first, with copies storing
  // `healthy` (when given) ahead of the rest. Returns its slot in obj.backups,
  // or -1 when none can host it; `*entry` receives the new log entry and any
  // cleaning time adds into `*cleaning_cost` (may be null).
  int ElectMaster(const CachedObject& obj, std::optional<Checksum> healthy,
                  SegmentedLog::EntryId* entry, SimDuration* cleaning_cost);
  // Cuts one backup copy storing `copy` onto the least-loaded alive node that
  // holds no copy of `obj` yet. Returns that node, or -1 when there is none.
  int AddBackup(CachedObject& obj, Checksum copy);
  // Adds backup copies storing `copy` until the replication factor is met or
  // the distinct alive nodes run out.
  void RestoreReplication(CachedObject& obj, Checksum copy);
  // Re-cuts the backup copy `obj` holds on the lost `node` (if any) onto
  // another alive node, from the verified payload when there is a `verifier`,
  // else from the master copy; `note` and `verifier` are as for Evacuate.
  void MoveBackupOff(CachedObject& obj, int node, const char* note, const char* verifier);
  // Moves every copy off `node`, already marked dead, and books the recovery:
  // each object it mastered is promoted onto an elected backup and
  // re-replicated (dropped, and counted lost, when no backup can host it), and
  // each backup copy it held is re-cut elsewhere. Corrupt copies met on the
  // way are noted with `note`. `verifier` names the authority every written
  // copy is verified against ("rsds"): the new master and fresh copies start
  // healthy and corrupt copies left on the node are repaired. Without one,
  // fresh copies are cut from the master copy and a corrupt promoted copy
  // heals only from a surviving healthy replica.
  RecoveryResult Evacuate(int node, const char* note, const char* verifier);
  // Flight + metric bookkeeping for a detected corrupt copy and (optionally)
  // its repair. `source` names where the good bits came from.
  void NoteCorruption(const std::string& key, int node, const char* where);
  void NoteRepair(const std::string& key, int node, const char* source);

  // Registry cells, bumped through cached pointers.
  struct Metrics {
    obs::Counter* reads = nullptr;
    obs::Counter* read_hits_local = nullptr;
    obs::Counter* read_hits_remote = nullptr;
    obs::Counter* read_misses = nullptr;
    obs::Counter* writes = nullptr;
    obs::Counter* write_rejects = nullptr;
    obs::Counter* migrations = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* node_crashes = nullptr;
    obs::Counter* node_restarts = nullptr;
    obs::Counter* objects_recovered = nullptr;  // Backup promotions after crashes.
    obs::Counter* objects_lost = nullptr;       // No surviving replica at crash time.
    obs::Counter* checksum_failures = nullptr;  // Corrupt copies found (read/scrub/recovery).
    obs::Counter* integrity_repairs = nullptr;  // Copies restored from replica or RSDS.
    obs::Counter* read_data_loss = nullptr;     // Reads failed: every copy corrupt.
    obs::Counter* nodes_quarantined = nullptr;  // Graceful drains triggered by scrub.
    obs::Series* recovery_ms = nullptr;         // Per-crash recovery makespan.
  };

  sim::EventLoop* loop_;
  ClusterOptions options_;
  Rng rng_;
  std::vector<NodeStats> nodes_;
  std::vector<SegmentedLog> logs_;
  // Found by hash. The walks whose visit order is event-visible (Evacuate()'s
  // log packing, ObjectsOn()'s eviction order, the fault flips) sort what they
  // visit by key, and the scrubber's KeysAfter() reads the table's key-ordered
  // index, so no order depends on hashing.
  KeyTable<CachedObject> objects_;
  // Candidate buffers of PlaceInLog and PickBackups, reused across calls.
  std::vector<int> place_candidates_;
  std::vector<int> backup_candidates_;
  // Data-path completions wait out their latency here, in pooled records.
  sim::DeferredCalls<Status> write_done_;
  sim::DeferredCalls<Result<ReadHit>> read_done_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // When none injected.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Emitter emit_;
  Metrics m_;
};

}  // namespace ofc::rc

#endif  // OFC_RAMCLOUD_CLUSTER_H_
