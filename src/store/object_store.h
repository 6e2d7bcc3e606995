// ObjectStore: the remote shared data store (RSDS) substrate.
//
// Models a Swift/S3-style object store as used by OFC (§3, §6.2): containers of
// versioned objects with metadata tags, plus the two OFC-specific extensions the
// paper adds to Swift (15 LoC there):
//   * shadow objects — an empty-payload placeholder carrying two version
//     numbers (latest vs RSDS-resident), created synchronously on the write path
//     so external readers can detect a stale payload;
//   * webhooks — read/write interposition handlers, used to block external
//     reads until the persistor catches up and to invalidate cached copies on
//     external writes.
//
// The same class also serves as the Redis-style IMOC baseline (OWK-Redis): only
// the latency profile differs. All operations are asynchronous on the shared
// sim::EventLoop with calibrated latency models.
#ifndef OFC_STORE_OBJECT_STORE_H_
#define OFC_STORE_OBJECT_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/key_table.h"
#include "src/common/record_pool.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"
#include "src/sim/inline_function.h"
#include "src/sim/latency.h"

namespace ofc::store {

using ObjectVersion = std::uint64_t;

// Media kind a feature tag set describes; kNone marks an object without tags.
enum class MediaKind : std::uint8_t { kNone, kImage, kAudio, kVideo, kText };

// Feature tags extracted at object-creation time (§5.1.2: extraction runs as a
// background task so it is off the invocation critical path), held as numbers
// in the object's own record rather than as strings beside it. A feature the
// media does not have reads 0, and `{}` means no tags at all. The store only
// keeps them; faas::MediaToTags fills them from a media descriptor.
struct Tags {
  MediaKind kind = MediaKind::kNone;
  std::uint8_t format = 0;     // Index into the kind's format table.
  std::uint16_t channels = 0;  // Audio.
  std::int32_t width = 0;      // Image / video.
  std::int32_t height = 0;     // Image / video.
  double duration_s = 0;       // Audio / video.

  bool operator==(const Tags&) const = default;
};
static_assert(std::is_trivially_copyable_v<Tags>);

// What the data path hands back for an object: a fixed-size value, copied
// into every Get/Head/PutShadow completion and Stat result. The key is the
// caller's own, and the feature tags stay in the store (TagsOf).
struct ObjectMetadata {
  Bytes size = 0;                 // Size of the payload resident in the RSDS.
  Bytes pending_size = 0;         // Size the shadow version will have once persisted.
  ObjectVersion latest_version = 0;  // Most recent logical version (cache-visible).
  ObjectVersion rsds_version = 0;    // Version whose payload the RSDS holds.
  // Integrity: checksum stored with the RSDS-resident payload. Healthy objects
  // hold ExpectedChecksum(key, size, rsds_version); shadow writes leave it
  // untouched (the resident payload has not changed yet).
  Checksum checksum = 0;

  // A shadow object's payload has not yet been persisted by a persistor task.
  bool IsShadow() const { return rsds_version < latest_version; }
};
static_assert(std::is_trivially_copyable_v<ObjectMetadata>);

// Latency profile of a store deployment. Reads and writes are priced
// separately (object stores replicate synchronously on write: Swift/S3 writes
// are several times slower than reads); control operations (HEAD/DELETE/shadow
// puts) carry no payload.
struct StoreProfile {
  sim::LatencyModel read;
  sim::LatencyModel write;
  sim::LatencyModel control;

  // Swift deployment of §7 (same-switch cluster; ~11 ms metadata ops).
  static StoreProfile Swift() {
    return StoreProfile{sim::LatencyModel{Millis(18), 120e6, 0.05},
                        sim::LatencyModel{Millis(42), 90e6, 0.05},
                        sim::LatencyModel{Millis(11), 0.0, 0.05}};
  }
  // AWS S3 as used in the §2.2.3 motivation experiment.
  static StoreProfile S3() {
    return StoreProfile{sim::LatencyModel{Millis(28), 80e6, 0.10},
                        sim::LatencyModel{Millis(60), 60e6, 0.10},
                        sim::LatencyModel{Millis(16), 0.0, 0.10}};
  }
  // Redis IMOC as measured through a FaaS runtime's client stack (OWK-Redis
  // baseline; §2.2.3's ElastiCache): network RTT plus (de)serialization put the
  // per-operation cost in the milliseconds, an order of magnitude below the
  // RSDS but far above raw in-memory access.
  static StoreProfile Redis() {
    return StoreProfile{sim::LatencyModel{Millis(5), 250e6, 0.05},
                        sim::LatencyModel{Millis(7), 220e6, 0.05},
                        sim::LatencyModel{Millis(2), 0.0, 0.05}};
  }
};

class ObjectStore {
 public:
  using Callback = sim::InlineFunction<void(Status)>;
  using MetaCallback = sim::InlineFunction<void(Result<ObjectMetadata>)>;

  // Webhooks receive the key and a `resume` continuation; the store completes
  // the triggering external operation only after `resume` runs, which lets the
  // handler wait for a persistor (§6.2).
  using Resume = sim::InlineFunction<void()>;
  using Webhook = sim::InlineFunction<void(const std::string& key, Resume resume)>;

  // `metrics` (optional) is the shared observability registry; null -> the
  // store owns a private one.
  ObjectStore(sim::EventLoop* loop, StoreProfile profile, Rng rng, std::string name,
              obs::MetricsRegistry* metrics = nullptr);

  // Convenience: symmetric read/write latency (unit tests, simple setups);
  // control ops default to the request model's fixed cost.
  ObjectStore(sim::EventLoop* loop, sim::LatencyModel request_latency, Rng rng,
              std::string name,
              std::optional<sim::LatencyModel> control_latency = std::nullopt,
              obs::MetricsRegistry* metrics = nullptr);

  const std::string& name() const { return name_; }

  // ---- FaaS-side data path (used by functions and the persistor) ----

  // Full-payload write: creates or replaces the object; bumps both versions.
  void Put(const std::string& key, Bytes size, Tags tags, Callback done);

  // Conditional full-payload write (an If-Match/ETag-guarded PUT): behaves like
  // Put, but only when the key's latest_version still equals `expected_latest`
  // (0 = key absent) at the moment the write lands — otherwise the object is
  // left intact and the write fails with kAborted. The proxy's degraded
  // (shadow-less) persistor pushes through this so a stale fallback payload can
  // never clobber a write acknowledged after the store healed. `fingerprint`
  // is the payload fingerprint the proxy stamped at write time: one that fails
  // verification at landing is rejected with kDataLoss instead of being
  // installed, so a conflict-safe write-back stays verifiable end to end.
  void PutIfVersion(const std::string& key, ObjectVersion expected_latest, Bytes size,
                    Tags tags, Checksum fingerprint, Callback done);

  // Shadow write: synchronously records a placeholder for a new version whose
  // payload currently lives only in the cache. Constant latency (empty body).
  void PutShadow(const std::string& key, Bytes pending_size, MetaCallback done);

  // Persistor push: installs the payload for `version`. Out-of-order pushes
  // (version <= rsds_version) return kAborted so successive updates propagate
  // in order (§6.2). Unknown keys return kNotFound. As with PutIfVersion, a
  // push whose `fingerprint` fails verification is rejected with kDataLoss at
  // landing and counted, never installed.
  void FinalizePayload(const std::string& key, ObjectVersion version, Bytes size,
                       Checksum fingerprint, Callback done);

  // Payload read; latency scales with the object size.
  void Get(const std::string& key, MetaCallback done);

  // Metadata-only read; constant latency.
  void Head(const std::string& key, MetaCallback done);

  void Delete(const std::string& key, Callback done);

  // ---- External-client path (non-FaaS applications; triggers webhooks) ----

  void ExternalRead(const std::string& key, MetaCallback done);
  void ExternalWrite(const std::string& key, Bytes size, Callback done);

  void set_read_webhook(Webhook hook) { read_webhook_ = std::move(hook); }
  void set_write_webhook(Webhook hook) { write_webhook_ = std::move(hook); }

  // ---- Fault-injection hooks (src/fault/) ----------------------------------
  //
  // Availability and latency are properties of the *deployment*, not the data:
  // an unavailable store fails every asynchronous operation with kUnavailable
  // after one control round-trip (the client sees a fast error, not a hang); a
  // brownout multiplies every operation's latency by `factor` while leaving
  // results intact. Both are synchronous management-plane toggles driven by the
  // FaultInjector and apply to operations *started* while the condition holds.

  void SetAvailable(bool available) { available_ = available; }
  bool available() const { return available_; }

  // `factor` >= 1.0 inflates all operation latencies (1.0 = healthy).
  void SetLatencyFactor(double factor) { latency_factor_ = factor < 1.0 ? 1.0 : factor; }
  double latency_factor() const { return latency_factor_; }

  // Webhook drop: while disabled, external operations bypass the read/write
  // interposition handlers entirely (counted, so tests can observe the loss of
  // the consistency guarantee rather than silently missing it).
  void SetWebhooksEnabled(bool enabled) { webhooks_enabled_ = enabled; }

  // Bit rot (kStoreRot): flips the stored checksum of up to `flips` currently
  // healthy objects in key order (replayable). Returns how many were damaged.
  // Detection happens on the next Get or scrub pass; repair uses the store's
  // own internal redundancy (object stores keep 3 copies), so unlike the cache
  // a rotted RSDS object self-repairs without an external good copy.
  int Rot(int flips);

  // Scrub support: verifies `key` and repairs a rotted checksum in place.
  // Returns 1 when corruption was found (and repaired), 0 otherwise (including
  // unknown keys — the scrubber's walk races deletes by design).
  int ScrubKey(const std::string& key);

  // ---- Management / test plane (synchronous, zero simulated cost) ----

  Result<ObjectMetadata> Stat(const std::string& key) const;
  // The feature tags the object was last written or seeded with.
  Result<Tags> TagsOf(const std::string& key) const;
  bool Exists(const std::string& key) const { return objects_.Find(key) != nullptr; }
  std::size_t NumObjects() const { return objects_.size(); }
  // All object keys in sorted order (chaos-harness consistency sweeps).
  std::vector<std::string> Keys() const;
  // Keys in lexicographic order strictly after `after`, at most `limit` — the
  // scrubber's incremental cursor walk, as Cluster::KeysAfter.
  std::vector<std::string> KeysAfter(const std::string& after, std::size_t limit) const;
  Bytes TotalBytes() const;
  obs::MetricsRegistry& metrics() { return *metrics_; }
  // Seeds an object instantly (dataset preparation in FaaSLoad).
  void Seed(const std::string& key, Bytes size, Tags tags);
  // Operation records the store has made: the most operations it ever had in
  // flight at once.
  std::size_t op_records() const { return ops_.size(); }

 private:
  // Registry cells, labeled with the store's name so several stores can share
  // one registry.
  struct Metrics {
    obs::Counter* reads = nullptr;
    obs::Counter* writes = nullptr;
    obs::Counter* shadow_writes = nullptr;
    obs::Counter* payload_finalizes = nullptr;
    obs::Counter* deletes = nullptr;
    obs::Counter* unavailable_errors = nullptr;  // Ops rejected during an outage.
    obs::Counter* webhook_bypasses = nullptr;    // External ops while webhooks dropped.
    obs::Counter* checksum_failures = nullptr;   // Corrupt payloads found (get/scrub/land).
    obs::Counter* integrity_repairs = nullptr;   // Repaired from the store's own redundancy.
    obs::Counter* bytes_read = nullptr;
    obs::Counter* bytes_written = nullptr;
  };
  void InitMetrics(obs::MetricsRegistry* metrics);

  // One data-path operation from its call to its completion: the key, the
  // arguments the landing step reads, and the caller's completion. Records are
  // pooled (the key's capacity is kept) and the event loop's closure captures
  // only the store and the record's address. Each operation fills `done` or
  // `meta_done`, whichever its completion type is.
  struct Op {
    std::string key;
    void (ObjectStore::*land)(Op& op) = nullptr;  // Runs when the latency elapses.
    Bytes size = 0;
    ObjectVersion version = 0;  // PutIfVersion's expected latest; the pushed version.
    Checksum fingerprint = 0;
    Tags tags;
    Callback done;
    MetaCallback meta_done;
  };
  Op& NewOp(const std::string& key, void (ObjectStore::*land)(Op& op));
  // Runs `op`'s landing step `delay` from now.
  void After(SimDuration delay, Op& op);
  // Release `op`, then call its completion (`done`, or `meta_done` for
  // FinishMeta): a completion that starts another operation reuses the record
  // just released.
  void Finish(Op& op, Status status);
  void FinishMeta(Op& op, Result<ObjectMetadata> meta);
  // Landing steps: the operation takes effect when its latency has elapsed.
  void LandPut(Op& op);
  void LandPutIfVersion(Op& op);
  void LandShadow(Op& op);
  void LandFinalize(Op& op);
  void LandGet(Op& op);
  void LandRepairedGet(Op& op);
  void LandHead(Op& op);
  void LandDelete(Op& op);
  // Installs a full payload (Put and PutIfVersion).
  void Install(const std::string& key, Bytes size, Tags tags);

  SimDuration ControlCost();
  SimDuration ReadCost(Bytes size);
  SimDuration WriteCost(Bytes size);
  // Applies the brownout multiplier to a computed cost.
  SimDuration Inflate(SimDuration cost) const;
  // Outage guard: when the store is down, moves `done` into a
  // `done(kUnavailable)` deferred by one control round-trip and returns true
  // (the operation must bail out). While the store is up it leaves `done`
  // untouched, so the common path copies nothing.
  bool FailIfUnavailable(const char* op, const std::string& key, Callback& done);
  bool FailIfUnavailable(const char* op, const std::string& key, MetaCallback& done);

  sim::EventLoop* loop_;
  StoreProfile profile_;
  Rng rng_;
  std::string name_;
  // One stored object: its key, its metadata, handed out by value, and its
  // tags, read only through the management plane. The metadata and tags are
  // fixed-size values, so an object costs one pooled record plus its key's
  // buffer whatever its tags hold.
  struct Entry {
    std::string key;
    ObjectMetadata meta;
    Tags tags;
  };
  // Found by hash. Keys(), TotalBytes() and Rot()'s replayable flips sort what
  // they visit by key, and the scrubber's KeysAfter() slices read the table's
  // key-ordered index.
  KeyTable<Entry> objects_;
  Webhook read_webhook_;
  Webhook write_webhook_;
  RecordPool<Op> ops_;
  bool available_ = true;
  double latency_factor_ = 1.0;  // Brownout multiplier; 1.0 = healthy.
  bool webhooks_enabled_ = true;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // When none injected.
  obs::MetricsRegistry* metrics_ = nullptr;
  Metrics m_;
  ObjectVersion next_version_ = 1;
};

}  // namespace ofc::store

#endif  // OFC_STORE_OBJECT_STORE_H_
