// Scrubber: background integrity sweep over the cache cluster and the RSDS.
//
// Corruption that no read ever touches would otherwise sit latent until the
// object is evicted or recovered through it. The scrubber closes that window:
// a PeriodicTask walks the cluster's objects (and optionally the store's) in
// incremental lexicographic slices, verifies every copy against its expected
// checksum, and repairs divergence on the spot — from a healthy replica when
// one exists, otherwise from the authoritative RSDS.
//
// Placement policy rides on top: the scrubber keeps a per-node count of
// corrupt copies it has found. A node whose count crosses
// `quarantine_threshold` is assumed to have sick memory/disk and is gracefully
// drained (Cluster::QuarantineNode): every copy it held is re-established
// verified elsewhere, and the node leaves the placement pool. Quarantine never
// fires on the last alive node — a degraded cache beats no cache.
//
// All work happens on the shared event loop in deterministic key order, so a
// scrubbed chaos run replays byte-identically.
#ifndef OFC_CORE_SCRUBBER_H_
#define OFC_CORE_SCRUBBER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/sim/periodic.h"
#include "src/store/object_store.h"

namespace ofc::core {

struct ScrubberOptions {
  SimDuration interval = Seconds(10);  // Time between incremental slices.
  // Objects verified per slice (per target): bounds the work a single tick
  // injects into the loop, so scrubbing never stalls foreground traffic.
  int objects_per_cycle = 64;
  // Corrupt copies found on one node before it is quarantined. 0 disables
  // quarantining (scrub repairs but never drains).
  int quarantine_threshold = 8;
  bool scrub_store = true;  // Also sweep the RSDS's objects.
  // Observability sink; null -> private registry.
  obs::MetricsRegistry* metrics = nullptr;
};

class Scrubber {
 public:
  // `rsds` may be null (cluster-only scrubbing regardless of scrub_store).
  Scrubber(sim::EventLoop* loop, rc::Cluster* cluster, store::ObjectStore* rsds,
           ScrubberOptions options = {});

  void Start();
  void Stop();

  obs::MetricsRegistry& metrics() { return *metrics_; }

 private:
  void Tick();
  void ScrubClusterSlice();
  void ScrubStoreSlice();
  // Applies one ScrubObject result to the per-node ledger; quarantines any
  // node that crossed the threshold.
  void NoteCorruptCopies(const rc::Cluster::ScrubResult& result);

  sim::EventLoop* loop_;
  rc::Cluster* cluster_;
  store::ObjectStore* rsds_;
  ScrubberOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // When none injected.
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<sim::PeriodicTask> task_;
  // Incremental cursors: last key verified; "" = pass starts from the top.
  std::string cluster_cursor_;
  std::string store_cursor_;
  // Corrupt copies found per node since its last quarantine. Ordered so the
  // threshold check never depends on hash iteration order.
  std::map<int, int> node_corruption_;
  obs::Counter* cycles_ = nullptr;             // Full passes completed over the cluster.
  obs::Counter* objects_scanned_ = nullptr;    // Objects verified (cluster + store).
  obs::Counter* corruptions_found_ = nullptr;  // Corrupt copies detected.
  obs::Counter* repairs_ = nullptr;            // Corrupt copies repaired.
  obs::Counter* quarantines_ = nullptr;        // Nodes drained for crossing the threshold.
};

}  // namespace ofc::core

#endif  // OFC_CORE_SCRUBBER_H_
