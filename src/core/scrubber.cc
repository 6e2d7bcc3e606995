#include "src/core/scrubber.h"

#include <algorithm>
#include <vector>

namespace ofc::core {

Scrubber::Scrubber(sim::EventLoop* loop, rc::Cluster* cluster, store::ObjectStore* rsds,
                   ScrubberOptions options)
    : loop_(loop), cluster_(cluster), rsds_(rsds), options_(options) {
  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  cycles_ = metrics_->GetCounter("ofc.scrub.cycles");
  objects_scanned_ = metrics_->GetCounter("ofc.scrub.objects_scanned");
  corruptions_found_ = metrics_->GetCounter("ofc.scrub.corruptions_found");
  repairs_ = metrics_->GetCounter("ofc.scrub.repairs");
  quarantines_ = metrics_->GetCounter("ofc.scrub.quarantines");
  task_ = std::make_unique<sim::PeriodicTask>(loop_, options_.interval,
                                              [this](SimTime) { Tick(); });
}

void Scrubber::Start() { task_->Start(); }

void Scrubber::Stop() { task_->Stop(); }

void Scrubber::Tick() {
  ScrubClusterSlice();
  if (options_.scrub_store && rsds_ != nullptr) {
    ScrubStoreSlice();
  }
}

void Scrubber::ScrubClusterSlice() {
  const std::size_t budget = options_.objects_per_cycle <= 0
                                 ? 0
                                 : static_cast<std::size_t>(options_.objects_per_cycle);
  const std::vector<std::string> keys = cluster_->KeysAfter(cluster_cursor_, budget);
  for (const std::string& key : keys) {
    ++*objects_scanned_;
    NoteCorruptCopies(cluster_->ScrubObject(key));
    cluster_cursor_ = key;
  }
  if (keys.size() < budget || budget == 0) {
    // Reached the end of the keyspace: one full pass done, wrap around.
    ++*cycles_;
    cluster_cursor_.clear();
  }
}

void Scrubber::ScrubStoreSlice() {
  const std::size_t budget = options_.objects_per_cycle <= 0
                                 ? 0
                                 : static_cast<std::size_t>(options_.objects_per_cycle);
  // One key past the budget tells whether any key is left after the slice:
  // the pass wraps on the tick that scans the last key, not one tick later.
  const std::vector<std::string> keys = rsds_->KeysAfter(store_cursor_, budget + 1);
  const std::size_t slice = std::min(keys.size(), budget);
  for (std::size_t i = 0; i < slice; ++i) {
    ++*objects_scanned_;
    const int repaired = rsds_->ScrubKey(keys[i]);
    corruptions_found_->Add(static_cast<std::uint64_t>(repaired));
    repairs_->Add(static_cast<std::uint64_t>(repaired));
    store_cursor_ = keys[i];
  }
  if (keys.size() <= budget) {
    store_cursor_.clear();
  }
}

void Scrubber::NoteCorruptCopies(const rc::Cluster::ScrubResult& result) {
  corruptions_found_->Add(static_cast<std::uint64_t>(result.corrupt_copies));
  repairs_->Add(static_cast<std::uint64_t>(result.corrupt_copies));
  if (options_.quarantine_threshold <= 0) {
    return;
  }
  for (const int node : result.corrupt_nodes) {
    ++node_corruption_[node];
  }
  for (const int node : result.corrupt_nodes) {
    if (node_corruption_[node] < options_.quarantine_threshold) {
      continue;
    }
    if (cluster_->AliveNodes() <= 1) {
      // Never drain the last node: a corrupt-prone cache still beats no cache,
      // and every copy it holds keeps getting repaired each pass.
      continue;
    }
    (void)cluster_->QuarantineNode(node);
    ++*quarantines_;
    node_corruption_[node] = 0;  // Fresh ledger if the node ever rejoins.
  }
}

}  // namespace ofc::core
