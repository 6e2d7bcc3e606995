// FaultInjector: replays a FaultPlan against the live system.
//
// The injector owns no system state — it holds raw pointers to the components
// it perturbs and schedules the plan's events on the shared event loop. Every
// fault with a positive duration schedules its own heal (worker restore, node
// restart, store recovery, ...), so a plan describes bounded outages as single
// entries. Injection is fully deterministic: the plan plus the event loop's
// scheduling order determine exactly when each fault and heal fires.
//
// Overlapping window semantics: outages / brownouts / webhook drops nest by
// depth — the condition clears only when the last overlapping window closes
// (a heal from an earlier, shorter window must not cancel a later one). Crash
// windows nest the same way, per target: a worker/node is crashed when its
// first window opens and restored only when its last overlapping window
// closes, so a target never comes back alive during a declared crash.
#ifndef OFC_FAULT_FAULT_INJECTOR_H_
#define OFC_FAULT_FAULT_INJECTOR_H_

#include <map>
#include <memory>

#include "src/core/proxy.h"
#include "src/faas/platform.h"
#include "src/fault/fault_plan.h"
#include "src/obs/emitter.h"
#include "src/obs/metrics.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/store/object_store.h"

namespace ofc::fault {

// Components a plan may target. Null pointers are allowed; scheduling a plan
// that addresses a missing component fails fast in Schedule().
struct FaultInjectorTargets {
  faas::Platform* platform = nullptr;
  rc::Cluster* cluster = nullptr;
  store::ObjectStore* rsds = nullptr;
  core::Proxy* proxy = nullptr;
};

struct FaultInjectorOptions {
  // Observability sinks (src/obs/). Null `metrics` -> private registry; null
  // `trace` -> fault events leave no spans; null `flight` -> inject/heal pairs
  // leave no black-box records.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  obs::FlightRecorder* flight = nullptr;
};

class FaultInjector {
 public:
  FaultInjector(sim::EventLoop* loop, FaultInjectorTargets targets,
                FaultInjectorOptions options = {});

  // Validates the plan against the wired targets and schedules every event.
  // Rejects (without scheduling anything) when an event addresses a component
  // that is not wired or a target index out of range.
  Status Schedule(const FaultPlan& plan);

  // Fires one event immediately (tests drive precise interleavings with this).
  void Fire(const FaultEvent& event);

  obs::MetricsRegistry& metrics() { return *metrics_; }

 private:
  void Heal(const FaultEvent& event, std::uint64_t fault_id);

  sim::EventLoop* loop_;
  FaultInjectorTargets targets_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // When none injected.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Emitter emit_;
  // Monotonic id shared by an inject record and its heal record, so the flight
  // recorder's ChainFor() groups the pair as one causal fault window.
  std::uint64_t next_fault_id_ = 1;
  // Overlap depths for store-wide conditions (see header comment).
  int outage_depth_ = 0;
  int brownout_depth_ = 0;
  int webhook_drop_depth_ = 0;
  // Per-target overlap depths for crash windows (machine crashes share both:
  // the invoker and its collocated storage server). Ordered so no path ever
  // depends on hash iteration order.
  std::map<int, int> worker_crash_depth_;
  std::map<int, int> node_crash_depth_;
  obs::Counter* injected_ = nullptr;  // Faults fired.
  obs::Counter* healed_ = nullptr;    // Heal events fired.
  obs::Gauge* active_ = nullptr;
};

}  // namespace ofc::fault

#endif  // OFC_FAULT_FAULT_INJECTOR_H_
