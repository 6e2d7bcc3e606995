// FlightRecorder: a black-box ring of per-invocation causal lifecycle records.
//
// Every instrumented layer appends compact records (submit → queue → cold/warm
// start → E/T/L phases → cache ops → persistor/write-back, plus control-plane
// events: breaker trips, injected faults, node crashes) to a bounded ring.
// Parent ids link pipeline tasks to their pipeline and persistor jobs back to
// the invocation that issued the write, so the causal chain for any invocation
// can be reassembled after the fact.
//
// Unlike the TraceRecorder (off by default, sampled, unbounded categories),
// the flight recorder is designed to be cheap enough to leave ON for long
// runs: fixed-capacity ring (old records evicted), plain struct appends, no
// JSON formatting until dump time. Its payoff is post-mortem triage — on a
// SIM_ASSERT failure or a chaos-invariant breach the ring is dumped as JSON,
// preserving the last N events that led up to the failure.
//
// Components do not call Record() themselves: they emit through an
// obs::Emitter (emitter.h), which records every event whose kind has a
// flight wire name and, when the ring is off, costs the caller one branch.
#ifndef OFC_OBS_FLIGHT_RECORDER_H_
#define OFC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace ofc::obs {

enum class FlightEventKind : std::uint8_t {
  // faas/platform lifecycle.
  kSubmit,
  kQueue,
  kShed,
  kColdStart,
  kWarmStart,
  kExtract,
  kTransform,
  kLoad,
  kOomRescue,
  kOomKill,
  kRetry,
  kComplete,
  kFail,
  kWorkerCrash,
  kWorkerRestore,
  kPipelineStart,
  kPipelineEnd,
  // core/proxy + cache.
  kCacheHit,
  kCacheMiss,
  kCacheAdmit,
  kCacheWrite,
  kWriteFallback,
  kPersistorDispatch,
  kPersistorDone,
  kPersistorRetry,
  kPersistorConflict,
  kWriteback,
  kBreakerOpen,
  kBreakerClose,
  // core/cache_agent.
  kScaleUp,
  kScaleDown,
  kMigration,
  kEvict,  // Object left the cache; detail = eviction reason (policy engine).
  // fault/ + ramcloud/.
  kFaultInject,
  kFaultHeal,
  kNodeCrash,
  kNodeRestart,
  kNodeRecovered,
  // Data integrity (checksum verify / scrub / quarantine).
  kCorruptionDetected,
  kCorruptionRepaired,
  kNodeQuarantined,
  // Trace only: the emitter never records these in the ring.
  kQueueWait,
  kRsdsReadRetry,
  kExternalReadBoost,
  kBreakerHalfOpen,
};

// Stable wire name for dumps ("submit", "cache_hit", ...), from the event
// table in emitter.cc.
const char* FlightEventKindName(FlightEventKind kind);

struct FlightEvent {
  std::uint64_t seq = 0;  // Monotonic append index (survives ring eviction).
  SimTime time = 0;
  FlightEventKind kind = FlightEventKind::kSubmit;
  // Invocation this record belongs to; 0 for control-plane events that are not
  // tied to a specific invocation (breaker trips, node crashes, ...).
  std::uint64_t invocation_id = 0;
  // Causal parent: pipeline id for pipeline tasks, invocation id for persistor
  // jobs and write-backs, fault id for fault windows. 0 = no parent.
  std::uint64_t parent_id = 0;
  std::int32_t worker = -1;   // Worker/node index; -1 when not applicable.
  std::string subject;        // Function name / object key / fault kind.
  std::string detail;         // Free-form context (status, reason, sizes).
};

struct FlightRecorderOptions {
  bool enabled = false;
  std::size_t capacity = 4096;  // Ring size; oldest records evicted beyond it.
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {}) : options_(options) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return options_.enabled; }
  void set_enabled(bool on) { options_.enabled = on; }
  void set_capacity(std::size_t n);
  const FlightRecorderOptions& options() const { return options_; }

  // Appends a record (a no-op while disabled); evicts the oldest when the
  // ring is full.
  void Record(SimTime time, FlightEventKind kind, std::uint64_t invocation_id,
              std::uint64_t parent_id = 0, std::int32_t worker = -1, std::string subject = "",
              std::string detail = "");

  std::size_t size() const { return ring_.size(); }
  std::uint64_t total_recorded() const { return next_seq_; }
  std::uint64_t evicted() const { return next_seq_ - ring_.size(); }
  // The i-th retained record in append order (0 = oldest). Storage is a
  // circular vector, so there is no contiguous view to hand out.
  const FlightEvent& at(std::size_t i) const { return ring_[(start_ + i) % ring_.size()]; }

  // All retained records for one invocation id (matched on invocation_id or
  // parent_id), in append order — the causal chain for post-mortem triage.
  std::vector<const FlightEvent*> ChainFor(std::uint64_t invocation_id) const;

  // Dump: {"total_recorded": N, "evicted": M, "events": [...]} with records in
  // append order. `reason` annotates why the dump was taken (assert message,
  // violated invariant).
  std::string ToJson(const std::string& reason = "") const;
  // Writes ToJson() to `path`; returns false on I/O failure.
  bool WriteJson(const std::string& path, const std::string& reason = "") const;

 private:
  friend class Emitter;  // Reads options_.enabled and fills slots at emit time.

  // The slot the next record goes into, with everything but its subject and
  // detail set: a fresh one while the ring grows, else the oldest record,
  // whose strings the caller overwrites in place so that a wrapped ring
  // reuses their capacity instead of allocating.
  FlightEvent& NextSlot(SimTime time, FlightEventKind kind, std::uint64_t invocation_id,
                        std::uint64_t parent_id, std::int32_t worker);

  // Circular buffer: grows by push_back until `capacity` records are retained,
  // then overwrites in place starting at start_ (the oldest record). The old
  // deque paid a node allocation per eviction cycle and never returned memory;
  // the vector's footprint is fixed at capacity × sizeof(FlightEvent) (the
  // grow phase trims any geometric overshoot once, on reaching capacity).
  FlightRecorderOptions options_;
  std::vector<FlightEvent> ring_;
  std::size_t start_ = 0;  // Index of the oldest retained record.
  std::uint64_t next_seq_ = 0;
};

}  // namespace ofc::obs

#endif  // OFC_OBS_FLIGHT_RECORDER_H_
