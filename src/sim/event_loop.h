// Deterministic discrete-event simulation core.
//
// Every component of the reproduced system (FaaS platform, RAMCloud cluster,
// object store, load injector) schedules callbacks on one EventLoop. Events at
// equal timestamps run in scheduling order (a monotonically increasing sequence
// number breaks ties), so a (seed, workload) pair fully determines a run.
//
// Hot-path design (perfbench's sim.bare_ns_per_event measures the bare loop):
//   * Callbacks live in a slab of recycled slots holding InlineCallback values
//     (small-buffer storage, src/sim/inline_function.h) — no per-event heap
//     allocation and no hash-map lookup on schedule/cancel/dispatch. An
//     EventId encodes (slot index, generation); generations make stale ids
//     (already ran, already cancelled, slot since reused) miss cheaply.
//   * The ready queue is a hand-rolled 4-ary min-heap of 24-byte entries
//     ordered by (when, seq). seq is unique, so the order is total and heap
//     arity can never change dispatch order — only cache behavior.
//   * Cancellation is O(1): the slot is disarmed and its callback destroyed
//     immediately (freeing captured state), leaving a tombstone entry in the
//     heap. Tombstones are dropped when popped, and when they ever outnumber
//     live events the heap compacts in one deterministic O(n) pass — cancel
//     storms (keep-alive timers re-armed per warm hit) cannot accumulate
//     unbounded dead entries.
//   * An optional dispatch budget bounds huge runs (`ofc-sim --max-events`):
//     once the budget is spent, Run/RunUntil/Step return without dispatching
//     and without advancing now(), leaving the loop resumable.
#ifndef OFC_SIM_EVENT_LOOP_H_
#define OFC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/sim/inline_function.h"

namespace ofc::sim {

class EventLoop {
 public:
  using Callback = InlineCallback;
  using EventId = std::uint64_t;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  // Schedules `cb` to run at now() + delay (delay >= 0). Returns an id usable
  // with Cancel(). Ids are never 0, so 0 works as a "no event" sentinel.
  EventId ScheduleAfter(SimDuration delay, Callback cb);

  // Schedules `cb` at an absolute time (>= now()).
  EventId ScheduleAt(SimTime when, Callback cb);

  // Cancels a pending event. Returns false if it already ran or was cancelled.
  bool Cancel(EventId id);

  // Runs events until the queue is empty (or the dispatch budget is spent).
  void Run();

  // Runs events with timestamps <= deadline, then sets now() to deadline. If
  // the dispatch budget runs out first, returns early without advancing now().
  void RunUntil(SimTime deadline);

  // Convenience: RunUntil(now() + duration).
  void RunFor(SimDuration duration) { RunUntil(now() + duration); }

  // Runs exactly one event if any is pending; returns whether one ran.
  bool Step();

  std::size_t pending_events() const { return heap_.size() - cancelled_; }

  // Total events ever scheduled. Together with now() this fingerprints a run:
  // two replays of the same (seed, workload) must agree on both, which the
  // --selfcheck-determinism harness relies on.
  std::uint64_t total_scheduled() const { return next_seq_; }

  // Live events actually dispatched (cancelled tombstones excluded).
  std::uint64_t total_dispatched() const { return dispatched_; }

  // Bounds the number of future dispatches: after `budget` more live events
  // run, Run/RunUntil/Step stop dispatching (0 = unlimited, the default).
  // The guard behind `ofc-sim --max-events` and the scale harness.
  void set_dispatch_budget(std::uint64_t budget) {
    dispatch_stop_at_ = budget == 0 ? 0 : dispatched_ + budget;
  }
  bool dispatch_budget_exhausted() const {
    return dispatch_stop_at_ != 0 && dispatched_ >= dispatch_stop_at_;
  }

 private:
  // 24 bytes; the heap never touches slot storage until an entry is popped.
  struct HeapEntry {
    SimTime when;
    // Scheduling order: the event's index among every event ever scheduled,
    // so it is unique and breaks ties between equal timestamps.
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t pad = 0;
  };
  static_assert(sizeof(HeapEntry) == 24);

  struct Slot {
    Callback cb;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    bool armed = false;  // Callback pending; false = tombstone or free.
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }
  static EventId MakeId(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t index);

  void HeapPush(HeapEntry entry);
  void HeapPopTop();       // Removes heap_[0], restoring heap order.
  void Heapify();          // Full rebuild after compaction.
  void SiftDown(std::size_t i);
  void MaybeCompact();

  // Pops the top entry and, if live, moves its callback into `out` (advancing
  // now()). Returns false for tombstones (slot freed, nothing dispatched).
  bool TakeTop(Callback* out);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t dispatch_stop_at_ = 0;  // 0 = no budget.
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t cancelled_ = 0;
};

}  // namespace ofc::sim

#endif  // OFC_SIM_EVENT_LOOP_H_
