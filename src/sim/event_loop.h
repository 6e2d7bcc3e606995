// Deterministic discrete-event simulation core.
//
// Every component of the reproduced system (FaaS platform, RAMCloud cluster,
// object store, load injector) schedules callbacks on one EventLoop. Events at
// equal timestamps run in scheduling order, so a (seed, workload) pair fully
// determines a run.
//
// Hot-path design (perfbench's sim.bare_ns_per_event measures the bare loop):
//   * Callbacks live in a slab of recycled slots holding InlineCallback values
//     (small-buffer storage, src/sim/inline_function.h) — no per-event heap
//     allocation and no hash-map lookup on schedule/cancel/dispatch. An
//     EventId encodes (slot index, generation); generations make stale ids
//     (already ran, already cancelled, slot since reused) miss cheaply.
//   * The ready queue is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
//     1990). The loop never schedules before now(), so queued times only grow,
//     and no two entries are ever compared. The queue keeps a reference time
//     `ref`, the last time it extracted. An event at `ref` goes to bucket 0;
//     any other goes to bucket b, where bit b-1 is the highest bit in which
//     its time differs from `ref`. Every entry of bucket b lies below every
//     entry of a higher bucket. A pop takes bucket 0's head; when bucket 0 is
//     empty, the lowest non-empty bucket (a 64-bit mask and ctz) moves `ref`
//     to its minimum and re-appends its entries to lower buckets, each entry
//     moving at most 63 times. Each bucket is a FIFO list threaded through a
//     16-byte {when, next} link per slot. Pushes append, and a bucket is only
//     re-appended into empty ones, so list order is scheduling order: equal
//     times dispatch in (when, seq) order without storing seq.
//   * Two invariants keep every queued time at or above `ref`:
//       - `ref` never exceeds a time that can still be scheduled. Popping a
//         cancelled entry can leave `ref` above now() once the queue is empty,
//         so a push into an empty queue restarts `ref` at now().
//       - RunUntil peeks at the lowest bucket's minimum and does not
//         redistribute it: it then sets now() to a deadline that may lie
//         below that minimum.
//   * Cancellation is O(1): the slot is disarmed and its callback destroyed
//     immediately (freeing captured state), leaving a tombstone entry in its
//     bucket. Tombstones are dropped when popped, and when they ever outnumber
//     live events the buckets compact in one deterministic O(n) pass — cancel
//     storms (keep-alive timers re-armed per warm hit) cannot accumulate
//     unbounded dead entries.
//   * An optional dispatch budget bounds huge runs (`ofc-sim --max-events`):
//     once the budget is spent, Run/RunUntil/Step return without dispatching
//     and without advancing now(), leaving the loop resumable.
#ifndef OFC_SIM_EVENT_LOOP_H_
#define OFC_SIM_EVENT_LOOP_H_

#include <array>
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

  std::size_t pending_events() const { return queued_ - cancelled_; }

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
  // One per slot: the queued time of the slot's event and the next slot in
  // its bucket's list.
  struct Link {
    SimTime when = 0;
    std::uint32_t next = kNoSlot;
  };
  static_assert(sizeof(Link) == 16);

  struct Slot {
    Callback cb;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    bool armed = false;  // Callback pending; false = tombstone or free.
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr int kBuckets = 64;  // Times are non-negative: bit 63 never differs.

  static EventId MakeId(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t index);

  int BucketOf(SimTime when) const;
  void Push(std::uint32_t slot, SimTime when);
  void Append(int bucket, std::uint32_t slot);
  void Redistribute();      // Refills bucket 0 from the lowest non-empty bucket.
  SimTime PeekTime() const;  // The least queued time; the queue must not be empty.
  void MaybeCompact();

  // Pops the top entry and, if live, moves its callback into `out` (advancing
  // now()). Returns false for tombstones (slot freed, nothing dispatched).
  bool TakeTop(Callback* out);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t dispatch_stop_at_ = 0;  // 0 = no budget.
  std::vector<Slot> slots_;
  std::vector<Link> links_;  // Parallel to slots_.
  std::uint32_t free_head_ = kNoSlot;
  std::size_t queued_ = 0;     // Entries in the buckets, tombstones included.
  std::size_t cancelled_ = 0;  // Tombstones among them.

  // The radix queue. Bit b of nonempty_ is set iff bucket b holds an entry,
  // and head_[b], tail_[b] and min_[b] (its least time) are meaningful only
  // then. Bucket 0's entries all lie at ref_.
  SimTime ref_ = 0;
  std::uint64_t nonempty_ = 0;
  std::array<std::uint32_t, kBuckets> head_{};
  std::array<std::uint32_t, kBuckets> tail_{};
  std::array<SimTime, kBuckets> min_{};
};

}  // namespace ofc::sim

#endif  // OFC_SIM_EVENT_LOOP_H_
