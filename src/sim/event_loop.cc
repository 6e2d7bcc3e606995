#include "src/sim/event_loop.h"

#include <bit>
#include <utility>

#include "src/common/sim_assert.h"

namespace ofc::sim {

EventLoop::EventId EventLoop::ScheduleAfter(SimDuration delay, Callback cb) {
  SIM_ASSERT(delay >= 0) << "; scheduling into the past, delay=" << delay;
  return ScheduleAt(now_ + delay, std::move(cb));
}

EventLoop::EventId EventLoop::ScheduleAt(SimTime when, Callback cb) {
  SIM_ASSERT(when >= now_) << "; scheduling into the past, when=" << when << " now=" << now_;
  const std::uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.armed = true;
  ++next_seq_;
  Push(slot, when);
  return MakeId(slot, s.generation);
}

bool EventLoop::Cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id >> 32);
  const std::uint32_t generation = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) {
    return false;
  }
  Slot& s = slots_[slot];
  if (!s.armed || s.generation != generation) {
    return false;  // Already ran, already cancelled, or the slot was reused.
  }
  s.cb = Callback();  // Destroy captured state now, not at pop time.
  s.armed = false;    // Tombstone: the queue entry is dropped when popped.
  ++cancelled_;
  MaybeCompact();
  return true;
}

std::uint32_t EventLoop::AcquireSlot() {
  std::uint32_t index;
  if (free_head_ != kNoSlot) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    SIM_ASSERT(index != kNoSlot) << "; event slot slab exhausted";
    slots_.emplace_back();
    links_.emplace_back();
  }
  Slot& s = slots_[index];
  if (++s.generation == 0) {  // Skip 0 so EventId 0 stays a "no event" sentinel.
    ++s.generation;
  }
  s.next_free = kNoSlot;
  return index;
}

void EventLoop::ReleaseSlot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.armed = false;
  s.next_free = free_head_;
  free_head_ = index;
}

int EventLoop::BucketOf(SimTime when) const {
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(when ^ ref_)));
}

void EventLoop::Push(std::uint32_t slot, SimTime when) {
  if (nonempty_ == 0) {
    ref_ = now_;  // ref_ may have passed now() by popping a cancelled entry.
  }
  SIM_ASSERT(when >= ref_) << "; event at " << when << " queued below the radix reference "
                           << ref_;
  links_[slot].when = when;
  Append(BucketOf(when), slot);
  ++queued_;
}

void EventLoop::Append(int bucket, std::uint32_t slot) {
  const std::uint64_t bit = std::uint64_t{1} << bucket;
  Link& link = links_[slot];
  link.next = kNoSlot;
  if ((nonempty_ & bit) == 0) {
    nonempty_ |= bit;
    head_[bucket] = slot;
    min_[bucket] = link.when;
  } else {
    links_[tail_[bucket]].next = slot;
    if (link.when < min_[bucket]) {
      min_[bucket] = link.when;
    }
  }
  tail_[bucket] = slot;
}

void EventLoop::Redistribute() {
  // Every entry of the lowest non-empty bucket shares the bits above its
  // bucket's with the new reference, so each lands in a lower bucket, all of
  // which are empty: re-appending in list order keeps scheduling order.
  const int bucket = std::countr_zero(nonempty_);
  nonempty_ &= ~(std::uint64_t{1} << bucket);
  ref_ = min_[bucket];
  for (std::uint32_t slot = head_[bucket]; slot != kNoSlot;) {
    const std::uint32_t next = links_[slot].next;
    Append(BucketOf(links_[slot].when), slot);
    slot = next;
  }
}

SimTime EventLoop::PeekTime() const {
  const int bucket = std::countr_zero(nonempty_);
  return bucket == 0 ? ref_ : min_[bucket];
}

void EventLoop::MaybeCompact() {
  // Compact when tombstones outnumber live entries (amortized O(1) per cancel;
  // the trigger depends only on deterministic counters, so replays compact at
  // identical points). Unlinking keeps each bucket's list order.
  if (cancelled_ < 64 || cancelled_ * 2 < queued_) {
    return;
  }
  const std::uint64_t buckets = nonempty_;
  nonempty_ = 0;
  for (std::uint64_t rest = buckets; rest != 0; rest &= rest - 1) {
    const int bucket = std::countr_zero(rest);
    for (std::uint32_t slot = head_[bucket]; slot != kNoSlot;) {
      const std::uint32_t next = links_[slot].next;
      if (slots_[slot].armed) {
        Append(bucket, slot);
      } else {
        ReleaseSlot(slot);
      }
      slot = next;
    }
  }
  queued_ -= cancelled_;
  cancelled_ = 0;
}

bool EventLoop::TakeTop(Callback* out) {
  if ((nonempty_ & 1) == 0) {
    Redistribute();
  }
  const std::uint32_t slot = head_[0];
  head_[0] = links_[slot].next;
  if (head_[0] == kNoSlot) {
    nonempty_ &= ~std::uint64_t{1};
  }
  --queued_;
  Slot& s = slots_[slot];
  if (!s.armed) {
    --cancelled_;
    ReleaseSlot(slot);
    return false;
  }
  *out = std::move(s.cb);
  s.cb = Callback();
  ReleaseSlot(slot);
  // Event-loop monotonicity: simulated time never moves backwards.
  SIM_ASSERT(ref_ >= now_) << "; event at " << ref_ << " dispatched at " << now_;
  now_ = ref_;
  ++dispatched_;
  return true;
}

void EventLoop::Run() {
  Callback cb;
  while (nonempty_ != 0) {
    if (dispatch_budget_exhausted()) {
      return;
    }
    if (TakeTop(&cb)) {
      cb();
      cb = Callback();  // Release captured state before the next event runs.
    }
  }
}

void EventLoop::RunUntil(SimTime deadline) {
  Callback cb;
  while (nonempty_ != 0 && PeekTime() <= deadline) {
    if (dispatch_budget_exhausted()) {
      return;  // Leave now() where it is: the run is resumable.
    }
    if (TakeTop(&cb)) {
      cb();
      cb = Callback();  // Release captured state before the next event runs.
    }
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

bool EventLoop::Step() {
  Callback cb;
  while (nonempty_ != 0) {
    if (dispatch_budget_exhausted()) {
      return false;
    }
    if (TakeTop(&cb)) {
      cb();
      return true;
    }
  }
  return false;
}

}  // namespace ofc::sim
