#include "src/sim/periodic.h"

#include <utility>

#include "src/common/sim_assert.h"

namespace ofc::sim {

PeriodicTask::PeriodicTask(EventLoop* loop, SimDuration interval, Callback cb)
    : loop_(loop), interval_(interval), cb_(std::move(cb)) {}

PeriodicTask::~PeriodicTask() {
  // A running task always has exactly one pending event whose [this] capture
  // would dangle after this destructor; cancelling it must succeed, or the
  // loop is about to run a callback into freed memory.
  if (event_ != 0) {
    const bool cancelled = loop_->Cancel(event_);
    SIM_ASSERT(cancelled) << "; ~PeriodicTask could not cancel its pending tick (event "
                          << event_ << ") — the loop would call into a destroyed task";
    event_ = 0;
  }
}

void PeriodicTask::Start() {
  if (event_ != 0) {
    return;
  }
  SIM_ASSERT(interval_ > 0) << "; PeriodicTask::Start needs a positive interval, got "
                            << interval_ << " us";
  Arm();
}

void PeriodicTask::Stop() {
  if (event_ == 0) {
    return;
  }
  const bool cancelled = loop_->Cancel(event_);
  SIM_ASSERT(cancelled) << "; PeriodicTask::Stop lost its pending tick (event " << event_
                        << "); event_ bookkeeping is out of sync with the loop";
  event_ = 0;
}

void PeriodicTask::Arm() {
  event_ = loop_->ScheduleAfter(interval_, [this] {
    // Re-arm before running the callback: the callback may Stop() the task,
    // and a stop must win over the tick that requested it.
    event_ = 0;
    Arm();
    ++ticks_;
    cb_(loop_->now());
  });
}

}  // namespace ofc::sim
