// DeferredCalls<T>: calls a completion later on the event loop with a value
// fixed now — a cluster read's hit or miss, a cluster write's status.
//
// The completion and the value wait in a pooled record, and the loop's
// closure captures only the record's address, so a deferred call allocates
// nothing once the pool is warm however large the completion's own captures
// are (an InlineFunction cannot nest inside the loop's buffer; see
// inline_function.h).
#ifndef OFC_SIM_DEFERRED_CALLS_H_
#define OFC_SIM_DEFERRED_CALLS_H_

#include <cstddef>
#include <utility>
#include <variant>

#include "src/common/record_pool.h"
#include "src/common/units.h"
#include "src/sim/event_loop.h"
#include "src/sim/inline_function.h"

namespace ofc::sim {

template <typename T>
class DeferredCalls {
 public:
  using Completion = InlineFunction<void(T)>;

  explicit DeferredCalls(EventLoop* loop) : loop_(loop) {}

  // Records ever made: the most calls that were pending at once.
  std::size_t records() const { return calls_.size(); }

  // Schedules `done(value)` to run `delay` from now.
  void After(SimDuration delay, Completion done, T value) {
    Call* call = calls_.Acquire();
    call->done = std::move(done);
    call->value = std::move(value);
    loop_->ScheduleAfter(delay, [this, call] {
      Completion completion = std::move(call->done);
      T result = std::get<T>(std::move(call->value));
      call->value = std::monostate();
      calls_.Release(call);
      completion(std::move(result));
    });
  }

 private:
  struct Call {
    Completion done;
    std::variant<std::monostate, T> value;  // T while the call is pending.
  };

  EventLoop* loop_;
  RecordPool<Call> calls_;
};

}  // namespace ofc::sim

#endif  // OFC_SIM_DEFERRED_CALLS_H_
