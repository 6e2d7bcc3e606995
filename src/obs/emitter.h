// Emitter: one call per lifecycle event, feeding the trace and the flight ring.
//
// Each instrumented component builds one Emitter from the `trace`/`flight`
// pointers its options carry and calls Emit() once per lifecycle event,
// unguarded, with typed fields. The emitter alone decides, from the table of
// event kinds in emitter.cc:
//   * whether a sink is on — read at emit time, so a sink switched on after
//     the stack is built is honoured;
//   * what the trace samples — events on the invocation track by invocation
//     id, pipeline spans by pipeline id, control-plane events whenever the
//     trace is on; the flight ring records every event;
//   * which track, name, category and args a trace event gets;
//   * how the flight record's detail string is formatted.
// A kind may reach only one sink (see the table). With both sinks off an
// Emit() costs one branch: callers pass numbers and views, and strings are
// built only for a sink that is on.
#ifndef OFC_OBS_EMITTER_H_
#define OFC_OBS_EMITTER_H_

#include <cstdint>
#include <initializer_list>
#include <string_view>

#include "src/common/units.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"

namespace ofc::obs {

// One lifecycle event. A kind renders only the fields its table row names;
// the others keep their defaults. The views are read only during Emit().
struct Event {
  FlightEventKind kind = FlightEventKind::kSubmit;
  SimTime time = 0;              // When it happened; where most spans end.
  std::uint64_t invocation = 0;  // 0 for control-plane events.
  std::uint64_t parent = 0;      // Pipeline, issuing invocation or fault id.
  std::int32_t worker = -1;      // Worker/node index; -1 when not applicable.
  std::string_view subject;      // Function, object key, pipeline or fault kind.
  std::string_view detail;       // Reason or mode text.
  SimDuration duration = 0;      // Spans only.
  std::int64_t n = 0;  // Numbers a kind renders: bytes, counts, node ids.
  std::int64_t m = 0;
};

class Emitter {
 public:
  Emitter() = default;  // No sinks: every Emit() is one untaken branch.
  // Either recorder may be null. `processes` lists the trace pids whose
  // process-name metadata this component writes, in construction order.
  Emitter(TraceRecorder* trace, FlightRecorder* flight,
          std::initializer_list<int> processes = {});

  void Emit(const Event& event) const {
    if (*trace_on_ | *flight_on_) {
      Render(event);
    }
  }

 private:
  static constexpr bool kOff = false;

  void Render(const Event& event) const;

  TraceRecorder* trace_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  // The recorders' own enabled flags (or kOff for an absent recorder).
  const bool* trace_on_ = &kOff;
  const bool* flight_on_ = &kOff;
};

}  // namespace ofc::obs

#endif  // OFC_OBS_EMITTER_H_
