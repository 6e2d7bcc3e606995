// TraceRecorder: per-invocation lifecycle tracing on the simulated clock.
//
// Components emit spans (Chrome trace-event "X" complete events) and instants
// ("i" events) stamped with sim::EventLoop time; the recorder serializes them
// as Chrome trace-event JSON, so a run opens directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
//
// Recording is OFF by default. Components emit through an obs::Emitter
// (emitter.h), which costs them one branch while both sinks are off and picks
// each event's track, name and category. When on, per-invocation spans can be
// sampled (`sample_period = N` records every Nth invocation id) and the total
// event count is hard-capped so a runaway run cannot exhaust memory.
//
// Track layout convention (pid/tid pairs shared by the instrumented layers):
//   * kPidInvocations — tid = invocation id; submit/queue/startup/E/T/L spans;
//   * kPidPipelines   — tid = pipeline id; whole-pipeline spans;
//   * kPidCache       — tid = worker/node id; CacheAgent scaling + migrations;
//   * kPidStore       — tid = 0; persistor write-backs against the RSDS;
//   * kPidFaults      — tid = 0; injected faults and heals (src/fault/);
//   * kPidSlo         — tid = SLO index; burn-rate alert fire/clear instants.
#ifndef OFC_OBS_TRACE_H_
#define OFC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/units.h"

namespace ofc::obs {

inline constexpr int kPidInvocations = 1;
inline constexpr int kPidPipelines = 2;
inline constexpr int kPidCache = 3;
inline constexpr int kPidStore = 4;
inline constexpr int kPidFaults = 5;
inline constexpr int kPidSlo = 6;

struct TraceOptions {
  bool enabled = false;
  // Record spans for invocation/pipeline ids where id % sample_period == 0.
  // 1 = every invocation; control-plane events (scaling, migrations,
  // persistors) are recorded whenever tracing is enabled.
  std::uint64_t sample_period = 1;
  // Hard cap on recorded events; further events are counted as dropped.
  std::size_t max_events = 1u << 20;
};

class TraceRecorder {
 public:
  // Event arguments, rendered as a JSON string map under "args".
  using Args = std::vector<std::pair<std::string, std::string>>;

  explicit TraceRecorder(TraceOptions options = {}) : options_(options) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return options_.enabled; }
  void set_enabled(bool on) { options_.enabled = on; }
  void set_sample_period(std::uint64_t period) {
    options_.sample_period = period == 0 ? 1 : period;
  }
  const TraceOptions& options() const { return options_; }

  // Per-invocation sampling decision; deterministic in the id.
  bool Sampled(std::uint64_t id) const {
    return options_.enabled && (options_.sample_period <= 1 || id % options_.sample_period == 0);
  }

  // Perfetto/chrome display names for the track-layout metadata.
  void SetProcessName(int pid, const std::string& name);
  void SetThreadName(int pid, std::uint64_t tid, const std::string& name);

  // Complete event ("X"): a span of `duration` starting at `start`.
  void Span(const std::string& name, const std::string& category, SimTime start,
            SimDuration duration, int pid, std::uint64_t tid, Args args = {});

  // Instant event ("i", thread scope).
  void Instant(const std::string& name, const std::string& category, SimTime ts, int pid,
               std::uint64_t tid, Args args = {});

  std::size_t num_events() const { return events_.size(); }
  std::size_t num_dropped() const { return dropped_; }

  // Chrome trace-event JSON: {"displayTimeUnit": "ms", "traceEvents": [...]},
  // events sorted by (ts, duration descending) so enclosing spans precede their
  // children and timestamps are monotonically non-decreasing.
  std::string ToJson() const;

 private:
  friend class Emitter;  // Reads options_.enabled at emit time.

  struct Event {
    char phase = 'X';
    std::string name;
    std::string category;
    SimTime ts = 0;
    SimDuration duration = 0;
    int pid = 0;
    std::uint64_t tid = 0;
    Args args;
  };

  bool Admit();

  TraceOptions options_;
  std::vector<Event> events_;
  std::vector<Event> metadata_;  // "M" events, emitted before the sorted body.
  std::size_t dropped_ = 0;
};

}  // namespace ofc::obs

#endif  // OFC_OBS_TRACE_H_
