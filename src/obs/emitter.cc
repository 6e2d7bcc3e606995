#include "src/obs/emitter.h"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>

namespace ofc::obs {
namespace {

// A trace event's phase. A span of `duration` ends at the event's time,
// except for work the event starts (sandbox startup, cache scaling, master
// migration), which begins there.
enum Phase : std::uint8_t { kInstant, kSpan, kSpanFrom };

// How one kind renders. Patterns substitute {s} subject, {d} detail,
// {w} worker, {n} and {m}; `args` is "key=pattern,key=pattern".
struct KindInfo {
  const char* flight;           // Wire name in flight dumps; nullptr = trace only.
  const char* detail = "";      // Flight detail pattern.
  const char* trace = nullptr;  // Trace event name pattern; nullptr = flight only.
  const char* category = "";
  int pid = 0;
  Phase phase = kInstant;
  const char* args = "";
};

constexpr int kInv = kPidInvocations;

// Indexed by FlightEventKind; the static_assert below keeps the two in step.
constexpr KindInfo kKinds[] = {
    // faas/platform lifecycle.
    {"submit"},
    {"queue"},
    {"shed", "{d}", "shed-{d}", "overload", kInv, kInstant, "function={s}"},
    {"cold_start", "", "cold-start", "sandbox", kInv, kSpanFrom, "worker={w},function={s}"},
    {"warm_start", "", "warm-start", "sandbox", kInv, kSpanFrom, "worker={w},function={s}"},
    {"extract", "{n}B", "extract", "phase", kInv, kSpan},
    {"transform", "", "transform", "phase", kInv, kSpan},
    {"load", "{n}B", "load", "phase", kInv, kSpan},
    {"oom_rescue", "", "oom-rescue", "oom", kInv, kInstant},
    {"oom_kill", "", "oom-kill", "oom", kInv, kInstant},
    {"retry", "{d}"},
    // The detail of a completion is "true"/"false": was it a cold start.
    {"complete", "", "{s}", "invocation", kInv, kSpan, "worker={w},cold_start={d}"},
    {"fail", "{d}", "{s}", "invocation", kInv, kSpan, "failed=true"},
    {"worker_crash"},
    {"worker_restore"},
    {"pipeline_start", "{n} stages"},
    {"pipeline_end", "{d}", "{s}", "pipeline", kPidPipelines, kSpan, "tasks={n}"},
    // core/proxy + cache.
    {"cache_hit"},
    {"cache_miss"},
    {"cache_admit"},
    {"cache_write"},
    {"write_fallback", "", "write-fallback", "degradation", kPidStore, kInstant, "key={s}"},
    {"persistor_dispatch"},
    {"persistor_done", "", "persistor", "writeback", kPidStore, kSpan, "key={s}"},
    {"persistor_retry"},
    {"persistor_conflict", "{d}"},
    {"writeback"},
    {"breaker_open", "", "breaker-open", "overload", kPidCache, kInstant},
    {"breaker_close", "", "breaker-close", "overload", kPidCache, kInstant},
    // core/cache_agent and the cache-policy engine.
    {"scale_up", "{n}B", "scale-up", "cache", kPidCache, kSpanFrom, "target_bytes={n}"},
    {"scale_down", "{d}", "scale-down", "cache", kPidCache, kSpanFrom,
     "target_bytes={n},mode={d}"},
    {"migration", "to_{n}", "migrate-master", "cache", kPidCache, kSpanFrom, "key={s}"},
    {"evict", "{d}"},
    // fault/ + ramcloud/.
    {"fault_inject", "", "{s}:inject", "fault", kPidFaults, kInstant, "target={w}"},
    {"fault_heal", "", "{s}:heal", "fault", kPidFaults, kInstant, "target={w}"},
    {"node_crash"},
    {"node_restart"},
    {"node_recovered", "{n}_recovered_{m}_lost"},
    // Data integrity.
    {"corruption_detected", "{d}"},
    {"corruption_repaired", "{d}"},
    {"node_quarantined"},
    // Trace only.
    {nullptr, "", "queued", "dispatch", kInv, kSpan},
    {nullptr, "", "rsds-read-retry", "degradation", kPidStore, kInstant, "key={s}"},
    {nullptr, "", "external-read-boost", "webhook", kPidStore, kInstant, "key={s}"},
    {nullptr, "", "breaker-half-open", "overload", kPidCache, kInstant},
};
static_assert(std::size(kKinds) ==
              static_cast<std::size_t>(FlightEventKind::kBreakerHalfOpen) + 1);

// Display names of the component-owned trace processes, indexed by pid.
constexpr const char* kProcessNames[] = {"", "invocations", "pipelines", "cache-agent",
                                         "rsds-writeback", "fault-injector"};

// The trace thread an event lands on within its process; invocation and
// pipeline events are sampled by it. The cache process has one thread per
// worker, and events without a worker (the breaker) use thread 0.
std::uint64_t TraceThread(int pid, const Event& event) {
  switch (pid) {
    case kPidInvocations:
      return event.invocation;
    case kPidPipelines:
      return event.parent;
    case kPidCache:
      return event.worker < 0 ? 0 : static_cast<std::uint64_t>(event.worker);
    default:
      return 0;
  }
}

// Appends `pattern` to `out` with each {s} {d} {w} {n} {m} replaced by that
// field of `event`.
void ExpandInto(std::string_view pattern, const Event& event, std::string* out) {
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] != '{') {
      *out += pattern[i];
      continue;
    }
    const char field = pattern[i + 1];
    i += 2;  // Onto the closing brace.
    if (field == 's') {
      *out += event.subject;
    } else if (field == 'd') {
      *out += event.detail;
    } else {
      char digits[24];
      const std::int64_t value = field == 'w' ? event.worker : field == 'n' ? event.n : event.m;
      out->append(digits, std::to_chars(digits, std::end(digits), value).ptr);
    }
  }
}

std::string Expand(std::string_view pattern, const Event& event) {
  std::string out;
  ExpandInto(pattern, event, &out);
  return out;
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  const char* name = kKinds[static_cast<std::size_t>(kind)].flight;
  return name != nullptr ? name : "unknown";
}

Emitter::Emitter(TraceRecorder* trace, FlightRecorder* flight,
                 std::initializer_list<int> processes)
    : trace_(trace), flight_(flight) {
  if (trace_ != nullptr) {
    trace_on_ = &trace_->options_.enabled;
    for (int pid : processes) {
      trace_->SetProcessName(pid, kProcessNames[pid]);
    }
  }
  if (flight_ != nullptr) {
    flight_on_ = &flight_->options_.enabled;
  }
}

void Emitter::Render(const Event& event) const {
  const KindInfo& info = kKinds[static_cast<std::size_t>(event.kind)];
  if (*flight_on_ && info.flight != nullptr) {
    FlightEvent& slot =
        flight_->NextSlot(event.time, event.kind, event.invocation, event.parent, event.worker);
    slot.subject.assign(event.subject);
    slot.detail.clear();
    ExpandInto(info.detail, event, &slot.detail);
  }
  if (!*trace_on_ || info.trace == nullptr) {
    return;
  }
  const std::uint64_t tid = TraceThread(info.pid, event);
  if ((info.pid == kPidInvocations || info.pid == kPidPipelines) && !trace_->Sampled(tid)) {
    return;
  }
  TraceRecorder::Args args;
  for (std::string_view rest = info.args; !rest.empty();) {
    const std::size_t eq = rest.find('=');
    const std::size_t end = std::min(rest.find(','), rest.size());
    args.emplace_back(rest.substr(0, eq), Expand(rest.substr(eq + 1, end - eq - 1), event));
    rest.remove_prefix(std::min(end + 1, rest.size()));
  }
  if (info.phase == kInstant) {
    trace_->Instant(Expand(info.trace, event), info.category, event.time, info.pid, tid,
                    std::move(args));
    return;
  }
  const SimTime start = info.phase == kSpanFrom ? event.time : event.time - event.duration;
  trace_->Span(Expand(info.trace, event), info.category, start, event.duration, info.pid, tid,
               std::move(args));
}

}  // namespace ofc::obs
