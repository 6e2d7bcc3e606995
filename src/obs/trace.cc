#include "src/obs/trace.h"

#include <algorithm>

#include "src/obs/export_util.h"

namespace ofc::obs {

bool TraceRecorder::Admit() {
  if (events_.size() >= options_.max_events) {
    ++dropped_;
    return false;
  }
  return true;
}

void TraceRecorder::SetProcessName(int pid, const std::string& name) {
  Event ev;
  ev.phase = 'M';
  ev.name = "process_name";
  ev.pid = pid;
  ev.args = {{"name", name}};
  metadata_.push_back(std::move(ev));
}

void TraceRecorder::SetThreadName(int pid, std::uint64_t tid, const std::string& name) {
  Event ev;
  ev.phase = 'M';
  ev.name = "thread_name";
  ev.pid = pid;
  ev.tid = tid;
  ev.args = {{"name", name}};
  metadata_.push_back(std::move(ev));
}

void TraceRecorder::Span(const std::string& name, const std::string& category, SimTime start,
                         SimDuration duration, int pid, std::uint64_t tid, Args args) {
  if (!options_.enabled || !Admit()) {
    return;
  }
  Event ev;
  ev.phase = 'X';
  ev.name = name;
  ev.category = category;
  ev.ts = start;
  ev.duration = duration < 0 ? 0 : duration;
  ev.pid = pid;
  ev.tid = tid;
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void TraceRecorder::Instant(const std::string& name, const std::string& category, SimTime ts,
                            int pid, std::uint64_t tid, Args args) {
  if (!options_.enabled || !Admit()) {
    return;
  }
  Event ev;
  ev.phase = 'i';
  ev.name = name;
  ev.category = category;
  ev.ts = ts;
  ev.pid = pid;
  ev.tid = tid;
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

std::string TraceRecorder::ToJson() const {
  // Sort by start time; at equal timestamps the longer span first, so an
  // enclosing span always precedes the spans nested inside it.
  std::vector<const Event*> order;
  order.reserve(events_.size());
  for (const Event& ev : events_) {
    order.push_back(&ev);
  }
  std::stable_sort(order.begin(), order.end(), [](const Event* a, const Event* b) {
    if (a->ts != b->ts) {
      return a->ts < b->ts;
    }
    return a->duration > b->duration;
  });

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  auto emit = [&](const Event& ev) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n{\"name\": \"" + JsonEscape(ev.name) + "\"";
    if (!ev.category.empty()) {
      out += ", \"cat\": \"" + JsonEscape(ev.category) + "\"";
    }
    out += ", \"ph\": \"";
    out += ev.phase;
    out += "\"";
    if (ev.phase != 'M') {
      out += ", \"ts\": " + std::to_string(ev.ts);
    }
    if (ev.phase == 'X') {
      out += ", \"dur\": " + std::to_string(ev.duration);
    }
    if (ev.phase == 'i') {
      out += ", \"s\": \"t\"";
    }
    out += ", \"pid\": " + std::to_string(ev.pid);
    out += ", \"tid\": " + std::to_string(ev.tid);
    if (!ev.args.empty()) {
      out += ", \"args\": {";
      bool first_arg = true;
      for (const auto& [key, value] : ev.args) {
        if (!first_arg) {
          out += ", ";
        }
        first_arg = false;
        out += "\"" + JsonEscape(key) + "\": \"" + JsonEscape(value) + "\"";
      }
      out += "}";
    }
    out += "}";
  };
  for (const Event& ev : metadata_) {
    emit(ev);
  }
  for (const Event* ev : order) {
    emit(*ev);
  }
  out += "\n]}\n";
  return out;
}

}  // namespace ofc::obs
