#include "src/obs/flight_recorder.h"

#include <cstdio>
#include <utility>

#include "src/obs/export_util.h"

namespace ofc::obs {

void FlightRecorder::set_capacity(std::size_t n) {
  options_.capacity = n == 0 ? 1 : n;
  if (ring_.size() <= options_.capacity && start_ == 0) {
    return;  // Still growing in append order; nothing to rearrange.
  }
  // Linearize the newest `capacity` records into a fresh buffer.
  const std::size_t keep = ring_.size() < options_.capacity ? ring_.size() : options_.capacity;
  std::vector<FlightEvent> linear;
  linear.reserve(keep);
  for (std::size_t i = ring_.size() - keep; i < ring_.size(); ++i) {
    linear.push_back(std::move(ring_[(start_ + i) % ring_.size()]));
  }
  ring_ = std::move(linear);
  start_ = 0;
}

void FlightRecorder::Record(SimTime time, FlightEventKind kind, std::uint64_t invocation_id,
                            std::uint64_t parent_id, std::int32_t worker, std::string subject,
                            std::string detail) {
  if (!options_.enabled) {
    return;
  }
  FlightEvent& ev = NextSlot(time, kind, invocation_id, parent_id, worker);
  ev.subject = std::move(subject);
  ev.detail = std::move(detail);
}

FlightEvent& FlightRecorder::NextSlot(SimTime time, FlightEventKind kind,
                                      std::uint64_t invocation_id, std::uint64_t parent_id,
                                      std::int32_t worker) {
  FlightEvent* ev;
  if (ring_.size() < options_.capacity) {
    if (ring_.size() == ring_.capacity()) {
      // Grow geometrically but never past the ring bound, so the buffer ends
      // at exactly `capacity` slots with no overshoot to trim.
      std::size_t want = ring_.capacity() == 0 ? 16 : ring_.capacity() * 2;
      ring_.reserve(want < options_.capacity ? want : options_.capacity);
    }
    ev = &ring_.emplace_back();
  } else {
    ev = &ring_[start_];  // Overwrite the oldest record in place.
    start_ = (start_ + 1) % ring_.size();
  }
  ev->seq = next_seq_++;
  ev->time = time;
  ev->kind = kind;
  ev->invocation_id = invocation_id;
  ev->parent_id = parent_id;
  ev->worker = worker;
  return *ev;
}

std::vector<const FlightEvent*> FlightRecorder::ChainFor(std::uint64_t invocation_id) const {
  std::vector<const FlightEvent*> chain;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const FlightEvent& ev = at(i);
    if (ev.invocation_id == invocation_id ||
        (ev.parent_id == invocation_id && ev.parent_id != 0)) {
      chain.push_back(&ev);
    }
  }
  return chain;
}

std::string FlightRecorder::ToJson(const std::string& reason) const {
  std::string out = "{";
  if (!reason.empty()) {
    out += "\"reason\": \"" + JsonEscape(reason) + "\", ";
  }
  out += "\"total_recorded\": " + std::to_string(next_seq_);
  out += ", \"evicted\": " + std::to_string(evicted());
  out += ", \"events\": [";
  bool first = true;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const FlightEvent& ev = at(i);
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n{\"seq\": " + std::to_string(ev.seq);
    out += ", \"t_us\": " + std::to_string(ev.time);
    out += ", \"kind\": \"";
    out += FlightEventKindName(ev.kind);
    out += "\"";
    if (ev.invocation_id != 0) {
      out += ", \"inv\": " + std::to_string(ev.invocation_id);
    }
    if (ev.parent_id != 0) {
      out += ", \"parent\": " + std::to_string(ev.parent_id);
    }
    if (ev.worker >= 0) {
      out += ", \"worker\": " + std::to_string(ev.worker);
    }
    if (!ev.subject.empty()) {
      out += ", \"subject\": \"" + JsonEscape(ev.subject) + "\"";
    }
    if (!ev.detail.empty()) {
      out += ", \"detail\": \"" + JsonEscape(ev.detail) + "\"";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool FlightRecorder::WriteJson(const std::string& path, const std::string& reason) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ToJson(reason);
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 && written == json.size();
}

}  // namespace ofc::obs
