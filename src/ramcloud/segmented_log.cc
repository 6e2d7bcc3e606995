#include "src/ramcloud/segmented_log.h"

#include <algorithm>
#include <cmath>

#include "src/common/sim_assert.h"

namespace ofc::rc {

SegmentedLog::SegmentedLog(SegmentedLogOptions options) : options_(options) {
  SIM_ASSERT(options_.segment_size > 0);
}

double SegmentedLog::utilization() const {
  return footprint_ <= 0 ? 1.0
                         : static_cast<double>(live_bytes_) / static_cast<double>(footprint_);
}

Result<Bytes> SegmentedLog::EntrySize(EntryId id) const {
  auto it = entry_segment_.find(id);
  if (it == entry_segment_.end()) {
    return NotFoundError("no such log entry");
  }
  return segments_[it->second].entries.at(id);
}

std::size_t SegmentedLog::AllocateSegment(Bytes cap) {
  std::size_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = segments_.size();
    segments_.emplace_back();
  }
  Segment& segment = segments_[index];
  segment.allocated = true;
  segment.cap = cap;
  segment.live = 0;
  segment.used = 0;
  segment.entries.clear();
  ++allocated_segments_;
  footprint_ += cap;
  ++stats_.segments_allocated;
  return index;
}

void SegmentedLog::ReleaseSegment(std::size_t index) {
  Segment& segment = segments_[index];
  SIM_ASSERT(segment.allocated && segment.entries.empty())
      << "; releasing segment " << index << " with " << segment.entries.size() << " live entries";
  footprint_ -= segment.cap;
  SIM_ASSERT(footprint_ >= 0) << "; footprint underflow releasing segment " << index;
  segment.allocated = false;
  segment.cap = 0;
  segment.live = 0;
  segment.used = 0;
  --allocated_segments_;
  free_slots_.push_back(index);
  ++stats_.segments_reclaimed;
}

int SegmentedLog::FindSlot(Bytes size, Bytes capacity) {
  // Jumbo entries get a dedicated exact-size segment.
  if (size > options_.segment_size) {
    if (footprint_ + size > capacity) {
      return -1;
    }
    return static_cast<int>(AllocateSegment(size));
  }
  // First allocated segment with contiguous room (append-only within segments).
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& segment = segments_[i];
    if (segment.allocated && segment.cap == options_.segment_size &&
        segment.used + size <= segment.cap) {
      return static_cast<int>(i);
    }
  }
  if (footprint_ + options_.segment_size > capacity) {
    return -1;
  }
  return static_cast<int>(AllocateSegment(options_.segment_size));
}

Result<SegmentedLog::EntryId> SegmentedLog::Append(Bytes size, Bytes capacity,
                                                   SimDuration* cleaning_cost) {
  if (size <= 0) {
    return InvalidArgumentError("non-positive entry size");
  }
  int slot = FindSlot(size, capacity);
  if (slot < 0) {
    // Out of footprint: compact, then retry once.
    const CleanResult cleaned = Clean(capacity - std::min(capacity, size));
    if (cleaning_cost != nullptr) {
      *cleaning_cost += cleaned.duration;
    }
    slot = FindSlot(size, capacity);
    if (slot < 0) {
      return ResourceExhaustedError("log footprint would exceed capacity");
    }
  }
  Segment& segment = segments_[static_cast<std::size_t>(slot)];
  const EntryId id = next_id_++;
  if (spare_entries_.empty()) {
    segment.entries.emplace(id, size);
  } else {
    auto node = std::move(spare_entries_.back());
    spare_entries_.pop_back();
    node.key() = id;
    node.mapped() = size;
    segment.entries.insert(std::move(node));
  }
  segment.live += size;
  segment.used += size;
  if (spare_index_.empty()) {
    entry_segment_.emplace(id, static_cast<std::size_t>(slot));
  } else {
    auto node = std::move(spare_index_.back());
    spare_index_.pop_back();
    node.key() = id;
    node.mapped() = static_cast<std::size_t>(slot);
    entry_segment_.insert(std::move(node));
  }
  live_bytes_ += size;
  ++stats_.appends;
  // Per-segment accounting: live never exceeds appended, appended never
  // exceeds the segment capacity; global live never exceeds the footprint.
  SIM_ASSERT(segment.live <= segment.used && segment.used <= segment.cap)
      << "; segment " << slot << " live=" << segment.live << " used=" << segment.used
      << " cap=" << segment.cap;
  SIM_ASSERT(live_bytes_ <= footprint_)
      << "; live=" << live_bytes_ << " footprint=" << footprint_;
  return id;
}

Status SegmentedLog::Free(EntryId id) {
  auto it = entry_segment_.find(id);
  if (it == entry_segment_.end()) {
    return NotFoundError("no such log entry");
  }
  const std::size_t segment_index = it->second;
  Segment& segment = segments_[segment_index];
  const Bytes size = segment.entries.at(id);
  spare_entries_.push_back(segment.entries.extract(id));
  segment.live -= size;  // Dead bytes stay in `used` until the cleaner runs.
  live_bytes_ -= size;
  spare_index_.push_back(entry_segment_.extract(it));
  ++stats_.frees;
  SIM_ASSERT(segment.live >= 0 && live_bytes_ >= 0)
      << "; entry " << id << " freed twice? segment live=" << segment.live
      << " total live=" << live_bytes_;
  // Fast path: a fully dead segment is reclaimed immediately (no copying).
  if (segment.entries.empty()) {
    ReleaseSegment(segment_index);
  }
  return OkStatus();
}

CleanResult SegmentedLog::Clean(Bytes max_footprint) {
  CleanResult result;
  ++stats_.cleaner_runs;

  // Reclaim fully dead segments first (free of copying).
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].allocated && segments_[i].entries.empty()) {
      ReleaseSegment(i);
      ++result.segments_freed;
    }
  }

  // Segments are append-only: compaction copies live entries out of the
  // least-live *victim* segments into freshly allocated *survivor* segments
  // (the RAMCloud cleaner), then releases the victims. A victim batch is
  // profitable when its live bytes pack into fewer segments than it occupies.
  std::vector<std::size_t> standard;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].allocated && segments_[i].cap == options_.segment_size) {
      standard.push_back(i);
    }
  }
  std::sort(standard.begin(), standard.end(), [&](std::size_t a, std::size_t b) {
    return segments_[a].live < segments_[b].live;
  });
  // Largest prefix whose live bytes fit into strictly fewer segments.
  Bytes prefix_live = 0;
  std::size_t victims = 0;
  for (std::size_t i = 0; i < standard.size(); ++i) {
    prefix_live += segments_[standard[i]].live;
    if (prefix_live <= static_cast<Bytes>(i) * options_.segment_size) {
      victims = i + 1;
    }
  }
  if (victims >= 2) {
    std::vector<std::size_t> survivors;
    auto place = [&](EntryId id, Bytes size) {
      for (std::size_t s : survivors) {
        if (segments_[s].used + size <= segments_[s].cap) {
          Segment& target = segments_[s];
          target.entries.emplace(id, size);
          target.live += size;
          target.used += size;
          entry_segment_[id] = s;
          return;
        }
      }
      const std::size_t fresh = AllocateSegment(options_.segment_size);
      survivors.push_back(fresh);
      Segment& target = segments_[fresh];
      target.entries.emplace(id, size);
      target.live += size;
      target.used += size;
      entry_segment_[id] = fresh;
    };
    for (std::size_t v = 0; v < victims; ++v) {
      const std::size_t index = standard[v];
      std::vector<std::pair<EntryId, Bytes>> to_move(segments_[index].entries.begin(),
                                                     segments_[index].entries.end());
      for (const auto& [id, size] : to_move) {
        segments_[index].entries.erase(id);
        segments_[index].live -= size;
        place(id, size);
        result.bytes_copied += size;
      }
      ReleaseSegment(index);
    }
    result.segments_freed +=
        static_cast<int>(victims) - static_cast<int>(survivors.size());
  }

  // Full re-derivation of the incremental accounting (Debug builds only).
  SIM_DCHECK([&] {
    Bytes live = 0;
    Bytes cap = 0;
    for (const Segment& segment : segments_) {
      if (segment.allocated) {
        live += segment.live;
        cap += segment.cap;
      }
    }
    return live == live_bytes_ && cap == footprint_;
  }()) << "; cleaner corrupted live/footprint accounting";

  (void)max_footprint;  // The caller compares footprint() afterwards.
  stats_.cleaner_bytes_copied += result.bytes_copied;
  result.duration = static_cast<SimDuration>(
      static_cast<double>(result.bytes_copied) / options_.cleaner_bytes_per_second * 1e6);
  return result;
}

}  // namespace ofc::rc
