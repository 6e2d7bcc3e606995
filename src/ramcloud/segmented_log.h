// Log-structured memory for a RAMCloud master (Ousterhout et al., TOCS 2015,
// §4 of that paper): objects are appended to fixed-size segments; deletions
// and overwrites leave dead bytes behind; a cleaner compacts the emptiest
// segments by relocating their live entries, reclaiming whole segments.
//
// OFC inherits this allocator (§6.1): the cache's physical footprint is the
// *segment* footprint, not the live-byte sum, so vertical scaling interacts
// with fragmentation — shrinking a node's memory pool below its segment
// footprint requires a cleaning pass first. The cluster accounts both numbers
// and charges cleaning time (a memory-bandwidth-bound copy) to the operation
// that triggered it.
#ifndef OFC_RAMCLOUD_SEGMENTED_LOG_H_
#define OFC_RAMCLOUD_SEGMENTED_LOG_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace ofc::rc {

struct SegmentedLogOptions {
  Bytes segment_size = MiB(8);
  // The cleaner stops once the live/footprint ratio reaches this target.
  double cleaner_target_utilization = 0.95;
  // Effective copy bandwidth of the cleaner (memory-to-memory).
  double cleaner_bytes_per_second = 10e9;
};

struct CleanResult {
  Bytes bytes_copied = 0;
  int segments_freed = 0;
  SimDuration duration = 0;
};

struct SegmentedLogStats {
  std::uint64_t appends = 0;
  std::uint64_t frees = 0;
  std::uint64_t cleaner_runs = 0;
  Bytes cleaner_bytes_copied = 0;
  int segments_allocated = 0;
  int segments_reclaimed = 0;
};

class SegmentedLog {
 public:
  using EntryId = std::uint64_t;

  explicit SegmentedLog(SegmentedLogOptions options = {});

  // Appends an entry of `size` bytes, allocating segments as needed but never
  // exceeding `capacity` bytes of footprint. When the append does not fit, the
  // cleaner runs first; if it still does not fit, kResourceExhausted.
  // On success the id is returned and any cleaning cost is added to
  // `*cleaning_cost` (may be null).
  Result<EntryId> Append(Bytes size, Bytes capacity, SimDuration* cleaning_cost = nullptr);

  // Marks an entry dead (its bytes remain in the segment until cleaned).
  Status Free(EntryId id);

  // Compacts lowest-utilization segments until footprint <= max_footprint and
  // utilization >= the configured target (or no further progress is possible).
  CleanResult Clean(Bytes max_footprint);

  Bytes live_bytes() const { return live_bytes_; }
  // Physical footprint: the capacity of all allocated segments.
  Bytes footprint() const { return footprint_; }
  double utilization() const;
  std::size_t num_segments() const { return allocated_segments_; }
  std::size_t num_entries() const { return entry_segment_.size(); }
  // Size of a specific live entry; kNotFound for dead/unknown ids.
  Result<Bytes> EntrySize(EntryId id) const;
  const SegmentedLogStats& stats() const { return stats_; }

 private:
  struct Segment {
    bool allocated = false;
    Bytes cap = 0;   // segment_size, or the entry size for jumbo entries.
    Bytes live = 0;  // Live bytes.
    Bytes used = 0;  // Appended bytes (live + dead), <= cap.
    // Live entries and sizes. Ordered by id: the cleaner iterates this map and
    // relocation order determines survivor-segment packing, which is
    // event-visible — it must not follow hash-bucket order.
    std::map<EntryId, Bytes> entries;
  };

  // Index of an allocated segment with room for `size` more bytes, allocating
  // a new segment when footprint allows; -1 when capacity forbids growth.
  int FindSlot(Bytes size, Bytes capacity);
  std::size_t AllocateSegment(Bytes cap);
  void ReleaseSegment(std::size_t index);

  SegmentedLogOptions options_;
  std::vector<Segment> segments_;  // Stable indexes; slots are reused.
  std::vector<std::size_t> free_slots_;
  std::size_t allocated_segments_ = 0;
  Bytes footprint_ = 0;
  // Looked up by id, never iterated; salted hashing keeps that honest under
  // test (tests/determinism_test.cpp perturbs the salt).
  using EntryIndex = std::unordered_map<EntryId, std::size_t, DetHash<EntryId>>;
  EntryIndex entry_segment_;
  // Nodes Free() took out of a segment's entries and out of the index, reused
  // by Append(): an update frees one entry and appends one, so a log in that
  // steady state allocates nothing. They are as many as the entries freed and
  // not yet replaced, at most the most entries the log ever held.
  std::vector<std::map<EntryId, Bytes>::node_type> spare_entries_;
  std::vector<EntryIndex::node_type> spare_index_;
  Bytes live_bytes_ = 0;
  EntryId next_id_ = 1;
  SegmentedLogStats stats_;
};

}  // namespace ofc::rc

#endif  // OFC_RAMCLOUD_SEGMENTED_LOG_H_
