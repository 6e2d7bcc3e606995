// KeyTable: records found by their string key through a hash index.
//
// Each record is a `T` that carries its own `std::string key`, the only copy
// of the key. Records live in a RecordPool, so their addresses never move,
// and an erased record goes back to the pool with its key's and vectors'
// capacity kept for the next insert. An open-addressing index of
// `{hash, record}` slots finds them: a power-of-two slot array at most 3/4
// full, linear probing, and backward-shift erase, so no tombstones pile up.
// Keys hash through DetHash, so a perturbed hash salt moves every record to
// another slot (tests/determinism_test.cpp).
//
// A slot array of 128 KiB or more is an anonymous mapping of its own, not a
// malloc block. Were it a malloc block, freeing the first one glibc had
// mapped would raise glibc's dynamic mmap threshold to its size, and later
// arrays would come from the heap, where a freed array leaves a hole that the
// process keeps: its peak RSS would then depend on where in the heap each
// array landed, and so on every allocation made before. A mapped array
// returns its pages when it is freed. Its pages become resident as slots on
// them are written, and a rehash hands back each 64 KiB of the old array once
// it has moved the records there, so that growing to 2n slots holds about 2n
// slots' pages at a time, not 3n.
//
// The table hands out no walk in slot order, which the salt would reach. A
// walk gets its records sorted by key (InKeyOrder), and the scrubber's cursor
// (KeysAfter) reads a key-ordered index that the first KeysAfter call builds
// and every later insert and erase keeps current, so a table no cursor walks
// pays nothing for key order.
#ifndef OFC_COMMON_KEY_TABLE_H_
#define OFC_COMMON_KEY_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/record_pool.h"
#include "src/common/sim_assert.h"

namespace ofc {

namespace internal {

// `bytes` of zeroed memory for a slot array, and its release; see above.
void* AllocateSlots(std::size_t bytes);
void ReleaseSlots(void* slots, std::size_t bytes);
// Hands bytes [begin, end) of a slot array of `bytes` back to the system if
// the array is mapped; they read as zero afterwards.
void ReleaseSlotPages(void* slots, std::size_t bytes, std::size_t begin, std::size_t end);

}  // namespace internal

template <typename T, typename Hash = DetHash<std::string_view>>
class KeyTable {
 public:
  KeyTable() = default;
  // Callers hold record addresses.
  KeyTable(const KeyTable&) = delete;
  KeyTable& operator=(const KeyTable&) = delete;

  std::size_t size() const { return size_; }

  // The record under `key`, or null.
  T* Find(std::string_view key) { return Lookup(key, Hash{}(key)); }
  const T* Find(std::string_view key) const { return Lookup(key, Hash{}(key)); }

  // The record under `key`, and whether Insert just made it. A new record
  // comes from the pool as its last user left it, apart from its key: the
  // caller sets every other field it reads.
  std::pair<T*, bool> Insert(std::string_view key) {
    const std::size_t hash = Hash{}(key);
    if (T* found = Lookup(key, hash)) {
      return {found, false};
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Grow();
    }
    T* record = pool_.Acquire();
    record->key.assign(key);
    Place(Slot{hash, record});
    ++size_;
    if (ordered_) {
      ordered_->insert(record);
    }
    return {record, true};
  }

  // Erases `record`, which must be in the table, and returns it to the pool.
  void Erase(T* record) {
    if (ordered_) {
      ordered_->erase(record);
    }
    std::size_t hole = Hash{}(record->key) & mask();
    while (slots_[hole].record != record) {
      SIM_ASSERT(slots_[hole].record != nullptr) << "; erased record not in the table: "
                                                 << record->key;
      hole = (hole + 1) & mask();
    }
    // Backward shift: pull each later record of the probe run into the hole
    // unless that would put it before its home slot.
    for (std::size_t next = (hole + 1) & mask(); slots_[next].record != nullptr;
         next = (next + 1) & mask()) {
      const std::size_t home = slots_[next].hash & mask();
      if (((next - home) & mask()) >= ((next - hole) & mask())) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    pool_.Release(record);
  }

  // The records `keep` accepts, sorted by key.
  template <typename Pred>
  std::vector<T*> InKeyOrder(Pred keep) {
    return Sorted<T*>(keep);
  }
  template <typename Pred>
  std::vector<const T*> InKeyOrder(Pred keep) const {
    return Sorted<const T*>(keep);
  }

  // Keys in lexicographic order strictly after `after`, at most `limit`.
  std::vector<std::string> KeysAfter(std::string_view after, std::size_t limit) const {
    if (!ordered_) {
      ordered_.emplace();
      for (const Slot& slot : slots_) {
        if (slot.record != nullptr) {
          ordered_->insert(slot.record);
        }
      }
    }
    std::vector<std::string> keys;
    for (auto it = ordered_->upper_bound(after); it != ordered_->end() && keys.size() < limit;
         ++it) {
      keys.push_back((*it)->key);
    }
    return keys;
  }

 private:
  // All-zero bytes are an empty slot.
  struct Slot {
    std::size_t hash = 0;
    T* record = nullptr;  // Null: the slot is empty.
  };

  // A fixed number of slots, all empty at first.
  class SlotArray {
   public:
    SlotArray() = default;
    explicit SlotArray(std::size_t size)
        : slots_(static_cast<Slot*>(internal::AllocateSlots(size * sizeof(Slot)))), size_(size) {}
    SlotArray(SlotArray&& other) noexcept
        : slots_(std::exchange(other.slots_, nullptr)), size_(std::exchange(other.size_, 0)) {}
    SlotArray& operator=(SlotArray&& other) noexcept {
      std::swap(slots_, other.slots_);
      std::swap(size_, other.size_);
      return *this;
    }
    ~SlotArray() { internal::ReleaseSlots(slots_, size_ * sizeof(Slot)); }

    // If the array is mapped, releases the pages of slots [begin, end), which
    // read as empty afterwards.
    void ReleasePages(std::size_t begin, std::size_t end) {
      internal::ReleaseSlotPages(slots_, size_ * sizeof(Slot), begin * sizeof(Slot),
                                 end * sizeof(Slot));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Slot& operator[](std::size_t i) { return slots_[i]; }
    const Slot& operator[](std::size_t i) const { return slots_[i]; }
    const Slot* begin() const { return slots_; }
    const Slot* end() const { return slots_ + size_; }

   private:
    Slot* slots_ = nullptr;
    std::size_t size_ = 0;
  };

  // Orders records, and a record against a bare key, by key.
  struct KeyLess {
    using is_transparent = void;
    static std::string_view KeyOf(const T* record) { return record->key; }
    static std::string_view KeyOf(std::string_view key) { return key; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return KeyOf(a) < KeyOf(b);
    }
  };

  std::size_t mask() const { return slots_.size() - 1; }

  T* Lookup(std::string_view key, std::size_t hash) const {
    if (size_ == 0) {
      return nullptr;
    }
    for (std::size_t i = hash & mask();; i = (i + 1) & mask()) {
      const Slot& slot = slots_[i];
      if (slot.record == nullptr) {
        return nullptr;
      }
      if (slot.hash == hash && slot.record->key == key) {
        return slot.record;
      }
    }
  }

  template <typename Ptr, typename Pred>
  std::vector<Ptr> Sorted(Pred keep) const {
    std::vector<Ptr> records;
    for (const Slot& slot : slots_) {
      if (slot.record != nullptr && keep(*slot.record)) {
        records.push_back(slot.record);
      }
    }
    std::sort(records.begin(), records.end(), KeyLess{});
    return records;
  }

  // Puts `slot` into the first empty slot of its probe run.
  void Place(Slot slot) {
    std::size_t i = slot.hash & mask();
    while (slots_[i].record != nullptr) {
      i = (i + 1) & mask();
    }
    slots_[i] = slot;
  }

  void Grow() {
    const std::size_t capacity = slots_.empty() ? kMinSlots : 2 * slots_.size();
    SlotArray old = std::exchange(slots_, SlotArray(capacity));
    // A record's new home is its old one or that plus old.size(), so moving
    // the old array in order fills the new one in step.
    for (std::size_t begin = 0; begin < old.size(); begin += kChunkSlots) {
      const std::size_t end = std::min(old.size(), begin + kChunkSlots);
      for (std::size_t i = begin; i < end; ++i) {
        if (old[i].record != nullptr) {
          Place(old[i]);
        }
      }
      old.ReleasePages(begin, end);
    }
  }

  static constexpr std::size_t kMinSlots = 16;
  // Old slots a rehash moves before it releases their pages: 64 KiB, a
  // multiple of the page size.
  static constexpr std::size_t kChunkSlots = (std::size_t{64} << 10) / sizeof(Slot);

  SlotArray slots_;
  std::size_t size_ = 0;
  RecordPool<T> pool_;
  // Every record in key order, once a KeysAfter call has asked for it.
  mutable std::optional<std::set<T*, KeyLess>> ordered_;
};

}  // namespace ofc

#endif  // OFC_COMMON_KEY_TABLE_H_
