// RecordPool: recycled records for operations in flight.
//
// A component that defers work onto the event loop keeps the operation's
// state (its key, arguments and completion) in a record and hands the loop a
// closure that captures only the record's address, which fits any inline
// buffer. Records live in a deque, so their addresses never move, and a
// released record goes back on an idle list for the next operation. The pool
// therefore holds as many records as were ever in flight at once, and a
// record's strings keep their capacity: copying the next operation's key into
// it allocates nothing once the pool is warm.
//
// KeyTable keeps stored objects in a pool the same way, so a new object takes
// the record, and the key capacity, of one erased before it.
//
// Acquire() hands out a record as its last user left it. The caller sets
// every field it reads, and releases the record once it has moved out what it
// still needs (a completion, typically, so that a completion which starts the
// next operation reuses the record just released).
#ifndef OFC_COMMON_RECORD_POOL_H_
#define OFC_COMMON_RECORD_POOL_H_

#include <cstddef>
#include <deque>
#include <vector>

namespace ofc {

template <typename T>
class RecordPool {
 public:
  RecordPool() = default;
  // Closures on the event loop hold record addresses.
  RecordPool(const RecordPool&) = delete;
  RecordPool& operator=(const RecordPool&) = delete;

  T* Acquire() {
    if (idle_.empty()) {
      return &records_.emplace_back();
    }
    T* record = idle_.back();
    idle_.pop_back();
    return record;
  }

  void Release(T* record) { idle_.push_back(record); }

  // Records ever made: the most operations that were in flight at once.
  std::size_t size() const { return records_.size(); }

 private:
  std::deque<T> records_;
  std::vector<T*> idle_;
};

}  // namespace ofc

#endif  // OFC_COMMON_RECORD_POOL_H_
