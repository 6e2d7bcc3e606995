// RecyclingPool: a free-list allocator for allocate_shared'd request records.
//
// The platform's invocation hot path used to pay one make_shared control-block
// allocation per request (plus one free at completion). At million-invocation
// scale that is two allocator round-trips per event chain for an object whose
// size never changes. RecyclingPool keeps freed control blocks (object +
// refcounts, one combined allocation) on a free list and hands them back to
// the next Make() call, so steady-state request turnover allocates nothing.
//
// Lifetime: the free list lives in shared state referenced both by the pool
// and by every outstanding allocation's embedded allocator copy. Blocks freed
// after the pool owner is destroyed (e.g. an EventLoop callback dropping the
// last shared_ptr<Request> during teardown, after the Platform is gone) land
// on the still-alive state and are released by its destructor — no
// use-after-free, no leak, regardless of destruction order.
//
// The pool only recycles the single block size allocate_shared asks for
// (n == 1 of the rebound control-block type). Anything else — array
// allocations, a second rebound type, over-aligned types — falls through to
// plain operator new/delete.
#ifndef OFC_COMMON_RECYCLING_POOL_H_
#define OFC_COMMON_RECYCLING_POOL_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace ofc {

template <typename T>
class RecyclingPool {
 public:
  // Blocks kept on the free list; beyond this, frees go straight to the heap.
  // Bounds pool memory to (peak in-flight) without tracking it explicitly.
  static constexpr std::size_t kMaxFreeBlocks = 65536;

  RecyclingPool() : state_(std::make_shared<State>()) {}

  // Constructs a pool-backed shared_ptr<T>; reuses a freed block when one fits.
  template <typename... Args>
  std::shared_ptr<T> Make(Args&&... args) {
    return std::allocate_shared<T>(Alloc<T>{state_}, std::forward<Args>(args)...);
  }

 private:
  struct State {
    std::vector<void*> free_list;
    std::size_t block_bytes = 0;  // Fixed on first n==1 allocation.
    ~State() {
      for (void* block : free_list) {
        ::operator delete(block);
      }
    }
  };

  template <typename U>
  struct Alloc {
    using value_type = U;

    std::shared_ptr<State> state;

    explicit Alloc(std::shared_ptr<State> s) : state(std::move(s)) {}
    template <typename V>
    // NOLINTNEXTLINE(google-explicit-constructor): rebind conversion.
    Alloc(const Alloc<V>& other) : state(other.state) {}

    // simlint: allow(unreferenced-api) -- std::allocator_traits calls it for allocate_shared
    U* allocate(std::size_t n) {
      if constexpr (alignof(U) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
        // Over-aligned: bypass the pool (free-list blocks use default
        // alignment and the matching plain operator delete).
        return static_cast<U*>(::operator new(n * sizeof(U), std::align_val_t{alignof(U)}));
      } else {
        const std::size_t bytes = n * sizeof(U);
        if (n == 1) {
          if (state->block_bytes == 0) {
            state->block_bytes = bytes;
          }
          if (bytes == state->block_bytes && !state->free_list.empty()) {
            void* block = state->free_list.back();
            state->free_list.pop_back();
            return static_cast<U*>(block);
          }
        }
        return static_cast<U*>(::operator new(bytes));
      }
    }

    // simlint: allow(unreferenced-api) -- std::allocator_traits calls it for allocate_shared
    void deallocate(U* p, std::size_t n) noexcept {
      if constexpr (alignof(U) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
        ::operator delete(p, std::align_val_t{alignof(U)});
      } else {
        const std::size_t bytes = n * sizeof(U);
        if (n == 1 && bytes == state->block_bytes &&
            state->free_list.size() < kMaxFreeBlocks) {
          state->free_list.push_back(p);
          return;
        }
        ::operator delete(p);
      }
    }

    template <typename V>
    friend bool operator==(const Alloc& a, const Alloc<V>& b) {
      return a.state == b.state;
    }
    template <typename V>
    friend bool operator!=(const Alloc& a, const Alloc<V>& b) {
      return a.state != b.state;
    }
  };

  std::shared_ptr<State> state_;
};

}  // namespace ofc

#endif  // OFC_COMMON_RECYCLING_POOL_H_
