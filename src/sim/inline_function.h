// InlineFunction<R(Args...)>: a move-only, type-erased callable with
// small-buffer storage: the one completion type of the event loop and of the
// data path (RSDS, cache cluster, proxy, cache agent).
//
// std::function heap-allocates any callable whose captures exceed its 16-byte
// local buffer, and simulator callbacks routinely capture a pointer plus a
// few values, so at million-invocation scale a std::function completion paid
// one malloc/free pair per operation. InlineFunction widens the inline buffer
// to `kInlineBytes` and only falls back to the heap for larger or
// alignment-exotic callables. Combined with the event loop's slot slab (which
// recycles InlineCallback storage in place), scheduling an inline-sized
// callback allocates nothing.
//
// An InlineFunction is 64 bytes, so one cannot ride inside another's buffer:
// a closure that captures a completion (or anything else past 56 bytes) lands
// on the heap. Components that defer a completion therefore park it, with the
// operation's key and arguments, in a pooled record (common/record_pool.h) and
// capture only the record's address.
//
// Semantics:
//   * move-only (the event loop never copies callbacks; dropping copyability
//     lets move-only captures like unique_ptr ride along for free);
//   * `operator()` requires an engaged function (SIM_DCHECK'd), and may be
//     called any number of times;
//   * moved-from functions are empty and safely destroyable/reassignable.
#ifndef OFC_SIM_INLINE_FUNCTION_H_
#define OFC_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/sim_assert.h"

namespace ofc::sim {

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  // Fits the platform's invocation-phase continuations, which capture
  // (this, shared_ptr<Request>, crash epoch) in 32 bytes, with headroom;
  // callables beyond this go to the heap transparently, so growing a capture
  // is a perf regression, not a build break.
  static constexpr std::size_t kInlineBytes = 56;

  InlineFunction() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function.
  InlineFunction(F&& f) {
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      auto owned = std::make_unique<D>(std::forward<F>(f));
      ::new (static_cast<void*>(storage_)) D*(owned.release());
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(std::move(other)); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    SIM_DCHECK(ops_ != nullptr) << "; invoking an empty InlineFunction";
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* s, Args&&... args);
    // Move-construct `from`'s callable into `to`, then destroy `from`'s.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* s) noexcept;
  };

  template <typename D>
  static R Invoke(D& callable, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      // Discards what the callable returns, as std::function<void(...)> does.
      static_cast<void>(std::invoke(callable, std::forward<Args>(args)...));
    } else {
      return std::invoke(callable, std::forward<Args>(args)...);
    }
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s, Args&&... args) -> R {
        return Invoke(*std::launder(reinterpret_cast<D*>(s)), std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        D* src = std::launder(reinterpret_cast<D*>(from));
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s, Args&&... args) -> R {
        return Invoke(**std::launder(reinterpret_cast<D**>(s)), std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        // Relocating a heap-backed callable just moves the owning pointer.
        ::new (to) D*(*std::launder(reinterpret_cast<D**>(from)));
      },
      [](void* s) noexcept {
        std::unique_ptr<D> owned(*std::launder(reinterpret_cast<D**>(s)));
      },
  };

  void MoveFrom(InlineFunction&& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// The event loop's callback type.
using InlineCallback = InlineFunction<void()>;

}  // namespace ofc::sim

#endif  // OFC_SIM_INLINE_FUNCTION_H_
