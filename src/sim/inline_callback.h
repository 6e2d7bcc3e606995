// InlineCallback: a move-only, type-erased `void()` callable with small-buffer
// storage, built for the event-loop hot path.
//
// std::function heap-allocates any callable whose captures exceed its ~16-byte
// small-object buffer — and simulator callbacks routinely capture a
// shared_ptr<Request> plus a couple of values, so at million-invocation scale
// the old event loop paid one malloc/free pair per scheduled event.
// InlineCallback widens the inline buffer to `kInlineBytes` and only falls back
// to the heap for larger or alignment-exotic callables. Combined with the event
// loop's slot slab (which recycles InlineCallback storage in place), scheduling
// an inline-sized callback allocates nothing.
//
// Semantics:
//   * move-only (the event loop never copies callbacks; dropping copyability
//     lets move-only captures like unique_ptr ride along for free);
//   * `operator()` requires an engaged callback (SIM_DCHECK'd);
//   * moved-from callbacks are empty and safely destroyable/reassignable.
#ifndef OFC_SIM_INLINE_CALLBACK_H_
#define OFC_SIM_INLINE_CALLBACK_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/sim_assert.h"

namespace ofc::sim {

class InlineCallback {
 public:
  // Fits the platform's invocation-phase continuations, which capture
  // (this, shared_ptr<Request>, crash epoch) in 32 bytes, with headroom;
  // callables beyond this go to the heap transparently, so growing a capture
  // is a perf regression, not a build break.
  static constexpr std::size_t kInlineBytes = 56;

  InlineCallback() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function.
  InlineCallback(F&& f) {
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

  InlineCallback(InlineCallback&& other) noexcept { MoveFrom(std::move(other)); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    SIM_DCHECK(ops_ != nullptr) << "; invoking an empty InlineCallback";
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void* s);
    // Move-construct `from`'s callable into `to`, then destroy `from`'s.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* s) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
      [](void* from, void* to) noexcept {
        D* src = std::launder(reinterpret_cast<D*>(from));
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**std::launder(reinterpret_cast<D**>(s)))(); },
      [](void* from, void* to) noexcept {
        // Relocating a heap-backed callable just moves the owning pointer.
        ::new (to) D*(*std::launder(reinterpret_cast<D**>(from)));
      },
      [](void* s) noexcept {
        std::unique_ptr<D> owned(*std::launder(reinterpret_cast<D**>(s)));
      },
  };

  void MoveFrom(InlineCallback&& other) noexcept {
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

}  // namespace ofc::sim

#endif  // OFC_SIM_INLINE_CALLBACK_H_
