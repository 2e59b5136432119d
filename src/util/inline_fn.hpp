// Small-buffer move-only callable: std::function without the heap.
//
// Every event on the simulator's hot path used to be a std::function whose
// capture (box references, a Signal, a trace context) exceeds the ~16-byte
// small-buffer optimization of the standard library, so each scheduled
// event cost one heap allocation just to exist. InlineFn<N> stores captures
// up to N bytes directly inside the object; larger captures fall back to
// the heap (cold paths only — the event-loop capacity is sized so every
// simulator hot-path lambda fits inline; see DESIGN.md §4.5).
//
// Move-only (captures own Signals and contexts), invocable once or many
// times, empty-testable. Not a general std::function replacement: no copy,
// no target_type, void() signature only.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace cmc {

template <std::size_t Capacity>
class InlineFn {
 public:
  InlineFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): function-like
    construct(std::forward<F>(f));
  }

  InlineFn(InlineFn&& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(buf_, other.buf_);
        ops_ = other.ops_;
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  // Replace the callable with one built from `f` in place: no temporary
  // InlineFn and no relocation (the event loop builds handlers this way,
  // straight into their event nodes).
  template <typename F>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

 private:
  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= Capacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inlineOps<Fn>;
    } else {
      // Oversized capture: one heap allocation, same as std::function. The
      // buffer holds only the pointer.
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heapOps<Fn>;
    }
  }

  struct Ops {
    void (*invoke)(void*);
    // Move-construct into dst from src, then destroy src's object.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops inlineOps{
      [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); },
      [](void* dst, void* src) {
        Fn* s = std::launder(static_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); }};

  template <typename Fn>
  static constexpr Ops heapOps{
      [](void* p) { (**std::launder(static_cast<Fn**>(p)))(); },
      [](void* dst, void* src) {
        Fn** s = std::launder(static_cast<Fn**>(src));
        ::new (dst) Fn*(*s);
      },
      [](void* p) { delete *std::launder(static_cast<Fn**>(p)); }};

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Capacity];
};

}  // namespace cmc
