// Small-buffer vector: inline storage for the common case, heap spill for
// the rest.
//
// The signal hot path copies descriptors on every hop, and a descriptor's
// codec list is 1-3 entries in practice (docs/DESIGN.md §4.5). With
// std::vector each copy is a heap allocation; with SmallVec the list lives
// inside the object and a copy is a memcpy-sized move of inline bytes. The
// interface is the std::vector subset the codebase actually uses — this is
// a hot-path container, not a general re-implementation.
//
// Growth discipline: once the size exceeds the inline capacity N the
// elements spill to the heap and stay there (capacity never shrinks back
// inline except through assignment from a small source, swap, or move).
// Self-assignment is safe; moved-from objects are valid and empty.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <utility>

namespace cmc {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N > 0, "inline capacity must be positive");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept : data_(inlineData()), size_(0), capacity_(N) {}

  SmallVec(std::initializer_list<T> init) : SmallVec() {
    assign(init.begin(), init.end());
  }

  template <typename It>
  SmallVec(It first, It last) : SmallVec() {
    assign(first, last);
  }

  SmallVec(const SmallVec& other) : SmallVec() {
    assign(other.begin(), other.end());
  }

  SmallVec(SmallVec&& other) noexcept : SmallVec() { stealFrom(other); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      destroyAll();
      stealFrom(other);
    }
    return *this;
  }

  SmallVec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  ~SmallVec() { destroyAll(); }

  template <typename It>
  void assign(It first, It last) {
    // Self-assignment from our own range: buffer through a temporary.
    const auto* f = std::to_address(first);
    if (f != nullptr && f >= data_ && f < data_ + size_) {
      SmallVec tmp(first, last);
      *this = std::move(tmp);
      return;
    }
    clear();
    for (; first != last; ++first) push_back(*first);
  }

  void assign(std::initializer_list<T> init) { assign(init.begin(), init.end()); }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow(capacity_ * 2);
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() noexcept {
    --size_;
    data_[size_].~T();
  }

  // Inserts `v` before `pos`, shifting the tail up one place.
  iterator insert(const_iterator pos, T v) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    emplace_back(std::move(v));
    std::rotate(data_ + at, end() - 1, end());
    return data_ + at;
  }

  // Removes the element at `pos`, shifting the tail down one place.
  iterator erase(const_iterator pos) {
    T* at = data_ + (pos - data_);
    std::move(at + 1, end(), at);
    pop_back();
    return at;
  }

  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  // True while the elements still live in the inline buffer (tests).
  [[nodiscard]] bool isInline() const noexcept { return data_ == inlineData(); }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] T& front() noexcept { return data_[0]; }
  [[nodiscard]] const T& front() const noexcept { return data_[0]; }
  [[nodiscard]] T& back() noexcept { return data_[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data_[size_ - 1]; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  [[nodiscard]] T* inlineData() noexcept {
    return std::launder(reinterpret_cast<T*>(inline_));
  }
  [[nodiscard]] const T* inlineData() const noexcept {
    return std::launder(reinterpret_cast<const T*>(inline_));
  }

  void grow(std::size_t want) {
    const std::size_t new_cap = want < 2 * N ? 2 * N : want;
    T* heap = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(heap + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (!isInline()) ::operator delete(data_);
    data_ = heap;
    capacity_ = new_cap;
  }

  // Move other's contents in; leaves other valid and empty. Precondition:
  // *this is empty (freshly constructed or destroyAll'ed).
  void stealFrom(SmallVec& other) noexcept {
    if (other.isInline()) {
      data_ = inlineData();
      capacity_ = N;
      for (std::size_t i = 0; i < other.size_; ++i) {
        ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
        other.data_[i].~T();
      }
      size_ = other.size_;
      other.size_ = 0;
    } else {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.inlineData();
      other.size_ = 0;
      other.capacity_ = N;
    }
  }

  void destroyAll() noexcept {
    clear();
    if (!isInline()) ::operator delete(data_);
  }

  T* data_;
  std::uint32_t size_;
  std::uint32_t capacity_;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace cmc
