// Hash-consed descriptors: one copy per distinct descriptor per process.
//
// Descriptors travel in every Open/Oack/Describe signal and get cached by
// every endpoint and flowlink that sees them. Before interning, each cache
// refresh cloned the codec vector; after interning, a cached descriptor is
// one pointer into the process-wide DescriptorTable and copying it is free.
//
// The table is append-only for the life of the process: entries are never
// evicted, so an InternedDescriptor handle is valid forever and two handles
// are equal iff their pointers are equal (hash-consing invariant). Distinct
// descriptors are bounded by distinct DescriptorIds actually observed, so
// growth is linear in calls set up, ~100 bytes each (DESIGN.md §4.5).
//
// InternedDescriptor deliberately mimics std::optional<const Descriptor>:
// has_value / operator bool / operator* / operator-> / reset, plus an
// interning operator=(const Descriptor&). Code that held a
// std::optional<Descriptor> cache compiles unchanged against it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "codec/descriptor.hpp"

namespace cmc {

class DescriptorTable;

class InternedDescriptor {
 public:
  InternedDescriptor() noexcept = default;

  // Interns into the process-global table.
  InternedDescriptor& operator=(const Descriptor& d);

  [[nodiscard]] bool has_value() const noexcept { return entry_ != nullptr; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return entry_ != nullptr;
  }
  [[nodiscard]] const Descriptor& operator*() const noexcept;
  [[nodiscard]] const Descriptor* operator->() const noexcept;
  void reset() noexcept { entry_ = nullptr; }

  // Cached structural hash of the descriptor (undefined when empty).
  [[nodiscard]] std::uint64_t hash() const noexcept;

  // Hash-consing invariant: equal descriptors intern to the same entry, so
  // handle equality is pointer equality.
  friend bool operator==(const InternedDescriptor&,
                         const InternedDescriptor&) noexcept = default;

 private:
  friend class DescriptorTable;
  struct Entry;
  explicit InternedDescriptor(const Entry* e) noexcept : entry_(e) {}

  const Entry* entry_ = nullptr;
};

class DescriptorTable {
 public:
  [[nodiscard]] static DescriptorTable& instance();

  // Returns the canonical handle for `d`, inserting it on first sight.
  // Thread-safe; lock is per-shard, and a hit performs no allocation.
  [[nodiscard]] InternedDescriptor intern(const Descriptor& d);

  // Number of distinct descriptors interned so far (tests, diagnostics).
  [[nodiscard]] std::size_t size() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  // Structural hash used for consing; exposed so tests can cross-check the
  // cached per-handle hash.
  [[nodiscard]] static std::uint64_t hashOf(const Descriptor& d) noexcept;

  DescriptorTable(const DescriptorTable&) = delete;
  DescriptorTable& operator=(const DescriptorTable&) = delete;

 private:
  DescriptorTable() = default;

  static constexpr std::size_t kShards = 8;
  struct Shard {
    std::mutex mu;
    // hash -> entries with that hash (collision chain scanned by equality).
    std::unordered_map<std::uint64_t,
                       std::vector<std::unique_ptr<InternedDescriptor::Entry>>>
        buckets;
  };

  Shard shards_[kShards];
  std::atomic<std::size_t> count_{0};
};

struct InternedDescriptor::Entry {
  Descriptor desc;
  std::uint64_t hash = 0;
};

inline const Descriptor& InternedDescriptor::operator*() const noexcept {
  return entry_->desc;
}
inline const Descriptor* InternedDescriptor::operator->() const noexcept {
  return &entry_->desc;
}
inline std::uint64_t InternedDescriptor::hash() const noexcept {
  return entry_->hash;
}

}  // namespace cmc
