// Collision-safe, concurrent dedup set for explored states.
//
// The explorer used to dedup states on a bare 64-bit FNV-1a fingerprint: a
// hash collision silently merged two distinct protocol states, and every
// temporal verdict downstream of the merged state could be wrong. SeenSet
// closes that hole by keying on the fingerprint but verifying the *full
// canonical byte encoding* on every insert — two states may share a
// fingerprint, and both are kept, each with its own index. The price is
// that canonical bytes are retained for the lifetime of the exploration
// (reported as `bytesRetained()`, the largest share of a run's memory).
//
// Layout: each shard copies the bytes of every new state into a chunked
// arena (kChunkBytes per chunk; a longer encoding gets a chunk of its own)
// and finds them again through an open-addressing index of {fingerprint,
// bytes, length, index} slots with linear probing. Chunks never move, so a
// slot's byte pointer stays valid as the index grows. A state costs its
// bytes plus one 24-byte slot at a load factor of 3/8 to 3/4, with no
// per-state allocation. The caller keeps ownership of the bytes it passes;
// insert copies them only when the state is new, and returns where the
// state's bytes live. That view stays valid, and its bytes unchanged, for
// the set's lifetime: the explorer's frontier is such views, read by any
// worker of a later BFS level.
//
// Concurrency: the table is lock-striped into shards addressed by
// fingerprint, so parallel BFS workers inserting unrelated states almost
// never contend. Index assignment is a single atomic counter bounded by
// `max_states`, which makes truncation exact: once the budget is spent no
// further index is ever handed out, by any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace cmc {

class SeenSet {
 public:
  // Returned as Outcome::index when the state budget is exhausted.
  static constexpr std::uint32_t kNoIndex = ~std::uint32_t{0};
  // Arena chunk size. Encodings longer than this get a chunk of their own.
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

  explicit SeenSet(std::uint32_t max_states, std::size_t shard_count = 64)
      : max_states_(max_states), shards_(shard_count) {}

  struct Outcome {
    std::uint32_t index = kNoIndex;  // index of the state; kNoIndex if out of budget
    bool inserted = false;           // this call claimed a fresh index
    bool collided = false;           // fingerprint already held different bytes
    // The set's own copy of the state's bytes; empty if out of budget.
    std::span<const std::uint8_t> bytes;
  };

  // Insert a state by (fingerprint, canonical bytes). If an entry with the
  // same fingerprint AND byte-identical encoding exists, returns its index
  // (a dedup hit). If the fingerprint exists but the bytes differ, that is
  // a genuine hash collision: the state is still inserted under its own
  // index and the collision counter advances.
  Outcome insert(std::uint64_t fingerprint, std::span<const std::uint8_t> bytes) {
    Shard& shard = shards_[fingerprint % shards_.size()];
    std::lock_guard<std::mutex> lock(shard.mu);
    if ((shard.used + 1) * 4 > shard.slots.size() * 3) shard.grow();
    const std::size_t mask = shard.slots.size() - 1;
    bool collided = false;
    std::size_t at = shard.home(fingerprint);
    for (;; at = (at + 1) & mask) {
      const Slot& slot = shard.slots[at];
      if (slot.index == kNoIndex) break;
      if (slot.fingerprint != fingerprint) continue;
      if (slot.holds(bytes)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return Outcome{slot.index, false, false, slot.view()};
      }
      collided = true;
    }
    std::uint32_t index = next_.load(std::memory_order_relaxed);
    do {
      if (index >= max_states_) return Outcome{kNoIndex, false, collided, {}};
    } while (!next_.compare_exchange_weak(index, index + 1,
                                          std::memory_order_relaxed));
    bytes_retained_.fetch_add(bytes.size(), std::memory_order_relaxed);
    if (collided) collisions_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = shard.slots[at];
    slot = Slot{fingerprint, shard.store(bytes),
                static_cast<std::uint32_t>(bytes.size()), index};
    ++shard.used;
    return Outcome{index, true, collided, slot.view()};
  }

  // Number of distinct states inserted so far.
  [[nodiscard]] std::uint32_t size() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  // Dedup hits: inserts that found a byte-identical existing state.
  [[nodiscard]] std::size_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  // States inserted whose fingerprint was already taken by different bytes.
  [[nodiscard]] std::size_t collisions() const noexcept {
    return collisions_.load(std::memory_order_relaxed);
  }
  // Total canonical bytes held for collision verification.
  [[nodiscard]] std::size_t bytesRetained() const noexcept {
    return bytes_retained_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::uint64_t fingerprint = 0;
    const std::uint8_t* bytes = nullptr;  // into the shard's arena
    std::uint32_t length = 0;
    std::uint32_t index = kNoIndex;  // kNoIndex marks an empty slot

    [[nodiscard]] std::span<const std::uint8_t> view() const noexcept {
      return {bytes, length};
    }
    [[nodiscard]] bool holds(std::span<const std::uint8_t> other) const noexcept {
      return length == other.size() &&
             (length == 0 || std::memcmp(bytes, other.data(), length) == 0);
    }
  };

  struct Shard {
    std::mutex mu;
    // Guarded by mu: the index (a power-of-two slot count, or empty before
    // the first insert) and the arena its slots point into.
    std::vector<Slot> slots;
    std::size_t used = 0;
    unsigned shift = 64;  // 64 - log2(slots.size())
    std::vector<std::unique_ptr<std::uint8_t[]>> chunks;
    std::uint8_t* cursor = nullptr;  // free bytes of the current chunk
    std::size_t left = 0;

    // Fibonacci hashing on the whole fingerprint: the low bits already
    // picked the shard, so they cannot pick the slot too.
    [[nodiscard]] std::size_t home(std::uint64_t fingerprint) const noexcept {
      return static_cast<std::size_t>((fingerprint * 0x9E3779B97F4A7C15ULL) >>
                                      shift);
    }

    void grow() {
      std::vector<Slot> old = std::move(slots);
      slots.assign(old.empty() ? 16 : old.size() * 2, Slot{});
      shift = old.empty() ? 64 - 4 : shift - 1;
      const std::size_t mask = slots.size() - 1;
      for (const Slot& slot : old) {
        if (slot.index == kNoIndex) continue;
        std::size_t at = home(slot.fingerprint);
        while (slots[at].index != kNoIndex) at = (at + 1) & mask;
        slots[at] = slot;
      }
    }

    // Copies `bytes` into the arena and returns where they now live.
    const std::uint8_t* store(std::span<const std::uint8_t> bytes) {
      if (bytes.empty()) return nullptr;
      if (bytes.size() > kChunkBytes) {
        chunks.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(bytes.size()));
        std::memcpy(chunks.back().get(), bytes.data(), bytes.size());
        return chunks.back().get();
      }
      if (left < bytes.size()) {
        chunks.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(kChunkBytes));
        cursor = chunks.back().get();
        left = kChunkBytes;
      }
      std::uint8_t* out = cursor;
      std::memcpy(out, bytes.data(), bytes.size());
      cursor += bytes.size();
      left -= bytes.size();
      return out;
    }
  };

  std::uint32_t max_states_;
  std::vector<Shard> shards_;
  std::atomic<std::uint32_t> next_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> collisions_{0};
  std::atomic<std::size_t> bytes_retained_{0};
};

}  // namespace cmc
