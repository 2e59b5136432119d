// BoxNameIndex: the simulator's name -> BoxId index, for the callers that
// address boxes by name (apps, tests, fault plans' crash events).
//
// Open addressing with linear probing over 8-byte (hash tag, id) slots.
// A slot holds no string: a candidate whose tag matches is confirmed by
// reading its box's own name through the caller's `name_of`, so indexing a
// box allocates nothing but, now and then, a larger table. An erased slot
// becomes a tombstone (or empty, when the slot after it is empty and so no
// probe chain runs past it), and the table is rebuilt when live plus
// tombstoned slots pass half its size.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/ids.hpp"

namespace cmc {

class BoxNameIndex {
 public:
  // The live box named `name`, or an invalid id. `name_of(id)` returns the
  // name of indexed box `id`.
  template <typename NameOf>
  [[nodiscard]] BoxId find(std::string_view name, const NameOf& name_of) const {
    if (slots_.empty()) return BoxId{};
    const std::uint32_t tag = tagOf(name);
    for (std::size_t at = tag & mask();; at = (at + 1) & mask()) {
      const Slot s = slots_[at];
      if (s.id == kEmpty) return BoxId{};
      if (s.id != kTombstone && s.tag == tag && name_of(BoxId{s.id}) == name) {
        return BoxId{s.id};
      }
    }
  }

  // Index box `id` under `name`, which must not name a live box (callers
  // check with find first).
  void insert(std::string_view name, BoxId id) {
    if (id.value() >= kTombstone) throw std::length_error("box ids exhausted");
    if ((used_ + 1) * 2 > slots_.size()) rebuild();
    const std::uint32_t tag = tagOf(name);
    std::size_t at = tag & mask();
    while (slots_[at].id != kEmpty && slots_[at].id != kTombstone) {
      at = (at + 1) & mask();
    }
    if (slots_[at].id == kEmpty) ++used_;
    slots_[at] = Slot{tag, static_cast<std::uint32_t>(id.value())};
    ++live_;
  }

  // Forget box `id`, indexed under `name`.
  void erase(std::string_view name, BoxId id) {
    std::size_t at = tagOf(name) & mask();
    while (slots_[at].id != id.value()) at = (at + 1) & mask();
    if (slots_[(at + 1) & mask()].id == kEmpty) {
      slots_[at].id = kEmpty;
      --used_;
    } else {
      slots_[at].id = kTombstone;
    }
    --live_;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0;  // box ids start at 1
  static constexpr std::uint32_t kTombstone = ~std::uint32_t{0};
  struct Slot {
    std::uint32_t tag;  // the name's hash; its low bits pick the home slot
    std::uint32_t id;   // kEmpty, kTombstone or a live box's id
  };

  [[nodiscard]] static std::uint32_t tagOf(std::string_view name) noexcept {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
  }
  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }

  // Re-place the live slots (their tags suffice) in a table at most a
  // quarter full, dropping the tombstones.
  void rebuild() {
    std::size_t size = 16;
    while (size < 4 * (live_ + 1)) size *= 2;
    std::vector<Slot> old(size, Slot{0, kEmpty});
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.id == kEmpty || s.id == kTombstone) continue;
      std::size_t at = s.tag & mask();
      while (slots_[at].id != kEmpty) at = (at + 1) & mask();
      slots_[at] = s;
    }
    used_ = live_;
  }

  std::vector<Slot> slots_;  // power-of-two size, or empty
  std::size_t used_ = 0;     // live plus tombstoned slots
  std::size_t live_ = 0;
};

}  // namespace cmc
