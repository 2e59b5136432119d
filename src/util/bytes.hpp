// Byte-oriented serialization used by the wire format (src/net) and by the
// model checker's state canonicalization (src/mc).
//
// Encoding is little-endian, fixed width for integers, and length-prefixed
// for strings and sequences. It is intentionally simple: both ends of a
// signaling channel run this library, so no cross-version negotiation is
// needed.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cmc {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  // Empties the buffer but keeps its capacity, so a writer reused for one
  // encoding after another stops allocating once it has grown.
  void clear() noexcept { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Reader over a borrowed byte span. All reads are checked: running off the
// end marks the reader bad and subsequent reads return zero values, so a
// malformed frame cannot cause out-of-bounds access. Callers check ok()
// once after decoding a whole message.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  explicit ByteReader(const std::vector<std::uint8_t>& v) noexcept
      : ByteReader(v.data(), v.size()) {}

  [[nodiscard]] std::uint8_t u8() noexcept {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }

  [[nodiscard]] std::uint16_t u16() noexcept {
    if (!ensure(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }

  [[nodiscard]] std::uint32_t u32() noexcept {
    if (!ensure(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() noexcept {
    if (!ensure(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] bool boolean() noexcept { return u8() != 0; }

  [[nodiscard]] std::string str() noexcept {
    const std::uint32_t len = u32();
    if (!ensure(len)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool atEnd() const noexcept { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  [[nodiscard]] bool ensure(std::size_t n) noexcept {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// FNV-1a over a byte range; used for state fingerprinting in the model
// checker where we need a stable, fast, order-sensitive hash.
[[nodiscard]] constexpr std::uint64_t fnv1a(const std::uint8_t* data,
                                            std::size_t size,
                                            std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(const std::vector<std::uint8_t>& v,
                                         std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept {
  return fnv1a(v.data(), v.size(), seed);
}

}  // namespace cmc
