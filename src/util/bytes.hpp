// Byte-oriented serialization used by the wire format (src/net) and by the
// model checker's state canonicalization (src/mc).
//
// Encoding is little-endian, fixed width for integers, and length-prefixed
// for strings and sequences. It is intentionally simple: both ends of a
// signaling channel run this library, so no cross-version negotiation is
// needed.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cmc {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    std::uint8_t* at = extend(s.size());
    if (!s.empty()) std::memcpy(at, s.data(), s.size());
  }

  // The bytes written so far; the view is invalidated by the next write.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {buf_.data(), size_};
  }
  [[nodiscard]] std::vector<std::uint8_t> take() {
    std::vector<std::uint8_t> out = std::move(buf_);
    out.resize(size_);
    buf_.clear();
    size_ = 0;
    return out;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  // Empties the buffer but keeps its storage, so a writer reused for one
  // encoding after another stops allocating once it has grown.
  void clear() noexcept { size_ = 0; }

 private:
  // Claims the next n bytes of storage and returns where they start. The
  // storage is a vector kept longer than the encoding (size_ marks the
  // end), so a write is a bounds check and a copy, with no per-byte
  // push_back; only growth leaves the inline path.
  std::uint8_t* extend(std::size_t n) {
    if (buf_.size() - size_ < n) [[unlikely]] {
      buf_.resize(std::max(2 * buf_.size(), size_ + n));
    }
    std::uint8_t* at = buf_.data() + size_;
    size_ += n;
    return at;
  }

  // On a little-endian host an integer's object bytes already are its
  // encoding, so it goes in as one fixed-size copy.
  template <typename T>
  void put(T v) {
    std::uint8_t* at = extend(sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(at, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        at[i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
  }

  std::vector<std::uint8_t> buf_;  // bytes past size_ are spare storage
  std::size_t size_ = 0;
};

// Reader over a borrowed byte span. All reads are checked: running off the
// end marks the reader bad and subsequent reads return zero values, so a
// malformed frame cannot cause out-of-bounds access. Callers check ok()
// once after decoding a whole message.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  explicit ByteReader(std::span<const std::uint8_t> bytes) noexcept
      : ByteReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint8_t u8() noexcept {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }

  [[nodiscard]] std::uint16_t u16() noexcept { return get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() noexcept { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() noexcept { return get<std::uint64_t>(); }

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

  // The mirror of ByteWriter::put: on a little-endian host the encoding is
  // the integer's object bytes, read as one fixed-size copy.
  template <typename T>
  [[nodiscard]] T get() noexcept {
    if (!ensure(sizeof(T))) return 0;
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_ + pos_, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
      }
    }
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// FNV-1a over a byte range, one byte per step. It is the wire format's
// frame checksum (net/framing.hpp) and a digest in tests; explorer states
// are hashed with stateHash below.
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

[[nodiscard]] inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                         std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept {
  return fnv1a(bytes.data(), bytes.size(), seed);
}

// The model checker's state hash: the fingerprint of a canonical state
// encoding (PathSystem::fingerprint, the explorer's seen set). It consumes
// 16 bytes per step, each step one folded multiply of the two little-endian
// words chained through the running value; the last step reads the final
// 16 bytes (which may overlap the previous step) or, for inputs under 16
// bytes, the zero-padded input. The length seeds the chain, so zero padding
// cannot alias a longer input, and a SplitMix64 finalizer gives full
// avalanche. Values depend only on the bytes, not on the host's byte order.
// Not cryptographic: the seen set verifies bytes on every fingerprint match.
[[nodiscard]] inline std::uint64_t stateHash(std::span<const std::uint8_t> bytes) noexcept {
  constexpr std::uint64_t k0 = 0x9E3779B97F4A7C15ULL;
  constexpr std::uint64_t k1 = 0xBF58476D1CE4E5B9ULL;
  constexpr std::uint64_t k2 = 0x94D049BB133111EBULL;
  auto load = [](const std::uint8_t* at) {
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, at, sizeof v);
    } else {
      for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(at[i]) << (8 * i);
    }
    return v;
  };
  const std::uint8_t* p = bytes.data();
  const std::size_t size = bytes.size();
  std::uint64_t h = k0 ^ (size * k1);
  // The 128-bit product's high half folds onto its low half, so every bit
  // of both words reaches the running value in one multiply.
  auto step = [&h, load](const std::uint8_t* at) {
    const unsigned __int128 product =
        static_cast<unsigned __int128>(load(at) ^ h ^ k1) * (load(at + 8) ^ k2);
    h = static_cast<std::uint64_t>(product) ^ static_cast<std::uint64_t>(product >> 64);
  };
  if (size >= 16) {
    for (std::size_t i = 0; i + 16 < size; i += 16) step(p + i);
    step(p + size - 16);
  } else {
    std::uint8_t tail[16] = {};
    if (size > 0) std::memcpy(tail, p, size);
    step(tail);
  }
  h ^= h >> 30;
  h *= k1;
  h ^= h >> 27;
  h *= k2;
  h ^= h >> 31;
  return h;
}

}  // namespace cmc
