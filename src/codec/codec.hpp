// Media and codec model (paper Sections III-B and VI-A).
//
// A *medium* is the kind of content a media channel carries (audio, video,
// text, data). A *codec* is a data format for a medium, e.g. G.711 is a
// higher-fidelity, higher-bandwidth audio codec and G.726 a lower one.
// `Codec::noMedia` is the distinguished pseudo-codec indicating no media
// transmission; it is how muting is expressed in descriptors and selectors.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string_view>

#include "util/small_vec.hpp"

namespace cmc {

enum class Medium : std::uint8_t {
  audio = 0,
  video = 1,
  text = 2,
  data = 3,
};

[[nodiscard]] std::string_view toString(Medium medium) noexcept;
std::ostream& operator<<(std::ostream& os, Medium medium);

// Well-known codecs. The numeric values are the wire encoding, so they are
// stable. noMedia is deliberately 0.
enum class Codec : std::uint16_t {
  noMedia = 0,
  // Audio, in roughly descending fidelity.
  l16 = 1,      // 16-bit linear PCM
  g711u = 2,    // PCM mu-law, toll quality
  g711a = 3,    // PCM A-law, toll quality
  g722 = 4,     // wideband
  g726 = 5,     // ADPCM, lower fidelity / bandwidth
  g729 = 6,     // low bandwidth
  gsmFr = 7,    // GSM full rate
  // Video.
  mpeg2 = 20,
  h263 = 21,
  h261 = 22,
  mjpeg = 23,
  // Text / data.
  t140 = 40,    // real-time text
  rawData = 41,
};

struct CodecInfo {
  Codec codec;
  Medium medium;
  std::string_view name;
  std::uint32_t bandwidth_kbps;  // nominal stream bandwidth
  std::uint8_t fidelity;         // relative rank within a medium; higher is better
};

// Static registry of codec metadata.
//
// info(Codec::noMedia) is valid but has no meaningful medium; callers should
// branch on isNoMedia() first.
[[nodiscard]] const CodecInfo& info(Codec codec) noexcept;
[[nodiscard]] std::optional<Codec> codecFromName(std::string_view name) noexcept;
[[nodiscard]] std::span<const CodecInfo> allCodecs() noexcept;

[[nodiscard]] constexpr bool isNoMedia(Codec codec) noexcept {
  return codec == Codec::noMedia;
}

// True if `codec` is a real codec of the given medium.
[[nodiscard]] bool codecMatchesMedium(Codec codec, Medium medium) noexcept;

std::ostream& operator<<(std::ostream& os, Codec codec);

// A codec list as carried by descriptors and media intents: priority order,
// best first. Lists are 1-3 entries in practice, so they live inline (no
// heap) up to 4; the signal hot path copies these on every hop (see
// DESIGN.md §4.5).
using CodecList = SmallVec<Codec, 4>;

// All real codecs of a medium, best fidelity first. Useful default
// capability set for endpoints. The returned span aliases a static table
// built once per process; the order is stable across calls.
[[nodiscard]] std::span<const Codec> codecsFor(Medium medium);

}  // namespace cmc
