// Descriptors and selectors (paper Section VI-B).
//
// A *descriptor* is a record in which an endpoint describes itself as a
// receiver of media: IP address, port, and a priority-ordered list of codecs
// it can handle. If the endpoint does not wish to receive media (muteIn),
// the only offered codec is noMedia.
//
// A *selector* is a record in which an endpoint declares its intention to
// send to the endpoint described by a descriptor: the id of the descriptor
// it answers, the sender's IP address and port, and the single codec it will
// use (noMedia if muteOut, or if answering a noMedia descriptor).
//
// Descriptors are *unilateral*: they describe one endpoint independent of
// any other, which is what lets boxes cache and re-use them (Section IX-B).
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>

#include "codec/codec.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace cmc {

// IPv4 address + UDP port of a media receiver or sender.
struct MediaAddress {
  std::uint32_t ip = 0;
  std::uint16_t port = 0;

  friend auto operator<=>(const MediaAddress&, const MediaAddress&) = default;

  [[nodiscard]] std::string toString() const;
  [[nodiscard]] static MediaAddress parse(std::string_view dotted, std::uint16_t port);
};

std::ostream& operator<<(std::ostream& os, const MediaAddress& addr);

// A codec list as the encodings carry it: a u16 count, then each codec as
// a u16.
void serializeCodecs(std::span<const Codec> codecs, ByteWriter& w);
// Replaces `into` with a list serializeCodecs wrote. Stops at the first
// read past the end (the reader then reports !ok()), so a count the bytes
// cannot hold allocates no more than they could.
void deserializeCodecs(ByteReader& r, CodecList& into);

struct Descriptor {
  DescriptorId id;    // globally unique; selectors answer by this id
  MediaAddress addr;  // where to send media for this receiver
  CodecList codecs;   // priority order, best first; {noMedia} if muted

  [[nodiscard]] bool isNoMedia() const noexcept {
    return codecs.size() == 1 && codecs.front() == Codec::noMedia;
  }

  // A descriptor is well formed if it offers at least one codec and noMedia
  // appears only alone.
  [[nodiscard]] bool wellFormed() const noexcept;

  friend bool operator==(const Descriptor&, const Descriptor&) = default;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static Descriptor deserialize(ByteReader& r);
};

std::ostream& operator<<(std::ostream& os, const Descriptor& d);

struct Selector {
  DescriptorId answersDescriptor;  // which descriptor this selector responds to
  MediaAddress sender;             // the sender's own media address
  Codec codec = Codec::noMedia;    // the single codec the sender will use

  [[nodiscard]] bool isNoMedia() const noexcept { return codec == Codec::noMedia; }

  friend bool operator==(const Selector&, const Selector&) = default;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static Selector deserialize(ByteReader& r);
};

std::ostream& operator<<(std::ostream& os, const Selector& s);

// The unilateral codec-choice rule (Section VI-B): the sender chooses the
// highest-priority codec in the receiver's descriptor that it is able
// (`sendable`) and willing (`!muteOut`) to send. The only legal response to
// a noMedia descriptor is a noMedia selector. Returns the chosen codec;
// noMedia also results when there is no common codec (the paper assumes one
// exists, but the implementation must degrade gracefully).
[[nodiscard]] Codec chooseCodec(const Descriptor& received,
                                std::span<const Codec> sendable,
                                bool muteOut) noexcept;

// Build a selector answering `received`, sent from `sender`.
[[nodiscard]] Selector makeSelector(const Descriptor& received,
                                    const MediaAddress& sender,
                                    std::span<const Codec> sendable,
                                    bool muteOut) noexcept;

// Build a receiver descriptor: offers `receivable` unless muteIn, in which
// case the single offered codec is noMedia.
[[nodiscard]] Descriptor makeDescriptor(DescriptorId id,
                                        const MediaAddress& addr,
                                        std::span<const Codec> receivable,
                                        bool muteIn);

}  // namespace cmc
