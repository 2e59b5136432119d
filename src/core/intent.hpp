// Media intent: what the owner of a slot is, as a media receiver/sender.
//
// A goal object in a *media endpoint* uses the endpoint's real address and
// codec capabilities, and the user's mute choices. A goal object in an
// *application server* is masquerading as a media endpoint but is not one:
// it can neither send nor receive media packets fruitfully, so when it opens
// or accepts a channel it mutes media flow in both directions (paper
// Section IV-A). MediaIntent::server() captures that case.
#pragma once

#include <cstdint>

#include "codec/descriptor.hpp"
#include "util/ids.hpp"

namespace cmc {

// Allocates globally unique descriptor ids. Each endpoint (or server goal)
// owns a factory seeded with a distinct namespace so ids never collide.
// Pure value type: the model checker snapshots it with the rest of the state.
class DescriptorFactory {
 public:
  DescriptorFactory() = default;
  explicit DescriptorFactory(std::uint64_t space) noexcept
      : next_((space + 1) << 20) {}

  [[nodiscard]] DescriptorId fresh() noexcept { return DescriptorId{next_++}; }
  // The id fresh() hands out next.
  [[nodiscard]] DescriptorId peek() const noexcept { return DescriptorId{next_}; }

  void canonicalize(ByteWriter& w) const { w.u64(next_); }
  void decode(ByteReader& r) noexcept { next_ = r.u64(); }

 private:
  std::uint64_t next_ = 1;
};

struct MediaIntent {
  MediaAddress addr;              // where this party receives media
  CodecList receivable;  // priority order, best first
  CodecList sendable;
  bool muteIn = false;   // user wishes inward flow suspended
  bool muteOut = false;  // user wishes outward flow suspended

  // Intent of a slot inside an application server: no real media endpoint,
  // both directions muted.
  [[nodiscard]] static MediaIntent server() {
    MediaIntent intent;
    intent.muteIn = true;
    intent.muteOut = true;
    return intent;
  }

  // Intent of a media endpoint with symmetric codec capability.
  [[nodiscard]] static MediaIntent endpoint(MediaAddress addr,
                                            CodecList codecs) {
    MediaIntent intent;
    intent.addr = addr;
    intent.receivable = codecs;
    intent.sendable = std::move(codecs);
    return intent;
  }

  // Self-description as a receiver: offers `receivable` unless muteIn, in
  // which case the single offered codec is noMedia.
  [[nodiscard]] Descriptor describeSelf(DescriptorFactory& ids) const {
    return makeDescriptor(ids.fresh(), addr, receivable, muteIn);
  }

  // Answer to a received descriptor: unilateral codec choice.
  [[nodiscard]] Selector answer(const Descriptor& received) const {
    return makeSelector(received, addr, sendable, muteOut);
  }

  void canonicalize(ByteWriter& w) const {
    w.u32(addr.ip);
    w.u16(addr.port);
    w.boolean(muteIn);
    w.boolean(muteOut);
    serializeCodecs(receivable, w);
    serializeCodecs(sendable, w);
  }
  // The inverse of canonicalize; the caller checks r.ok().
  void decode(ByteReader& r) {
    addr.ip = r.u32();
    addr.port = r.u16();
    muteIn = r.boolean();
    muteOut = r.boolean();
    deserializeCodecs(r, receivable);
    deserializeCodecs(r, sendable);
  }
};

}  // namespace cmc
