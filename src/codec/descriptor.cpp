#include "codec/descriptor.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace cmc {

std::string MediaAddress::toString() const {
  std::ostringstream oss;
  oss << ((ip >> 24) & 0xff) << '.' << ((ip >> 16) & 0xff) << '.'
      << ((ip >> 8) & 0xff) << '.' << (ip & 0xff) << ':' << port;
  return oss.str();
}

MediaAddress MediaAddress::parse(std::string_view dotted, std::uint16_t port) {
  std::uint32_t ip = 0;
  std::size_t pos = 0;
  for (int octet = 0; octet < 4; ++octet) {
    std::size_t dot = dotted.find('.', pos);
    std::string_view part = dotted.substr(pos, dot == std::string_view::npos
                                                   ? std::string_view::npos
                                                   : dot - pos);
    unsigned value = 0;
    std::from_chars(part.data(), part.data() + part.size(), value);
    ip = (ip << 8) | (value & 0xff);
    if (dot == std::string_view::npos) break;
    pos = dot + 1;
  }
  return MediaAddress{ip, port};
}

std::ostream& operator<<(std::ostream& os, const MediaAddress& addr) {
  return os << addr.toString();
}

bool Descriptor::wellFormed() const noexcept {
  if (codecs.empty()) return false;
  const bool has_no_media =
      std::find(codecs.begin(), codecs.end(), Codec::noMedia) != codecs.end();
  return !has_no_media || codecs.size() == 1;
}

void serializeCodecs(std::span<const Codec> codecs, ByteWriter& w) {
  w.u16(static_cast<std::uint16_t>(codecs.size()));
  for (Codec c : codecs) w.u16(static_cast<std::uint16_t>(c));
}

void deserializeCodecs(ByteReader& r, CodecList& into) {
  into.clear();
  const std::uint16_t n = r.u16();
  for (std::uint16_t i = 0; i < n; ++i) {
    const auto c = static_cast<Codec>(r.u16());
    if (!r.ok()) return;
    into.push_back(c);
  }
}

void Descriptor::serialize(ByteWriter& w) const {
  w.u64(id.value());
  w.u32(addr.ip);
  w.u16(addr.port);
  serializeCodecs(codecs, w);
}

Descriptor Descriptor::deserialize(ByteReader& r) {
  Descriptor d;
  d.id = DescriptorId{r.u64()};
  d.addr.ip = r.u32();
  d.addr.port = r.u16();
  deserializeCodecs(r, d.codecs);
  return d;
}

std::ostream& operator<<(std::ostream& os, const Descriptor& d) {
  os << "desc{" << d.id << ' ' << d.addr << " [";
  for (std::size_t i = 0; i < d.codecs.size(); ++i) {
    if (i != 0) os << ' ';
    os << d.codecs[i];
  }
  return os << "]}";
}

void Selector::serialize(ByteWriter& w) const {
  w.u64(answersDescriptor.value());
  w.u32(sender.ip);
  w.u16(sender.port);
  w.u16(static_cast<std::uint16_t>(codec));
}

Selector Selector::deserialize(ByteReader& r) {
  Selector s;
  s.answersDescriptor = DescriptorId{r.u64()};
  s.sender.ip = r.u32();
  s.sender.port = r.u16();
  s.codec = static_cast<Codec>(r.u16());
  return s;
}

std::ostream& operator<<(std::ostream& os, const Selector& s) {
  return os << "sel{answers=" << s.answersDescriptor << " from=" << s.sender
            << ' ' << s.codec << '}';
}

Codec chooseCodec(const Descriptor& received, std::span<const Codec> sendable,
                  bool muteOut) noexcept {
  if (muteOut || received.isNoMedia()) return Codec::noMedia;
  // The descriptor's list is priority-ordered, best first; pick the first
  // entry the sender supports.
  for (Codec offered : received.codecs) {
    if (offered == Codec::noMedia) continue;
    if (std::find(sendable.begin(), sendable.end(), offered) != sendable.end()) {
      return offered;
    }
  }
  return Codec::noMedia;
}

Selector makeSelector(const Descriptor& received, const MediaAddress& sender,
                      std::span<const Codec> sendable, bool muteOut) noexcept {
  return Selector{received.id, sender, chooseCodec(received, sendable, muteOut)};
}

Descriptor makeDescriptor(DescriptorId id, const MediaAddress& addr,
                          std::span<const Codec> receivable, bool muteIn) {
  Descriptor d;
  d.id = id;
  d.addr = addr;
  if (muteIn || receivable.empty()) {
    d.codecs = {Codec::noMedia};
  } else {
    d.codecs.assign(receivable.begin(), receivable.end());
  }
  return d;
}

}  // namespace cmc
