#include "channel/channel.hpp"

namespace cmc {

std::ostream& operator<<(std::ostream& os, Side side) {
  return os << (side == Side::A ? 'A' : 'B');
}

// Wire tags: 0/1 are the context-free encodings (tunnel/meta), unchanged
// since the first framing so canonical fingerprints and propagation-off
// wire bytes stay byte-identical. 2/3 are the same bodies prefixed with a
// 16-byte TraceContext (trace id, parent span id); they appear on the wire
// only when a sender actually stamped a context.
void serialize(const ChannelMessage& m, ByteWriter& w) {
  if (const auto* ts = std::get_if<TunnelSignal>(&m)) {
    if (ts->ctx.empty()) {
      w.u8(0);
    } else {
      w.u8(2);
      w.u64(ts->ctx.trace);
      w.u64(ts->ctx.span);
    }
    w.u32(ts->tunnel);
    serialize(ts->signal, w);
  } else {
    const auto& meta = std::get<MetaSignal>(m);
    if (meta.ctx.empty()) {
      w.u8(1);
    } else {
      w.u8(3);
      w.u64(meta.ctx.trace);
      w.u64(meta.ctx.span);
    }
    meta.serialize(w);
  }
}

std::optional<ChannelMessage> deserializeChannelMessage(ByteReader& r) {
  const std::uint8_t tag = r.u8();
  if (tag == 0 || tag == 2) {
    TunnelSignal ts;
    if (tag == 2) {
      ts.ctx.trace = r.u64();
      ts.ctx.span = r.u64();
    }
    ts.tunnel = r.u32();
    auto sig = deserializeSignal(r);
    if (!sig) return std::nullopt;
    ts.signal = std::move(*sig);
    if (!r.ok()) return std::nullopt;
    return ChannelMessage{std::move(ts)};
  }
  if (tag == 1 || tag == 3) {
    obs::TraceContext ctx;
    if (tag == 3) {
      ctx.trace = r.u64();
      ctx.span = r.u64();
    }
    MetaSignal m = MetaSignal::deserialize(r);
    m.ctx = ctx;
    if (!r.ok()) return std::nullopt;
    return ChannelMessage{std::move(m)};
  }
  return std::nullopt;
}

std::ostream& operator<<(std::ostream& os, const ChannelMessage& m) {
  if (const auto* ts = std::get_if<TunnelSignal>(&m)) {
    return os << "t" << ts->tunnel << '/' << ts->signal;
  }
  return os << std::get<MetaSignal>(m);
}

void ChannelState::canonicalize(ByteWriter& w) const {
  w.u32(tunnel_count_);
  for (const auto& queue : queues_) {
    w.u32(static_cast<std::uint32_t>(queue.size()));
    for (const auto& m : queue) serialize(m, w);
  }
}

bool ChannelState::decode(ByteReader& r) {
  if (r.u32() != tunnel_count_) return false;
  for (auto& queue : queues_) {
    const std::uint32_t depth = r.u32();
    // Every message takes at least its tag byte, so a depth the bytes
    // cannot hold is rejected before anything is queued.
    if (!r.ok() || depth > r.remaining()) return false;
    queue.clear();
    for (std::uint32_t i = 0; i < depth; ++i) {
      std::optional<ChannelMessage> m = deserializeChannelMessage(r);
      if (!m) return false;
      queue.push_back(std::move(*m));
    }
  }
  return r.ok();
}

}  // namespace cmc
