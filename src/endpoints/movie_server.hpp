// MovieServerBox: the streaming source of the collaborative-television
// scenario (paper Fig. 8).
//
// One signaling channel from a collaboration box is associated in the
// server with one movie and one time pointer; every tunnel of that channel
// carries a media stream of the same movie at the same point — video or
// audio in different codecs/languages for different devices. Pause/play/
// seek arrive as custom meta-signals on the channel and affect all of its
// tunnels at once, which is what makes the viewing collaborative.
//
//   tag "load",  payload "<movie-name>"
//   tag "pause" / "play"
//   tag "seek",  payload "<seconds>"
#pragma once

#include <charconv>
#include <map>
#include <memory>

#include "core/box.hpp"
#include "endpoints/media_sync.hpp"

namespace cmc {

class MovieServerBox : public Box {
 public:
  MovieServerBox(BoxId id, std::string name, MediaNetwork& media_network,
                 EventLoop& loop, MediaAddress base_addr,
                 std::uint32_t max_streams = 16)
      : Box(id, std::move(name)), loop_(loop) {
    for (std::uint32_t i = 0; i < max_streams; ++i) {
      MediaAddress addr = base_addr;
      addr.port = static_cast<std::uint16_t>(base_addr.port + i);
      streams_.push_back(std::make_unique<MediaEndpoint>(
          EndpointId{id.value() * 100 + i}, addr, media_network, loop));
    }
    ids_ = DescriptorFactory{id.value()};
  }

  struct Session {
    std::string movie;
    double position_s = 0;      // time pointer within the movie
    bool playing = false;
    SimTime position_as_of;     // when position_s was last fixed
  };

  [[nodiscard]] const Session* session(ChannelId channel) const {
    auto it = sessions_.find(channel);
    return it == sessions_.end() ? nullptr : &it->second;
  }

  // Current time pointer, accounting for play time since the last update.
  [[nodiscard]] double positionOf(ChannelId channel) const {
    const Session* s = session(channel);
    if (s == nullptr) return 0;
    if (!s->playing) return s->position_s;
    return s->position_s +
           std::chrono::duration<double>(loop_.now() - s->position_as_of).count();
  }

 protected:
  void onIncomingChannel(ChannelId channel, const std::string&) override {
    Session session;
    session.position_as_of = loop_.now();
    sessions_[channel] = session;
    const auto slots = slotsOf(channel);
    for (SlotId s : slots) {
      if (next_stream_ >= streams_.size()) break;
      const std::size_t idx = next_stream_++;
      stream_of_[s] = idx;
      MediaIntent intent = MediaIntent::endpoint(
          streams_[idx]->address(),
          {Codec::g711u, Codec::g726, Codec::mpeg2, Codec::h263});
      // A movie stream is one-way: the server sends, it does not receive.
      intent.muteIn = true;
      setGoal(s, HoldSlotGoal{intent, ids_});
    }
  }

  void onSlotActivity(SlotId slot) override {
    auto it = stream_of_.find(slot);
    if (it == stream_of_.end()) return;
    syncStream(it->second, slot);
  }

  void onChannelDown(ChannelId channel) override {
    sessions_.erase(channel);
    for (auto it = stream_of_.begin(); it != stream_of_.end();) {
      if (!channelOf(it->first).valid()) {
        streams_[it->second]->setSending(std::nullopt);
        it = stream_of_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void onMeta(ChannelId channel, const MetaSignal& meta) override {
    auto it = sessions_.find(channel);
    if (it == sessions_.end() || meta.kind != MetaKind::custom) return;
    Session& session = it->second;
    if (meta.tag == "load") {
      session.movie = meta.payload;
      session.position_s = 0;
      session.position_as_of = loop_.now();
    } else if (meta.tag == "play") {
      session.position_s = positionOf(channel);
      session.position_as_of = loop_.now();
      session.playing = true;
      resyncChannel(channel);
    } else if (meta.tag == "pause") {
      session.position_s = positionOf(channel);
      session.position_as_of = loop_.now();
      session.playing = false;
      resyncChannel(channel);
    } else if (meta.tag == "seek") {
      double pos = 0;
      std::from_chars(meta.payload.data(),
                      meta.payload.data() + meta.payload.size(), pos);
      session.position_s = pos;
      session.position_as_of = loop_.now();
    }
  }

 private:
  void syncStream(std::size_t idx, SlotId slot) {
    auto it = sessions_.find(channelOf(slot));
    const bool playing = it != sessions_.end() && it->second.playing;
    const SlotEndpoint& s = this->slot(slot);
    streams_[idx]->setSending(playing ? sendStateOf(s) : std::nullopt);
    streams_[idx]->setListening(listenStateOf(s));
  }

  void resyncChannel(ChannelId channel) {
    for (const auto& [slot, idx] : stream_of_) {
      if (channelOf(slot) == channel) syncStream(idx, slot);
    }
  }

  EventLoop& loop_;
  std::vector<std::unique_ptr<MediaEndpoint>> streams_;
  DescriptorFactory ids_;
  std::size_t next_stream_ = 0;
  std::map<SlotId, std::size_t> stream_of_;
  std::map<ChannelId, Session> sessions_;
};

}  // namespace cmc
