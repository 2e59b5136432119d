// CollabTvBox: collaborative-television control (paper Fig. 8).
//
// Each viewing household/device group has its own collaboration box. The
// box that *controls* the movie holds the signaling channel to the movie
// server — that channel's tunnels all carry the same movie at the same
// time pointer — and flowlinks each media tunnel to the device (or remote
// collaboration box) that consumes it. Pause/play commands from any
// participant are mediated by the controlling box and forwarded to the
// movie server as channel meta-signals, affecting every stream at once.
//
// A participant leaves the collaboration by asking its own collaboration
// box to split: the box tears its tunnels out of the shared path, opens its
// own channel to the movie server (same movie, its own time pointer), and
// relinks its device streams there — after which others can join *its*
// view instead (paper, the daughter's fast-forward scenario).
#pragma once

#include <map>

#include "core/box.hpp"

namespace cmc {

class CollabTvBox : public Box {
 public:
  CollabTvBox(BoxId id, std::string name, std::string movie_server)
      : Box(id, std::move(name)), movie_server_(std::move(movie_server)) {
    ids_ = DescriptorFactory{id.value()};
  }

  // ---- controller role -------------------------------------------------
  // Begin controlling `movie`, with `tunnels` media streams available.
  void startMovie(const std::string& movie, std::uint32_t tunnels) {
    movie_ = movie;
    requestChannel(movie_server_, tunnels, "movie");
  }

  // Attach a consumer: flowlink movie-server tunnel `stream` to tunnel
  // `consumer_tunnel` of the channel to `consumer` (a device or a peer
  // collaboration box). The consumer channel must already exist.
  void routeStream(std::size_t stream, ChannelId consumer_channel,
                   std::size_t consumer_tunnel) {
    if (stream >= movie_slots_.size()) return;
    const auto slots = slotsOf(consumer_channel);
    if (consumer_tunnel >= slots.size()) return;
    linkSlots(movie_slots_[stream], slots[consumer_tunnel]);
  }

  void pause() { sendMovieMeta("pause", ""); }
  void play() { sendMovieMeta("play", ""); }
  void seek(double seconds) { sendMovieMeta("seek", std::to_string(seconds)); }

  [[nodiscard]] ChannelId movieChannel() const noexcept { return movie_channel_; }
  [[nodiscard]] std::size_t movieStreamCount() const noexcept {
    return movie_slots_.size();
  }
  [[nodiscard]] ChannelId channelTo(const std::string& peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? ChannelId{} : it->second;
  }

  // ---- participant role -------------------------------------------------
  // Connect to another collaboration box with `tunnels` media tunnels.
  void joinCollaboration(const std::string& controller, std::uint32_t tunnels) {
    requestChannel(controller, tunnels, "collab:" + controller);
  }

  // Leave a collaboration: tear down the channel to the controller, get an
  // own movie-server channel at `position`, and relink consumers there.
  void leaveAndSplit(const std::string& controller, const std::string& movie,
                     std::uint32_t tunnels, double position) {
    auto it = peers_.find(controller);
    if (it != peers_.end()) {
      destroyChannel(it->second);
      peers_.erase(it);
    }
    movie_ = movie;
    split_position_ = position;
    requestChannel(movie_server_, tunnels, "movie");
  }

  std::function<void()> onMovieReady;  // test/example hook

 protected:
  void onChannelUp(ChannelId channel, const std::string& tag) override {
    if (tag == "movie") {
      movie_channel_ = channel;
      movie_slots_ = slotsOf(channel);
      sendMovieMeta("load", movie_);
      if (split_position_ > 0) sendMovieMeta("seek", std::to_string(split_position_));
      sendMovieMeta("play", "");
      if (onMovieReady) onMovieReady();
      return;
    }
    if (tag.rfind("collab:", 0) == 0) {
      peers_[tag.substr(7)] = channel;
    }
  }

  void onIncomingChannel(ChannelId channel, const std::string& peer) override {
    peers_[peer] = channel;
  }

  void onMeta(ChannelId, const MetaSignal& meta) override {
    // Participants relay pause/play requests to the controller's movie
    // channel (command mediation, paper Fig. 8 discussion).
    if (meta.kind == MetaKind::custom &&
        (meta.tag == "pause" || meta.tag == "play" || meta.tag == "seek")) {
      sendMovieMeta(meta.tag, meta.payload);
    }
  }

  void onChannelDown(ChannelId channel) override {
    if (channel == movie_channel_) {
      movie_channel_ = ChannelId{};
      movie_slots_ = {};
    }
    for (auto it = peers_.begin(); it != peers_.end();) {
      if (it->second == channel) {
        it = peers_.erase(it);
      } else {
        ++it;
      }
    }
    // Movie streams whose consumer vanished (their flowlink died with the
    // consumer channel) must be closed, or the server keeps streaming into
    // the void.
    for (SlotId s : movie_slots_) {
      if (!goalKind(s).has_value()) setGoal(s, CloseSlotGoal{});
    }
  }

 private:
  void sendMovieMeta(const std::string& tag, const std::string& payload) {
    if (movie_channel_.valid()) {
      sendMeta(movie_channel_, MetaSignal{MetaKind::custom, tag, payload});
    }
  }

  std::string movie_server_;
  DescriptorFactory ids_;
  std::string movie_;
  double split_position_ = 0;
  ChannelId movie_channel_;
  SlotIds movie_slots_;
  std::map<std::string, ChannelId> peers_;
};

}  // namespace cmc
