// The bulk-sync role every node flavour composes (docs/BOOTSTRAP.md): the
// joiner side (session start, abandon on crash, epoch-tagged session ids)
// and the server side (frontier and range answers, sent after the store's
// cold reads and the serve throttle allow).
//
// PeerSession holds the joiner-side state and is what the host's join
// driver talks to. Peer<Node> adds the generic half of
// BulkPullSession::Env plus serving, resolved statically against the node
// type (no extra virtual call or per-node field on the message path). A
// node derives from Peer<Itself> and supplies only its policy:
//
//   * id(), store(), host() — identity, the BlockStore it syncs into and
//     serves from, and the facade (simulator(), network(), metrics(),
//     serve_throttle());
//   * frontier_inventory() — bodies (or shards) it advertises;
//   * the Env policy hooks: sync_wants_body and sync_body_candidates, and
//     where they differ from the replicated-chain defaults below,
//     sync_range_mode, sync_coded, sync_linked_headers and
//     sync_fetch_assigned_shard.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "storage/block_store.h"
#include "sync/serve.h"
#include "sync/session.h"

namespace ici::sync {

class PeerSession : private BulkPullSession::Env {
 public:
  /// Streaming bulk-sync join: frontier exchange with `candidates`, then
  /// windowed multi-peer bulk pull. `checkpoint` is held by the driver (not
  /// the node) so it survives a mid-sync crash; a restarted node resumes by
  /// calling this again over the same checkpoint.
  void start_streaming_sync(const SyncConfig& cfg, SyncCheckpoint* checkpoint,
                            std::vector<sim::NodeId> candidates,
                            std::function<void(const SyncReport&)> on_done);
  /// Crash semantics: drops the in-memory session; every outstanding sync
  /// timer becomes inert. The driver-held checkpoint is untouched.
  void abandon_sync() { session_.reset(); }

 protected:
  /// Hands a frontier/range response to the running session, if any.
  void forward_to_session(sim::NodeId from, const SyncMessage& msg) {
    if (session_) session_->on_sync_message(from, msg);
  }

 private:
  std::shared_ptr<BulkPullSession> session_;
  std::uint64_t epoch_ = 0;  // distinguishes sessions across resumes
};

template <class Node>
class Peer : public PeerSession {
 public:
  /// Answers requests from joiners and feeds responses to this node's own
  /// session.
  void handle_sync_message(sim::NodeId from, const SyncMessage& msg) {
    switch (msg.sync_kind()) {
      case SyncMsgKind::kFrontierRequest:
        send_sync_response(
            from, serve_frontier(self().store(), static_cast<const FrontierRequestMsg&>(msg),
                                 self().frontier_inventory(), self().sync_coded()));
        break;
      case SyncMsgKind::kRangeRequest: {
        ServedRange served =
            serve_range(self().store(), static_cast<const RangeRequestMsg&>(msg));
        send_sync_response(from, std::move(served.msg), served.io_delay_us);
        break;
      }
      case SyncMsgKind::kFrontierResponse:
      case SyncMsgKind::kRangeResponse:
        forward_to_session(from, msg);
        break;
    }
  }

 private:
  // Policy defaults: a contiguous, uncoded chain pulled with its bodies.
  [[nodiscard]] bool sync_linked_headers() const override { return true; }
  [[nodiscard]] PullMode sync_range_mode() const override {
    return PullMode::kHeadersAndBodies;
  }
  [[nodiscard]] bool sync_coded() const override { return false; }
  void sync_fetch_assigned_shard(
      const Hash256&, std::uint64_t,
      std::function<void(std::shared_ptr<const Block>)> done) override {
    if (done) done(nullptr);  // uncoded flavours hold no shards
  }

  Node& self() { return static_cast<Node&>(*this); }
  const Node& self() const { return static_cast<const Node&>(*this); }

  /// Sends a serve-side response once the store has read the bodies
  /// (`io_delay_us`, cold reads) and the per-peer token bucket has room
  /// (--sync-serve-rate). The deferred send runs in this node's own
  /// context; the peer just sees the message later.
  void send_sync_response(sim::NodeId to, sim::MessagePtr msg, std::uint64_t io_delay_us = 0) {
    auto& host = self().host();
    std::uint64_t delay = io_delay_us;
    if (ServeThrottle* throttle = host.serve_throttle()) {
      const std::uint64_t t =
          throttle->delay_for(self().id(), to, msg->wire_size(), host.simulator().now());
      if (t > 0) host.metrics().counter("sync.serve_throttled").inc();
      delay += t;
    }
    if (delay > 0) {
      host.simulator().after(delay, [this, to, msg = std::move(msg)] {
        self().host().network().send(self().id(), to, msg);
      });
      return;
    }
    host.network().send(self().id(), to, std::move(msg));
  }

  [[nodiscard]] sim::NodeId sync_self() const final { return self().id(); }
  [[nodiscard]] sim::Simulator& sync_simulator() final { return self().host().simulator(); }
  void sync_send(sim::NodeId to, sim::MessagePtr msg) final {
    self().host().network().send(self().id(), to, std::move(msg));
  }
  [[nodiscard]] std::size_t sync_message_overhead() const final {
    return self().host().network().config().per_message_overhead;
  }
  void sync_commit_header(const BlockHeader& header, const Hash256& hash) final {
    self().store().put(StoredBlock::header_only(header, hash));
  }
  // Bulk sync installs without re-validating: the ranges were Merkle- and
  // linkage-checked.
  void sync_commit_body(const std::shared_ptr<const Block>& block) final {
    self().store().put(HashedBlock(block));
  }
};

}  // namespace ici::sync
